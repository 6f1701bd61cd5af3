"""Evidence merge and canonical JSON: the coordinator's determinism."""

import json

from repro.cluster.coordinator import ClusterCoordinator, merge_evidence, verdict_json
from repro.net.topology import linear_path_topology
from repro.traceback.sink import SinkEvidence


def evidence(
    nodes=(),
    edges=(),
    stops=(),
    received=0,
    tampered=0,
    chains=0,
    fallbacks=0,
    delivering=None,
) -> SinkEvidence:
    return SinkEvidence(
        nodes=tuple(nodes),
        edges=tuple(edges),
        tamper_stops=tuple(stops),
        packets_received=received,
        tampered_packets=tampered,
        chains_with_marks=chains,
        fallback_searches=fallbacks,
        delivering_node=delivering,
    )


class TestMergeEvidence:
    def test_unions_and_sums(self):
        a = evidence(
            nodes=(1, 2),
            edges=((1, 2),),
            stops=((2, 3),),
            received=10,
            tampered=2,
            chains=8,
            fallbacks=1,
        )
        b = evidence(
            nodes=(2, 5),
            edges=((1, 2), (2, 5)),
            stops=((2, 1), (5, 4)),
            received=7,
            tampered=1,
            chains=7,
            fallbacks=2,
        )
        merged = merge_evidence({0: a, 1: b})
        assert merged.nodes == (1, 2, 5)
        assert merged.edges == ((1, 2), (2, 5))
        assert merged.tamper_stops == ((2, 4), (5, 4))
        assert merged.packets_received == 17
        assert merged.tampered_packets == 3
        assert merged.chains_with_marks == 15
        assert merged.fallback_searches == 3

    def test_merge_is_shard_id_order_insensitive(self):
        a = evidence(nodes=(1,), received=5, delivering=1)
        b = evidence(nodes=(2,), received=9, delivering=2)
        assert merge_evidence({0: a, 1: b}) == merge_evidence({1: b, 0: a})

    def test_single_shard_merge_is_identity(self):
        only = evidence(
            nodes=(3, 1),  # deliberately unsorted input
            edges=((3, 1),),
            stops=((1, 2),),
            received=4,
            delivering=9,
        )
        merged = merge_evidence({7: only})
        assert merged.nodes == (1, 3)
        assert merged.edges == ((3, 1),)
        assert merged.packets_received == 4
        assert merged.delivering_node == 9

    def test_delivering_node_follows_busiest_shard(self):
        quiet = evidence(received=3, delivering=11)
        busy = evidence(received=30, delivering=22)
        assert merge_evidence({0: quiet, 1: busy}).delivering_node == 22
        assert merge_evidence({0: busy, 1: quiet}).delivering_node == 22

    def test_delivering_node_tie_breaks_to_smallest_shard_id(self):
        a = evidence(received=5, delivering=11)
        b = evidence(received=5, delivering=22)
        assert merge_evidence({2: b, 1: a}).delivering_node == 11

    def test_shards_without_delivering_node_are_skipped(self):
        silent = evidence(received=100, delivering=None)
        spoke = evidence(received=1, delivering=7)
        assert merge_evidence({0: silent, 1: spoke}).delivering_node == 7

    def test_empty_merge(self):
        merged = merge_evidence({})
        assert merged.packets_received == 0
        assert merged.nodes == ()
        assert merged.delivering_node is None


class TestCanonicalJson:
    def make_verdict(self):
        from repro.crypto.keys import KeyStore
        from repro.crypto.mac import KeyedHashProvider
        from repro.marking.pnm import PNMMarking
        from repro.net.topology import grid_topology
        from repro.traceback.sink import TracebackSink
        from tests.conftest import MASTER, mark_through_path

        topology = grid_topology(4, 4)
        keystore = KeyStore.from_master_secret(
            MASTER, topology.sensor_nodes()
        )
        provider = KeyedHashProvider()
        sink = TracebackSink(
            PNMMarking(mark_prob=1.0), keystore, provider, topology
        )
        from repro.packets.packet import MarkedPacket
        from repro.packets.report import Report
        from repro.routing.tree import build_routing_tree

        routing = build_routing_tree(topology)
        source = max(topology.sensor_nodes(), key=routing.hop_count)
        path = routing.forwarders_between(source)
        for t in range(4):
            packet = mark_through_path(
                PNMMarking(mark_prob=1.0),
                keystore,
                provider,
                path,
                MarkedPacket(
                    report=Report(
                        event=f"canon:{t}".encode(),
                        location=topology.position(source),
                        timestamp=t,
                    )
                ),
                seed=t,
            )
            sink.receive(packet, delivering_node=path[-1])
        return sink.verdict()

    def test_verdict_json_is_stable_bytes(self):
        verdict = self.make_verdict()
        assert verdict_json(verdict) == verdict_json(verdict)

    def test_verdict_json_is_compact_and_sorted(self):
        payload = verdict_json(self.make_verdict())
        assert ": " not in payload and ", " not in payload
        decoded = json.loads(payload)
        assert list(decoded) == sorted(decoded)

    def test_suspect_members_render_sorted(self):
        payload = json.loads(verdict_json(self.make_verdict()))
        if payload["suspect"] is not None:
            members = payload["suspect"]["members"]
            assert members == sorted(members)


class TestCoordinatorVerdict:
    def test_tamper_stops_inside_one_loop_do_not_crash(self):
        """Merged evidence can leave every tamper stop in one loop with a
        second source component beside it and no delivering node: the
        route is equivocal, each stop reaches the other, and the tamper
        fallback must still pick a center instead of failing on an empty
        "most upstream" set."""
        topology, _ = linear_path_topology(5)
        merged = evidence(
            nodes=(1, 2, 3, 4, 5),
            edges=((3, 4), (4, 3), (4, 2), (5, 2), (2, 1)),
            stops=((3, 1), (4, 1)),
            received=5,
            tampered=2,
            chains=3,
        )
        verdict = ClusterCoordinator(topology).verdict(merged)
        assert verdict.loop_detected
        assert verdict.analysis.loops == (frozenset({3, 4}),)
        assert verdict.analysis.source_candidates == {3, 4, 5}
        # Equal stop counts: the (-count, id) tie-break picks node 3.
        assert verdict.identified
        assert verdict.suspect.center == 3
        assert verdict.suspect.members == frozenset({2, 3, 4})
        assert not verdict.suspect.via_loop

    def test_more_frequent_stop_in_the_loop_wins(self):
        topology, _ = linear_path_topology(5)
        merged = evidence(
            nodes=(1, 2, 3, 4, 5),
            edges=((3, 4), (4, 3), (4, 2), (5, 2), (2, 1)),
            stops=((2, 5), (3, 1), (4, 2)),
            received=8,
            tampered=8,
        )
        verdict = ClusterCoordinator(topology).verdict(merged)
        # Stop 2 lies below the loop, so only the loop's stops remain.
        assert verdict.suspect.center == 4
