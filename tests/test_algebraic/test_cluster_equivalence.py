"""Cluster byte-identity for the *stateful* algebraic sink.

The hard part of sharding the algebraic scheme: the solver is stateful
across the observation stream, so the coordinator cannot just sum
counters -- it must merge per-shard observation multisets and re-solve.
These tests pin the contract end to end: an N-shard cluster's merged
verdict (and accusation report) is byte-identical to a single in-process
:class:`AlgebraicTracebackSink` fed the identical packet stream, through
a mid-run shard kill-and-replace, with the honest false-accusation rate
exactly 0.0.
"""

import random

import pytest

from repro.algebraic.marking import AlgebraicMarking
from repro.algebraic.sink import AlgebraicTracebackSink
from repro.cluster.coordinator import report_json, verdict_json
from repro.cluster.harness import run_cluster
from repro.cluster.ring import ShardRing, region_shard_key
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.faults.attribution import DropAttribution, accusation_report
from repro.faults.schedule import FaultSchedule
from repro.marking.base import NodeContext
from repro.net.topology import grid_topology
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.routing.tree import build_routing_tree

GRID_SIDE = 6
PACKETS = 24
SOURCES = 3
MASTER = b"algebraic-cluster-test"
FMT = AlgebraicMarking().fmt
REGION_KEY = region_shard_key(cell_size=1.0)


def build_algebraic_workload():
    """A 3-source grid stream marked with the accumulator scheme.

    Mirrors :func:`repro.experiments.cluster_sweep.build_cluster_workload`
    (one source per vertical strip, round-robin batches, delivering node =
    the route's last forwarder) but marks with :class:`AlgebraicMarking`,
    whose single replaced mark is what the shards must merge statefully.
    """
    scheme = AlgebraicMarking()
    provider = KeyedHashProvider()
    topology = grid_topology(GRID_SIDE, GRID_SIDE)
    keystore = KeyStore.from_master_secret(MASTER, topology.sensor_nodes())
    routing = build_routing_tree(topology)

    strip_width = GRID_SIDE / SOURCES
    best_per_strip = {}
    for node in topology.sensor_nodes():
        x, _ = topology.position(node)
        strip = min(int(x / strip_width), SOURCES - 1)
        incumbent = best_per_strip.get(strip)
        if incumbent is None or routing.hop_count(node) > routing.hop_count(
            incumbent
        ):
            best_per_strip[strip] = node
    source_nodes = [best_per_strip[strip] for strip in sorted(best_per_strip)]

    forwarders = {src: routing.forwarders_between(src) for src in source_nodes}
    streams = {src: [] for src in source_nodes}
    per_source = -(-PACKETS // SOURCES)  # ceil
    for src in source_nodes:
        for t in range(per_source):
            packet = MarkedPacket(
                report=Report(
                    event=f"algcluster:{src}:{t}".encode(),
                    location=topology.position(src),
                    timestamp=t,
                )
            )
            for node_id in forwarders[src]:
                context = NodeContext(
                    node_id=node_id,
                    key=keystore[node_id],
                    provider=provider,
                    rng=random.Random(f"algcluster:{node_id}"),
                )
                packet = scheme.on_forward(context, packet)
            streams[src].append(packet)

    batches = []
    emitted = 0
    cursor = 0
    while emitted < PACKETS:
        src = source_nodes[cursor % SOURCES]
        cursor += 1
        if not streams[src]:
            continue
        packet, streams[src] = streams[src][0], streams[src][1:]
        batches.append(([packet], forwarders[src][-1]))
        emitted += 1
    return topology, keystore, batches, source_nodes


@pytest.fixture(scope="module")
def workload():
    return build_algebraic_workload()


def make_algebraic_sink_factory(topology, keystore):
    def factory():
        return AlgebraicTracebackSink(
            AlgebraicMarking(), keystore, KeyedHashProvider(), topology
        )

    return factory


def serial_reference(topology, keystore, batches):
    sink = AlgebraicTracebackSink(
        AlgebraicMarking(), keystore, KeyedHashProvider(), topology
    )
    for chunk, delivering in batches:
        for packet in chunk:
            sink.receive(packet, delivering)
    return sink


class TestStaticEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_merged_verdict_is_byte_identical(self, workload, shards):
        topology, keystore, batches, _sources = workload
        reference = serial_reference(topology, keystore, batches)

        result = run_cluster(
            make_algebraic_sink_factory(topology, keystore),
            FMT,
            topology,
            batches,
            shard_ids=range(shards),
            shard_key=REGION_KEY,
        )
        assert verdict_json(result.verdict) == verdict_json(
            reference.verdict()
        )
        assert result.evidence.packets_received == PACKETS

    def test_observation_multisets_merge_exactly(self, workload):
        topology, keystore, batches, _sources = workload
        reference = serial_reference(topology, keystore, batches)
        result = run_cluster(
            make_algebraic_sink_factory(topology, keystore),
            FMT,
            topology,
            batches,
            shard_ids=range(4),
            shard_key=REGION_KEY,
        )
        assert result.evidence.algebraic == reference.evidence().algebraic
        assert len(result.evidence.algebraic) == PACKETS

    def test_solver_state_actually_matters(self, workload):
        # Guard against the equivalence holding vacuously: the reference
        # run really confirms paths (the verdict has route evidence).
        topology, keystore, batches, sources = workload
        reference = serial_reference(topology, keystore, batches)
        assert reference.confirmed_paths()


class TestChurnEquivalence:
    def find_victim(self, workload) -> int:
        topology, _keystore, batches, _sources = workload
        ring = ShardRing(range(4))
        return ring.shard_for(REGION_KEY(batches[0][0][0]))

    def test_kill_and_replace_mid_run_stays_byte_identical(self, workload):
        topology, keystore, batches, _sources = workload
        reference = serial_reference(topology, keystore, batches)
        victim = self.find_victim(workload)
        mid = len(batches) // 2
        churn = (
            FaultSchedule()
            .crash(float(mid), node=victim)
            .recover(float(mid + 4), node=victim)
        )

        result = run_cluster(
            make_algebraic_sink_factory(topology, keystore),
            FMT,
            topology,
            batches,
            shard_ids=range(4),
            shard_key=REGION_KEY,
            churn=churn,
        )

        assert verdict_json(result.verdict) == verdict_json(
            reference.verdict()
        )
        accusation = accusation_report(result.evidence, topology, DropAttribution())
        assert accusation.false_accusation_rate == 0.0
        assert accusation.accused == ()
        assert report_json(accusation)  # canonical form renders

        assert result.stats["shards_lost"] == 1
        assert result.stats["shards_recovered"] == 1
        # Exactly-once: the merged multiset neither lost nor duplicated
        # observations across the kill-and-replace.
        assert result.evidence.algebraic == reference.evidence().algebraic
        assert result.evidence.packets_received == PACKETS
