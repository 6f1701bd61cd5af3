"""The cluster's contract: byte-identical to one big sink, even under churn.

The merged verdict/report of an N-shard cluster must equal -- as
canonical JSON bytes, not just semantically -- what a single in-process
:class:`TracebackSink` produces from the identical packet stream.  Three
escalations:

1. honest stream, fixed membership (1/2/4 shards);
2. honest stream while a ``repro.faults`` churn schedule kills one shard
   mid-run and replaces it (journal replay + rebalance), where the
   honest false-accusation rate must stay exactly 0.0;
3. a tampered stream (mole-style MAC corruption), where the tamper
   verdict itself must survive sharding.

A hypothesis property then covers every verdict source at once: any
partition of a PNM or algebraic stream plus delivered watchdog claims
over 1-4 in-process shards merges to the single sink's evidence, verdict
and report, and every shard's SUMMARY round-trips byte for byte.  One
strict xfail pins the known exception: a markless stream split by
delivering node, where the merged fallback picks another deliverer.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic.marking import AlgebraicMarking
from repro.algebraic.sink import AlgebraicTracebackSink
from repro.cluster.coordinator import (
    ClusterCoordinator,
    report_json,
    verdict_json,
)
from repro.cluster.harness import LocalCluster, run_cluster
from repro.cluster.ring import ShardRing, region_shard_key
from repro.crypto.mac import KeyedHashProvider
from repro.experiments.cluster_sweep import (
    build_cluster_workload,
    make_sink_factory,
)
from repro.faults.attribution import DropAttribution, accusation_report
from repro.core.build import deploy
from repro.faults.schedule import FaultSchedule
from repro.marking.pnm import PNMMarking
from repro.net.topology import linear_path_topology
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.traceback.sink import TracebackSink
from repro.wire.messages import decode_summary, encode_summary

GRID_SIDE = 10
PACKETS = 40
SOURCES = 4
FMT = PNMMarking(mark_prob=1.0).fmt
CELL_SIZE = 1.0
REGION_KEY = region_shard_key(cell_size=CELL_SIZE)


@pytest.fixture(scope="module")
def workload():
    return build_cluster_workload(GRID_SIDE, PACKETS, sources=SOURCES)


def serial_reference(topology, keystore, batches) -> TracebackSink:
    sink = TracebackSink(
        PNMMarking(mark_prob=1.0), keystore, KeyedHashProvider(), topology
    )
    for chunk, delivering in batches:
        for packet in chunk:
            sink.receive(packet, delivering)
    return sink


def reference_report(sink, topology) -> str:
    return report_json(
        accusation_report(sink.evidence(), topology, DropAttribution())
    )


def cluster_report(result, topology) -> str:
    return report_json(
        accusation_report(result.evidence, topology, DropAttribution())
    )


class TestStaticEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_merged_report_is_byte_identical(self, workload, shards):
        topology, keystore, batches, _sources = workload
        reference = serial_reference(topology, keystore, batches)

        result = run_cluster(
            make_sink_factory(topology, keystore),
            FMT,
            topology,
            batches,
            shard_ids=range(shards),
            shard_key=REGION_KEY,
        )
        assert verdict_json(result.verdict) == verdict_json(
            reference.verdict()
        )
        assert cluster_report(result, topology) == reference_report(
            reference, topology
        )
        assert result.evidence.packets_received == PACKETS

    def test_uniform_report_key_also_equivalent(self, workload):
        # The equivalence must not depend on locality-friendly routing:
        # the uniform report-digest key scatters each source's packets
        # across shards and the merge must still be exact.
        topology, keystore, batches, _sources = workload
        reference = serial_reference(topology, keystore, batches)
        result = run_cluster(
            make_sink_factory(topology, keystore),
            FMT,
            topology,
            batches,
            shard_ids=range(4),
        )
        assert verdict_json(result.verdict) == verdict_json(
            reference.verdict()
        )


class TestChurnEquivalence:
    def find_victim(self, workload) -> int:
        """The shard owning the first source region (so it has traffic)."""
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
            make_sink_factory(topology, keystore),
            FMT,
            topology,
            batches,
            shard_ids=range(4),
            shard_key=REGION_KEY,
            churn=churn,
        )

        # The paper-level answer is unchanged by the mid-run shard loss.
        assert verdict_json(result.verdict) == verdict_json(
            reference.verdict()
        )
        report = cluster_report(result, topology)
        assert report == reference_report(reference, topology)
        # Honest stream + churn-only faults: zero false accusations.
        accusation = accusation_report(
            result.evidence, topology, DropAttribution()
        )
        assert accusation.false_accusation_rate == 0.0
        assert accusation.accused == ()

        # The churn actually happened and was repaired.
        assert result.stats["shards_lost"] == 1
        assert result.stats["shards_recovered"] == 1
        assert result.stats["replayed_batches"] > 0
        # Exactly-once: every packet counted by exactly one live shard.
        assert result.evidence.packets_received == PACKETS

    def test_replacement_shard_serves_traffic_after_recovery(self, workload):
        topology, keystore, batches, _sources = workload
        victim = self.find_victim(workload)

        async def scenario():
            cluster = LocalCluster(
                make_sink_factory(topology, keystore),
                FMT,
                shard_ids=list(range(4)),
                shard_key=REGION_KEY,
            )
            async with cluster:
                mid = len(batches) // 2
                for chunk, delivering in batches[:mid]:
                    await cluster.send(chunk, delivering)
                await cluster.crash_shard(victim)
                await cluster.recover_shard(victim)
                for chunk, delivering in batches[mid:]:
                    await cluster.send(chunk, delivering)
                summaries = await cluster.collect()
                stats = cluster.stats()
            return summaries, stats

        summaries, stats = asyncio.run(scenario())
        # The replacement holds the victim's ring ranges again, so the
        # second half of its region's traffic landed on it.
        assert victim in summaries
        assert summaries[victim].packets_received > 0
        assert stats["shards_recovered"] == 1
        assert (
            sum(s.packets_received for s in summaries.values()) == PACKETS
        )


def corrupt_most_upstream_mark(packet):
    """Flip the most upstream mark's MAC -- a mole-style tamper."""
    first = packet.marks[0]
    bad = Mark(
        id_field=first.id_field,
        mac=bytes(b ^ 0xFF for b in first.mac),
    )
    return packet.with_marks((bad, *packet.marks[1:]))


class TestTamperedEquivalence:
    def test_tamper_verdict_survives_sharding(self, workload):
        topology, keystore, batches, _sources = workload
        tampered_batches = []
        for index, (chunk, delivering) in enumerate(batches):
            if index % 3 == 0:
                chunk = [corrupt_most_upstream_mark(p) for p in chunk]
            tampered_batches.append((list(chunk), delivering))

        reference = serial_reference(topology, keystore, tampered_batches)
        assert reference.tampered_packets > 0  # the corruption registered

        result = run_cluster(
            make_sink_factory(topology, keystore),
            FMT,
            topology,
            tampered_batches,
            shard_ids=range(4),
            shard_key=REGION_KEY,
        )
        assert result.evidence.tampered_packets == reference.tampered_packets
        assert verdict_json(result.verdict) == verdict_json(
            reference.verdict()
        )
        assert cluster_report(result, topology) == reference_report(
            reference, topology
        )


# Partition property ---------------------------------------------------------
#
# A chain deployment, so every packet has the same delivering node and the
# merged evidence must equal the single sink's field for field.

CHAIN, CHAIN_SOURCE = linear_path_topology(6)
CHAIN_PATH = [1, 2, 3, 4, 5, 6]  # the source's forwarders, toward the sink
CHAIN_DELIVERING = CHAIN_PATH[-1]
CHAIN_NODES = sorted(CHAIN.sensor_nodes())
POOL = 12


def chain_pool(scheme, label):
    """``POOL`` honestly marked packets, each also with its first MAC flipped."""
    dep = deploy(CHAIN, b"partition-property", label)
    contexts = {node: dep.ctx(node) for node in CHAIN_PATH}
    pool = []
    for t in range(POOL):
        packet = MarkedPacket(
            report=Report(
                event=f"{label}:{t}".encode(),
                location=CHAIN.position(CHAIN_SOURCE),
                timestamp=t,
            )
        )
        for node in CHAIN_PATH:
            packet = scheme.on_forward(contexts[node], packet)
        pool.append(
            (packet, corrupt_most_upstream_mark(packet) if packet.marks else packet)
        )
    return dep, pool


def pnm_chain():
    scheme = PNMMarking(mark_prob=0.4)
    dep, pool = chain_pool(scheme, "pnm")
    return (
        lambda: TracebackSink(scheme, dep.keystore, dep.provider, CHAIN),
        pool,
    )


def algebraic_chain():
    scheme = AlgebraicMarking()
    dep, pool = chain_pool(scheme, "algebraic")
    return (
        lambda: AlgebraicTracebackSink(scheme, dep.keystore, dep.provider, CHAIN),
        pool,
    )


DEPLOYMENTS = {"pnm": pnm_chain(), "algebraic": algebraic_chain()}

streams = st.lists(
    st.tuples(
        st.integers(0, POOL - 1),  # packet
        st.booleans(),  # tampered
        st.integers(0, 3),  # shard, modulo the shard count
    ),
    max_size=24,
)
claims = st.lists(
    st.tuples(st.sampled_from(CHAIN_NODES), st.integers(0, 3)), max_size=8
)


class TestPartitionProperty:
    @pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
    @given(
        shards=st.integers(1, 4),
        stream=streams,
        delivered_claims=claims,
        suspicious=st.sets(st.sampled_from(CHAIN_NODES), max_size=2),
        mole=st.sampled_from(CHAIN_NODES),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_partition_merges_to_the_single_sink(
        self, kind, shards, stream, delivered_claims, suspicious, mole
    ):
        make_sink, pool = DEPLOYMENTS[kind]
        single = make_sink()
        shard_sinks = [make_sink() for _ in range(shards)]
        for index, tampered, shard in stream:
            packet = pool[index][tampered]
            single.receive(packet, CHAIN_DELIVERING)
            shard_sinks[shard % shards].receive(packet, CHAIN_DELIVERING)
        for accused, shard in delivered_claims:
            single.receive_accusation(accused)
            shard_sinks[shard % shards].receive_accusation(accused)

        summaries = {}
        for shard_id, sink in enumerate(shard_sinks):
            payload = encode_summary(sink.evidence())
            summaries[shard_id] = decode_summary(payload)
            assert summaries[shard_id] == sink.evidence()
            assert encode_summary(summaries[shard_id]) == payload

        coordinator = ClusterCoordinator(CHAIN)
        merged = coordinator.merge(summaries)
        assert merged == single.evidence()
        assert verdict_json(coordinator.verdict(merged)) == verdict_json(
            single.verdict()
        )
        attribution = DropAttribution(
            suspicious_drops={node: 1 for node in sorted(suspicious)}
        )
        moles = frozenset({mole})
        assert report_json(
            accusation_report(merged, CHAIN, attribution, moles)
        ) == report_json(
            accusation_report(single.evidence(), CHAIN, attribution, moles)
        )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 1: merge_evidence keeps the busiest shard's "
        "delivering_node (smallest shard ID on ties) while one sink keeps "
        "its last, so a verdict that falls back to the delivering node "
        "differs once deliveries arrive through more than one neighbour"
    ),
)
def test_markless_split_by_deliverer_merges_to_the_single_sink():
    topology, keystore, batches, _sources = build_cluster_workload(
        6, 12, sources=2, batch_size=1
    )
    make_sink = make_sink_factory(topology, keystore)
    single = make_sink()
    # Shard 0 takes node 6's deliveries, shard 1 takes node 1's.
    shard_sinks = {0: make_sink(), 1: make_sink()}
    for packets, delivering in batches:
        for packet in packets:
            markless = MarkedPacket(report=packet.report)
            single.receive(markless, delivering)
            shard_sinks[0 if delivering == 6 else 1].receive(markless, delivering)
    assert {delivering for _, delivering in batches} == {1, 6}

    coordinator = ClusterCoordinator(topology)
    merged = coordinator.merge(
        {shard_id: sink.evidence() for shard_id, sink in shard_sinks.items()}
    )
    assert verdict_json(coordinator.verdict(merged)) == verdict_json(
        single.verdict()
    )
