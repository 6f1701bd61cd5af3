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
"""

import asyncio

import pytest

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
from repro.faults.attribution import DropAttribution, build_accusation_report
from repro.faults.schedule import FaultSchedule
from repro.marking.pnm import PNMMarking
from repro.packets.marks import Mark
from repro.traceback.sink import TracebackSink

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
    tamper = sink.tampered_packets > 0
    return report_json(
        build_accusation_report(
            verdict=sink.verdict() if tamper else None,
            tampered_packets=sink.tampered_packets,
            topology=topology,
            attribution=DropAttribution(),
            moles=frozenset(),
        )
    )


def cluster_report(result, topology) -> str:
    coordinator = ClusterCoordinator(topology)
    return report_json(
        coordinator.accusation(result.evidence, DropAttribution())
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
        coordinator = ClusterCoordinator(topology)
        accusation = coordinator.accusation(
            result.evidence, DropAttribution()
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
