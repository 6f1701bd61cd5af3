"""Cluster-wide tracing and telemetry: one trace id, observation only.

The acceptance contract for `repro.obs.telemetry`:

* a trace id set at injection is the *only* trace id seen at wire rx,
  shard verify, and the cluster verdict -- including across a
  WRONG_SHARD reroute and a shard kill-and-replace (the journal replays
  inside the original trace);
* telemetry is a pure read path: verdicts and evidence are byte-identical
  with and without per-shard telemetry attached, churn included;
* the TELEMETRY frame serves a live registry snapshot that federates,
  and v1 (context-free) frames keep working on the same connection.
"""

import asyncio

import pytest

from repro.cluster.coordinator import ClusterCoordinator, verdict_json
from repro.cluster.harness import LocalCluster, run_cluster
from repro.cluster.ring import ShardRing, region_shard_key
from repro.cluster.router import ShardRouter
from repro.crypto.mac import KeyedHashProvider
from repro.experiments.cluster_sweep import (
    build_cluster_workload,
    make_sink_factory,
)
from repro.faults.schedule import FaultSchedule
from repro.marking.pnm import PNMMarking
from repro.obs.profiling import ObsProvider
from repro.obs.spans import Tracer
from repro.obs.telemetry import SHARD_LABEL, compute_cluster_slo, federate_snapshots
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink
from repro.wire.client import SinkClient
from repro.wire.server import SinkServer

GRID_SIDE = 10
PACKETS = 16
SOURCES = 4
FMT = PNMMarking(mark_prob=1.0).fmt
REGION_KEY = region_shard_key(cell_size=1.0)

#: The spans a report's keyed chain produces on its way to a verdict.
CHAIN_SPANS = {"wire_rx", "queue", "verify", "verdict"}


@pytest.fixture(scope="module")
def workload():
    return build_cluster_workload(GRID_SIDE, PACKETS, sources=SOURCES)


def all_packets(workload):
    _topology, _keystore, batches, _sources = workload
    return [packet for chunk, _ in batches for packet in chunk]


def make_sink(workload) -> TracebackSink:
    topology, keystore, _batches, _sources = workload
    return TracebackSink(
        PNMMarking(mark_prob=1.0), keystore, KeyedHashProvider(), topology
    )


def key_owned_by(ring: ShardRing, shard_id: int) -> bytes:
    for i in range(10_000):
        key = f"probe-{i}".encode()
        if ring.shard_for(key) == shard_id:
            return key
    raise AssertionError(f"no probe key lands on shard {shard_id}")


def chain_trace_ids(tracer: Tracer) -> set[str]:
    """Trace ids of every report-chain span the tracer recorded."""
    return {
        span.trace_id
        for span in tracer.finished
        if span.name in CHAIN_SPANS
    }


class TestTraceContinuity:
    def test_one_trace_id_through_kill_and_replace_to_verdict(self, workload):
        """DES injection -> wire rx -> verify -> merged verdict, one id.

        Half the schedule runs, the busiest shard is killed (failover +
        journal replay), the rest runs, the shard is replaced, and the
        full schedule is resent so the replacement serves traced traffic
        on its restored key range.  Every report-chain span on every
        shard generation, the router's failover span, and the
        coordinator's merge/verdict spans must carry the injection-time
        trace id -- and no other.
        """
        topology, keystore, batches, _sources = workload
        gateway = Tracer(id_prefix="gw-")
        router_tracer = Tracer(id_prefix="rt-")
        coordinator_tracer = Tracer(id_prefix="co-")
        shard_providers: dict[int, list[ObsProvider]] = {}

        def obs_factory(shard_id: int) -> ObsProvider:
            generation = len(shard_providers.setdefault(shard_id, []))
            provider = ObsProvider(
                tracer=Tracer(id_prefix=f"sh{shard_id}g{generation}-")
            )
            shard_providers[shard_id].append(provider)
            return provider

        async def scenario():
            coordinator = ClusterCoordinator(
                topology, obs=ObsProvider(tracer=coordinator_tracer)
            )
            cluster = LocalCluster(
                make_sink_factory(topology, keystore),
                FMT,
                shard_ids=[0, 1],
                shard_key=REGION_KEY,
                obs=ObsProvider(tracer=router_tracer),
                shard_obs_factory=obs_factory,
            )
            async with cluster:
                root = gateway.start("des_inject")
                half = len(batches) // 2
                for chunk, delivering in batches[:half]:
                    await cluster.send(chunk, delivering, trace=root.context)
                victim = max(
                    cluster.journal, key=lambda sid: len(cluster.journal[sid])
                )
                await cluster.crash_shard(victim)
                for chunk, delivering in batches[half:]:
                    await cluster.send(chunk, delivering, trace=root.context)
                await cluster.recover_shard(victim)
                # The replacement must serve traced traffic too: resend
                # the schedule so the victim's restored keys hit it.
                for chunk, delivering in batches:
                    await cluster.send(chunk, delivering, trace=root.context)
                summaries = await cluster.collect()
                stats = cluster.stats()
            evidence = coordinator.merge(summaries, trace=root.context)
            coordinator.verdict(evidence, trace=root.context)
            gateway.finish(root)
            return victim, stats, root.trace_id

        victim, stats, trace_id = asyncio.run(scenario())

        # The churn actually happened.
        assert stats["shards_lost"] == 1
        assert stats["shards_recovered"] == 1
        assert stats["router"]["failovers"] == 1

        # The failover detour is a child span of the injection trace.
        failovers = [
            span for span in router_tracer.finished if span.name == "shard_failover"
        ]
        assert failovers
        assert {span.trace_id for span in failovers} == {trace_id}

        # The coordinator closed the same trace.
        merge_spans = {
            span.name: span.trace_id
            for span in coordinator_tracer.finished
            if span.name in ("cluster_merge", "cluster_verdict")
        }
        assert set(merge_spans) == {"cluster_merge", "cluster_verdict"}
        assert set(merge_spans.values()) == {trace_id}

        # Every shard generation -- survivors, the dead generation, and
        # the post-recovery replacement -- chained inside that trace.
        assert len(shard_providers[victim]) == 2
        seen = set()
        for shard_id in sorted(shard_providers):
            for provider in shard_providers[shard_id]:
                ids = chain_trace_ids(provider.tracer)
                seen |= ids
        assert seen == {trace_id}
        replacement = shard_providers[victim][1]
        assert "wire_rx" in {s.name for s in replacement.tracer.finished}

    def test_wrong_shard_reroute_stays_in_the_callers_trace(self, workload):
        """A WRONG_SHARD detour is a child span, not a new trace.

        Same membership-change simulation as the router tests: shard 0
        rejects the whole batch and the shared key view flips, so the
        re-split lands everything on shard 1.  The reroute span and
        shard 1's whole report chain must carry the caller's trace id.
        """
        packets = all_packets(workload)
        ring = ShardRing([0, 1])
        old_key = key_owned_by(ring, 0)
        new_key = key_owned_by(ring, 1)
        view = {"stale": True}

        def shifting_key(packet):
            return old_key if view["stale"] else new_key

        def owns_0(packet):
            view["stale"] = False
            return False

        gateway = Tracer(id_prefix="gw-")
        router_tracer = Tracer(id_prefix="rt-")
        shard1 = ObsProvider(tracer=Tracer(id_prefix="sh1-"))

        async def scenario():
            sink0, sink1 = make_sink(workload), make_sink(workload)
            sink1.obs = shard1
            with SinkIngestService(sink0, capacity=64) as service0:
                with SinkIngestService(
                    sink1, capacity=64, obs=shard1
                ) as service1:
                    async with SinkServer(service0, FMT, owns=owns_0) as s0:
                        async with SinkServer(
                            service1, FMT, owns=lambda p: True
                        ) as s1:
                            c0 = SinkClient("127.0.0.1", s0.port)
                            c1 = SinkClient("127.0.0.1", s1.port)
                            await c0.connect()
                            await c1.connect()
                            router = ShardRouter(
                                ring,
                                {0: c0, 1: c1},
                                shifting_key,
                                FMT,
                                obs=ObsProvider(tracer=router_tracer),
                            )
                            root = gateway.start("des_inject")
                            try:
                                await router.send_batch(
                                    packets, 1, trace=root.context
                                )
                            finally:
                                gateway.finish(root)
                                await c0.close()
                                await c1.close()
                            await s1.wait_idle()
                    service0.flush()
                    service1.flush()
                    return router.stats(), root.trace_id

        stats, trace_id = asyncio.run(scenario())
        assert stats["wrong_shard_reroutes"] == 1

        reroutes = [
            span
            for span in router_tracer.finished
            if span.name == "wrong_shard_reroute"
        ]
        assert len(reroutes) == 1
        assert reroutes[0].trace_id == trace_id
        # The rerouted batch's whole chain on the new owner joins the
        # caller's trace -- one id, every stage.
        assert chain_trace_ids(shard1.tracer) == {trace_id}
        names = {span.name for span in shard1.tracer.finished}
        assert CHAIN_SPANS <= names


class TestTelemetryIsObservationOnly:
    def test_verdict_bytes_identical_with_telemetry_under_churn(self, workload):
        topology, keystore, batches, _sources = workload
        victim = ShardRing(range(4)).shard_for(REGION_KEY(batches[0][0][0]))
        mid = len(batches) // 2

        def churn() -> FaultSchedule:
            return (
                FaultSchedule()
                .crash(float(mid), node=victim)
                .recover(float(mid + 4), node=victim)
            )

        baseline = run_cluster(
            make_sink_factory(topology, keystore),
            FMT,
            topology,
            batches,
            shard_ids=range(4),
            shard_key=REGION_KEY,
            churn=churn(),
        )
        observed = run_cluster(
            make_sink_factory(topology, keystore),
            FMT,
            topology,
            batches,
            shard_ids=range(4),
            shard_key=REGION_KEY,
            churn=churn(),
            shard_obs_factory=lambda sid: ObsProvider(
                tracer=Tracer(id_prefix=f"sh{sid}-")
            ),
        )

        assert verdict_json(observed.verdict) == verdict_json(baseline.verdict)
        assert observed.evidence == baseline.evidence
        assert observed.stats["shards_lost"] == 1

        # The federated view covers every live shard, and the SLO layer
        # agrees with the merged evidence on total ingested packets.
        federated = federate_snapshots(observed.telemetry)
        labels = {
            series["labels"][0]
            for entry in federated.snapshot()["metrics"]
            if entry["label_names"][0] == SHARD_LABEL
            for series in entry["series"]
        }
        assert labels == {str(s) for s in range(4)}
        slo = compute_cluster_slo(
            federated,
            verdict=observed.verdict,
            router_stats=observed.stats["router"],
        )
        assert (
            sum(s.packets_ingested for s in slo.shards)
            == observed.evidence.packets_received
        )


class TestTelemetryFrame:
    def test_fetch_telemetry_serves_the_live_registry(self, workload):
        """TELEMETRY round trip, with v1 and v2 frames interleaved.

        One traced batch and one context-free batch share a connection:
        both must be acked (v1 keeps decoding next to v2), the traced
        batch's chain joins the caller's trace while the v1 batch starts
        its own, and the polled snapshot federates under the shard label
        with the ingest counters the two batches produced.
        """
        topology, keystore, batches, _sources = workload
        provider = ObsProvider(tracer=Tracer(id_prefix="sh0-"))
        gateway = Tracer(id_prefix="gw-")

        async def scenario():
            sink = make_sink(workload)
            sink.obs = provider
            with SinkIngestService(sink, capacity=64, obs=provider) as service:
                async with SinkServer(service, FMT) as server:
                    client = SinkClient("127.0.0.1", server.port)
                    await client.connect()
                    root = gateway.start("des_inject")
                    traced_chunk, delivering = batches[0]
                    await client.send_batch(
                        traced_chunk, delivering, FMT, trace=root.context
                    )
                    plain_chunk, plain_delivering = batches[1]
                    await client.send_batch(
                        plain_chunk, plain_delivering, FMT
                    )
                    gateway.finish(root)
                    snapshot = await client.fetch_telemetry()
                    await client.close()
                service.flush()
                return snapshot, root.trace_id, len(traced_chunk), len(plain_chunk)

        snapshot, trace_id, traced_count, plain_count = asyncio.run(scenario())

        names = {entry["name"] for entry in snapshot["metrics"]}
        assert "sink_packets_ingested_total" in names
        assert "wire_frames_rx_total" in names

        federated = federate_snapshots({0: snapshot})
        counter = federated.get("sink_packets_ingested_total")
        assert counter.get(shard="0") == traced_count + plain_count

        # The traced batch joined the caller's trace; the context-free
        # batch chained into its own fresh trace.
        rx_spans = [s for s in provider.tracer.finished if s.name == "wire_rx"]
        in_trace = [s for s in rx_spans if s.trace_id == trace_id]
        assert len(rx_spans) == traced_count + plain_count
        assert len(in_trace) == traced_count

    def test_fetch_telemetry_without_observability_is_empty(self, workload):
        async def scenario():
            sink = make_sink(workload)
            with SinkIngestService(sink, capacity=64) as service:
                async with SinkServer(service, FMT) as server:
                    client = SinkClient("127.0.0.1", server.port)
                    await client.connect()
                    snapshot = await client.fetch_telemetry()
                    await client.close()
                return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot == {"metrics": []}
