"""The ``cluster-stream`` workload: a sharded sink fed over loopback TCP.

A 32 x 32 grid (1,023 sensor keys) with 12 source regions, PNM at
p = 1 (about 30 marks per packet).  ``build_cluster_workload`` pre-marks
1,200 packets into 100 mixed batches (one packet from every region per
batch) before anything is timed; path marking is therefore bypassed.
The batches go through a 2-shard ``LocalCluster`` with region sharding
and default ``SinkIngestService`` settings.  One router client keeps one
batch in flight and waits for its VERDICT; the stream sends the 100
batches in whole cycles until the time budget is spent.  Throughput is
a median over the cycles, p50/p90 latency are quantiles of each batch's
median over the cycles, and p99 is taken over every batch of the run.

The merged verdict is checked against one in-process ``TracebackSink``
fed the same stream.  That reference verifies each distinct packet once,
through a different resolver (``TopologyBoundedResolver``) than the
shards' hot-set, and ingests the verifications in the order the stream
sent them -- verification is a pure function of the packet, so this is
the single sink's state without paying for verification on every cycle.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from dataclasses import dataclass

from calibration import SpeedProbe
from ledger import Ledger, VerdictStats, layer_metrics, trace_tamper_localizer
from repro.cluster.coordinator import ClusterCoordinator, verdict_json
from repro.cluster.harness import Batch, LocalCluster
from repro.cluster.ring import region_shard_key
from repro.crypto.keys import KeyStore
from repro.crypto.mac import HmacProvider
from repro.experiments.cluster_sweep import build_cluster_workload
from repro.marking.pnm import PNMMarking
from repro.net.topology import Topology, grid_topology
from repro.obs.profiling import ObsProvider
from repro.traceback.resolver import TopologyBoundedResolver
from repro.traceback.sink import TracebackSink
from repro.traceback.verify import PacketVerification
from repro.wire.errors import WireError

GRID_SIDE = 32
SOURCES = 12
STREAM_PACKETS = 1200
SHARDS = 2
CELL_SIZE = 1.0
#: Spare cluster bring-ups before each cycle (``setup_s`` is their
#: median) and batches between machine-speed samples.
SETUPS_PER_CYCLE = 3
PROBE_EVERY = 5


@dataclass
class Inputs:
    """The pre-marked stream and its per-packet reference verifications."""

    secret: bytes
    topology: Topology
    keystore: KeyStore
    batches: list[Batch]
    verifications: list[list[PacketVerification]]


def make_inputs(seed: int) -> Inputs:
    """Generate the stream from the workload seed (it picks every key)."""
    secret = f"perfbench:cluster-stream:{seed}".encode()
    topology, keystore, batches, _sources = build_cluster_workload(
        GRID_SIDE,
        STREAM_PACKETS,
        sources=SOURCES,
        master_secret=secret,
        mixed_batches=True,
    )
    reference = TracebackSink(
        PNMMarking(mark_prob=1.0),
        keystore,
        HmacProvider(),
        topology,
        resolver=TopologyBoundedResolver(topology),
    )
    verifications = [
        [reference.verifier.verify(packet) for packet in packets]
        for packets, _node in batches
    ]
    return Inputs(secret, topology, keystore, batches, verifications)


def reference_verdict(inputs: Inputs, order: list[int]) -> str:
    """Canonical verdict of one sink fed batches ``order`` of the stream."""
    sink = TracebackSink(
        PNMMarking(mark_prob=1.0), inputs.keystore, HmacProvider(), inputs.topology
    )
    for index in order:
        delivering_node = inputs.batches[index][1]
        for verification in inputs.verifications[index]:
            sink.ingest(verification, delivering_node)
    return verdict_json(sink.verdict())


async def _start_cluster(
    secret: bytes, provider: HmacProvider, traced: bool
) -> tuple[LocalCluster, Topology, float]:
    """Bring up the sink side from nothing; returns its set-up seconds."""
    start = time.perf_counter()
    topology = grid_topology(GRID_SIDE, GRID_SIDE)
    keystore = KeyStore.from_master_secret(secret, topology.sensor_nodes())
    scheme = PNMMarking(mark_prob=1.0)

    def sink_factory() -> TracebackSink:
        return TracebackSink(scheme, keystore, provider, topology)

    cluster = LocalCluster(
        sink_factory,
        scheme.fmt,
        range(SHARDS),
        shard_key=region_shard_key(cell_size=CELL_SIZE),
        shard_obs_factory=(lambda _sid: ObsProvider()) if traced else None,
    )
    await cluster.start()
    return cluster, topology, time.perf_counter() - start


def _trace_cluster(
    ledger: Ledger, verdicts: VerdictStats, cluster: LocalCluster, provider: HmacProvider
) -> None:
    ledger.wrap(cluster.router, "split", "cluster.split")
    for shard_id in sorted(cluster.handles):
        handle = cluster.handles[shard_id]
        service = handle.service
        ledger.wrap_async(handle.client, "send_batch", "wire.client")
        ledger.wrap(service, "submit_batch", "service.submit")
        ledger.wrap(service, "process_batch", "service.process")
        ledger.wrap(service.verifier, "verify", "traceback.verify")
        ledger.wrap(service.sink, "ingest", "traceback.ingest")
        ledger.wrap(service.sink, "verdict", "traceback.verdict", verdicts.observer())
        ledger.wrap(service.sink.precedence, "analyze", "traceback.analyze")
    ledger.count_hmacs(provider)
    trace_tamper_localizer(ledger)


async def _phase(
    inputs: Inputs, seconds: float | None, cycles: int | None, ledger: Ledger | None
) -> dict:
    """Stream whole cycles for ``seconds`` (or exactly ``cycles``), then
    collect and check.

    A cycle sends the 100 batches once.  The untraced phase also times
    spare cluster bring-ups before each cycle and takes machine-speed
    samples around them and after every ``PROBE_EVERY`` batches; each
    bring-up and batch is scaled by the samples either side of it.  The
    traced phase is not scaled.  Samples and spare bring-ups count toward
    no wall time.
    """
    provider = HmacProvider()
    probe = SpeedProbe()
    cluster, topology, _setup_s = await _start_cluster(
        inputs.secret, provider, ledger is not None
    )
    setups: list[tuple[float, float]] = []  # (raw, scaled)
    verdicts = None
    problems: list[str] = []
    try:
        if ledger is not None:
            verdicts = VerdictStats(ledger)
            _trace_cluster(ledger, verdicts, cluster, provider)
        order: list[int] = []
        # Per cycle: wall seconds, raw and scaled batch latencies.
        cycle_stats: list[tuple[float, list[float], list[float]]] = []
        stream = inputs.batches
        deadline = time.perf_counter() + (seconds or 0.0)
        while (
            len(cycle_stats) < cycles if cycles is not None
            else not cycle_stats or time.perf_counter() < deadline
        ):
            if ledger is None:
                before = probe.sample()
                spares = []
                for _ in range(SETUPS_PER_CYCLE):
                    spare, _topology, setup_s = await _start_cluster(
                        inputs.secret, provider, False
                    )
                    spares.append(setup_s)
                    await spare.close()
                gc.collect()
                after = probe.sample()
                setups += [(raw, raw * probe.speed(before, after)) for raw in spares]
                before = after
            latencies: list[float] = []
            scaled: list[float] = []
            probe_s = probe.seconds
            start = time.perf_counter()
            for index, (packets, delivering_node) in enumerate(stream):
                sent = time.perf_counter()
                try:
                    replies = await cluster.send(packets, delivering_node)
                except WireError as exc:
                    problems.append(f"batch {len(order)}: {type(exc).__name__}: {exc}")
                    replies = []
                latencies.append(time.perf_counter() - sent)
                order.append(index)
                acked = sum(len(reply.packets) for reply in replies)
                if replies and acked != len(packets):
                    problems.append(f"batch {len(order)}: {acked}/{len(packets)} acked")
                if ledger is None and (
                    (index + 1) % PROBE_EVERY == 0 or index + 1 == len(stream)
                ):
                    after = probe.sample()
                    speed = probe.speed(before, after)
                    scaled += [lat * speed for lat in latencies[len(scaled):]]
                    before = after
            cycle_s = time.perf_counter() - start - (probe.seconds - probe_s)
            cycle_stats.append((cycle_s, latencies, scaled or latencies))
        wall_s = sum(cycle_s for cycle_s, _raw, _scaled in cycle_stats)
        if ledger is not None:
            ledger.paused = True

        coordinator = ClusterCoordinator(topology)
        collect_start = time.perf_counter()
        summaries = await cluster.collect()
        collect_s = time.perf_counter() - collect_start
        merge_start = time.perf_counter()
        merged = coordinator.merge(summaries)
        merge_s = time.perf_counter() - merge_start
        if verdict_json(coordinator.verdict(merged)) != reference_verdict(inputs, order):
            problems.append("merged verdict differs from the single-sink reference")

        handles = [cluster.handles[sid] for sid in sorted(cluster.handles)]
        rejected = sum(h.server.batches_rejected for h in handles)
        shed = sum(h.service.stats().dropped for h in handles)
        if rejected:
            problems.append(f"{rejected} sub-batches answered with ERROR")
        if shed:
            problems.append(f"{shed} packets shed by ingest queues")
        processed = [h.service.processed for h in handles]
        caches = [h.service.cache.stats() for h in handles if h.service.cache]
        registries = [h.service.obs.registry for h in handles if ledger is not None]
    finally:
        if ledger is not None:
            ledger.restore()
            ledger.paused = False
        await cluster.close()

    hot_searches = sum(c["hot_searches"] for c in caches)
    table_lookups = sum(c["table_hits"] + c["table_misses"] for c in caches)
    return {
        "setups": setups,
        "probe": probe,
        "cycles": cycle_stats,
        "order": order,
        "packets": sum(len(stream[i][0]) for i in order),
        "wall_s": wall_s,
        "problems": problems,
        "verdicts": verdicts,
        "registries": registries,
        "figures": {
            "service.hot_hit_share": (
                1.0 - sum(c["hot_misses"] for c in caches) / hot_searches
                if hot_searches
                else 0.0
            ),
            "service.table_hit_share": (
                sum(c["table_hits"] for c in caches) / table_lookups
                if table_lookups
                else 0.0
            ),
            "cluster.collect_s": collect_s,
            "cluster.merge_s": merge_s,
            "cluster.shard_skew": max(processed) / statistics.mean(processed),
        },
    }


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``cluster-stream``; see ``run.py`` for the result shape."""
    inputs = make_inputs(seed)
    plain = asyncio.run(_phase(inputs, seconds / 2 if trace else seconds, None, None))
    problems = list(plain["problems"])
    attempted = len(plain["order"]) + 1
    cycles = plain["cycles"]
    cycle_packets = sum(len(packets) for packets, _node in inputs.batches)

    def figures(scaled: bool) -> dict[str, float]:
        # Throughput is a median over cycles, and p50/p90 are quantiles
        # of each batch's median latency over the cycles (every cycle
        # sends the same 100 batches in the same order), so a cycle or a
        # batch the host slowed down moves them not at all.  p99 pools
        # every batch of the run, as measured (see ``calibration``): a
        # 30-second run sends about 1,000 batches, so it rests on about
        # ten batches beyond it, where one cycle has one.
        lats = [cycle[2 if scaled else 1] for cycle in cycles]
        batch_times = [statistics.median(batch) for batch in zip(*lats)]

        return {
            "packets_per_s": statistics.median(cycle_packets / sum(lat) for lat in lats),
            "batch_ms_p50": _quantile(batch_times, 50) * 1e3,
            "batch_ms_p90": _quantile(batch_times, 90) * 1e3,
            "batch_ms_p99": _quantile([lat for c in cycles for lat in c[1]], 99) * 1e3,
            "setup_s": statistics.median(setup[1 if scaled else 0] for setup in plain["setups"]),
        }

    result: dict = {
        "end_to_end": figures(scaled=True),
        "raw": figures(scaled=False),
        "quality": {},
        "probe": plain["probe"],
        "samples": {
            "cycles of 100 batches (12 packets each)": len(cycles),
            "batches": len(plain["order"]),
            "cluster set-ups": len(plain["setups"]),
        },
    }
    if trace:
        ledger = Ledger()
        traced = asyncio.run(_phase(inputs, None, 1, ledger))
        problems += traced["problems"]
        attempted += len(traced["order"]) + 1
        layer_figures = dict(traced["figures"])
        layer_figures.update(
            packets=traced["packets"],
            batches=len(traced["order"]),
            wall_s=traced["wall_s"],
        )
        layer_figures["trace.overhead"] = (
            traced["packets"] / traced["wall_s"] / result["raw"]["packets_per_s"]
        )
        result["ledger"] = ledger
        result["wall_s"] = traced["wall_s"]
        result["per_layer"] = layer_metrics(
            ledger, traced["verdicts"], traced["registries"], layer_figures
        )
    result["problems"] = problems
    result["attempted"] = attempted
    result["failed"] = len(problems)
    return result
