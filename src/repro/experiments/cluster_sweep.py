"""Cluster scale-out: sharded sink throughput vs a single shard.

The :mod:`repro.service` learned-route resolver, filtered by the marker
hot-set, works only while a shard's *working set* -- the distinct
markers of the routes it serves -- fits its ``hot_capacity``.  One sink serving many source regions interleaved
round-robin thrashes: every packet's route was evicted since its last
visit, so the verifier pays the exhaustive brute-force table (all ``N``
keys, Section 4.2) per packet.  Region-sharding the same stream across a
:class:`~repro.cluster.ShardRing` gives each shard a couple of routes
that *do* fit, so shards stay warm and pay only the bounded search.

That is the honest single-core argument for the cluster: partitioning
the resolver working set, not parallelism.  This sweep drives identical
multi-source streams through 1/2/4-shard loopback clusters and reports
throughput, speedup, and merged-verdict parity (the merged verdict must
be byte-identical across shard counts -- same canonical JSON).
"""

from __future__ import annotations

import time

from repro.cluster.coordinator import verdict_json
from repro.cluster.harness import Batch, ClusterResult, run_cluster
from repro.cluster.ring import region_shard_key
from repro.core.build import deploy
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.obs.profiling import ObsProvider
from repro.obs.spans import Tracer
from repro.obs.telemetry import compute_cluster_slo, federate_snapshots
from repro.marking.pnm import PNMMarking
from repro.net.topology import Topology, grid_topology
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.routing.tree import build_routing_tree
from repro.traceback.sink import TracebackSink

__all__ = ["run", "build_cluster_workload", "make_sink_factory"]

# (grid side, packets, sources) per preset.
_WORKLOADS = {"ci": (12, 64, 4), "quick": (20, 96, 8), "full": (20, 240, 8)}

#: Per-shard hot-set bound used by the sweep: sized so every shard's
#: route union fits (max ~44 nodes on the quick/full grid) but the
#: single sink's 8-route union (~84 nodes) never does -- the working-set
#: premise above.
SWEEP_HOT_CAPACITY = 56


def build_cluster_workload(
    grid_side: int,
    packets: int,
    sources: int = 8,
    batch_size: int = 1,
    master_secret: bytes = b"cluster-sweep",
    mixed_batches: bool = False,
) -> tuple[Topology, KeyStore, list[Batch], list[int]]:
    """A grid deployment plus a multi-region, round-robin batch schedule.

    Picks ``sources`` spread across vertical strips of the grid (in each
    strip, the node farthest from the sink), marks each source's reports
    along its own route, and interleaves the streams round-robin: batch
    ``i`` carries ``batch_size`` packets from source ``i % sources``.
    Every report's location is its source's position, so
    :func:`~repro.cluster.ring.region_shard_key` keeps each route on one
    shard while the interleaving defeats a single sink's hot-set.

    With ``mixed_batches=True`` each batch instead carries one packet
    from *every* live source (one full round-robin round).  The
    per-packet arrival order -- and therefore the hot-set access pattern
    -- is identical; only the framing granularity changes, which is how
    the throughput benchmark keeps wire round-trips from drowning out
    resolver cost.  ``batch_size`` is ignored in this mode.

    Returns:
        ``(topology, keystore, batches, source_nodes)``.
    """
    if sources < 1:
        raise ValueError(f"sources must be >= 1, got {sources}")
    scheme = PNMMarking(mark_prob=1.0)
    topology = grid_topology(grid_side, grid_side)
    dep = deploy(topology, master_secret, "cluster")
    routing = build_routing_tree(topology)

    # One source per vertical strip: the strip's farthest-from-sink node.
    strip_width = grid_side / sources
    best_per_strip: dict[int, int] = {}
    for node in topology.sensor_nodes():
        x, _ = topology.position(node)
        strip = min(int(x / strip_width), sources - 1)
        incumbent = best_per_strip.get(strip)
        if incumbent is None or routing.hop_count(node) > routing.hop_count(
            incumbent
        ):
            best_per_strip[strip] = node
    source_nodes = [best_per_strip[strip] for strip in sorted(best_per_strip)]

    forwarders = {src: routing.forwarders_between(src) for src in source_nodes}
    streams: dict[int, list[MarkedPacket]] = {src: [] for src in source_nodes}
    per_source = -(-packets // len(source_nodes))  # ceil
    for src in source_nodes:
        path = [dep.ctx(node_id) for node_id in forwarders[src]]
        for t in range(per_source):
            packet = MarkedPacket(
                report=Report(
                    event=f"cluster:{src}:{t}".encode(),
                    location=topology.position(src),
                    timestamp=t,
                )
            )
            streams[src].append(scheme.forward_run(path, packet)[0])

    batches: list[Batch] = []
    emitted = 0
    if mixed_batches:
        while emitted < packets:
            chunk: list[MarkedPacket] = []
            for src in source_nodes:
                if streams[src] and emitted + len(chunk) < packets:
                    chunk.append(streams[src].pop(0))
            if not chunk:
                break
            # One delivering node per wire batch; with every mark valid
            # (mark_prob=1) the verdict never consults it.
            batches.append((chunk, forwarders[source_nodes[0]][-1]))
            emitted += len(chunk)
        return topology, dep.keystore, batches, source_nodes
    cursor = 0
    while emitted < packets:
        src = source_nodes[cursor % len(source_nodes)]
        cursor += 1
        stream = streams[src]
        if not stream:
            continue
        take = min(batch_size, len(stream), packets - emitted)
        chunk, streams[src] = stream[:take], stream[take:]
        batches.append((chunk, forwarders[src][-1]))
        emitted += take
    return topology, dep.keystore, batches, source_nodes


def make_sink_factory(topology: Topology, keystore: KeyStore):
    """A factory producing identical fresh sinks (one per shard)."""

    def factory() -> TracebackSink:
        return TracebackSink(
            PNMMarking(mark_prob=1.0), keystore, KeyedHashProvider(), topology
        )

    return factory


def _time_cluster(
    topology: Topology,
    keystore: KeyStore,
    batches: list[Batch],
    shards: int,
    hot_capacity: int,
) -> tuple[float, ClusterResult]:
    start = time.perf_counter()
    result = run_cluster(
        make_sink_factory(topology, keystore),
        PNMMarking(mark_prob=1.0).fmt,
        topology,
        batches,
        shard_ids=range(shards),
        shard_key=region_shard_key(cell_size=1.0),
        service_kwargs={"hot_capacity": hot_capacity, "capacity": 4096},
    )
    return time.perf_counter() - start, result


def run(preset: Preset = QUICK) -> FigureResult:
    """Sweep shard counts over one interleaved multi-region stream."""
    grid_side, packets, sources = _WORKLOADS.get(
        preset.name, _WORKLOADS["quick"]
    )
    topology, keystore, batches, source_nodes = build_cluster_workload(
        grid_side, packets, sources=sources
    )
    total = sum(len(chunk) for chunk, _ in batches)

    rows = []
    baseline_s: float | None = None
    verdicts: list[str] = []
    for shards in (1, 2, 4):
        elapsed, result = _time_cluster(
            topology, keystore, batches, shards, SWEEP_HOT_CAPACITY
        )
        verdicts.append(verdict_json(result.verdict))
        if baseline_s is None:
            baseline_s = elapsed
        rows.append(
            [
                shards,
                total,
                round(elapsed, 4),
                round(total / elapsed, 1),
                round(baseline_s / elapsed, 2),
                result.evidence.fallback_searches,
            ]
        )
    parity = len(set(verdicts)) == 1

    # One more 4-shard pass with per-shard telemetry attached: the
    # federated registry is what ``pnm-cluster status`` reads live, and
    # the derived SLO block rides into the run manifest through
    # ``FigureResult.extra``.  Kept out of the timed loop so attaching
    # registries can never skew the throughput rows.
    observed = run_cluster(
        make_sink_factory(topology, keystore),
        PNMMarking(mark_prob=1.0).fmt,
        topology,
        batches,
        shard_ids=range(4),
        shard_key=region_shard_key(cell_size=1.0),
        service_kwargs={"hot_capacity": SWEEP_HOT_CAPACITY, "capacity": 4096},
        shard_obs_factory=lambda sid: ObsProvider(
            tracer=Tracer(id_prefix=f"sh{sid}-")
        ),
    )
    slo = compute_cluster_slo(
        federate_snapshots(observed.telemetry),
        verdict=observed.verdict,
        router_stats=observed.stats["router"],
    )
    telemetry_parity = verdict_json(observed.verdict) == verdicts[-1]

    notes = [
        f"preset={preset.name}; {grid_side}x{grid_side} grid, "
        f"{len(source_nodes)} source regions interleaved round-robin, "
        f"hot_capacity={SWEEP_HOT_CAPACITY} per shard",
        "speedup = single-shard wall time / N-shard wall time "
        "(single core: the win is working-set fit, not parallelism)",
        f"merged verdicts byte-identical across shard counts: {parity}",
        "slo block (manifest extra) derived from a telemetry-attached "
        f"4-shard rerun; verdict parity with bare run: {telemetry_parity}",
    ]
    return FigureResult(
        figure_id="cluster-sweep",
        title="Sharded sink cluster: ingest throughput vs shard count",
        columns=[
            "shards",
            "packets",
            "seconds",
            "packets_per_s",
            "speedup",
            "fallback_searches",
        ],
        rows=rows,
        notes=notes,
        extra={
            "slo": slo.as_dict(),
            "telemetry_verdict_parity": telemetry_parity,
        },
        checks={"parity": parity, "telemetry_parity": telemetry_parity},
    )
