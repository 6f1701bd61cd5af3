"""Paper-metric SLOs derived from a federated telemetry registry.

The paper's headline numbers are end-to-end quantities -- packets until
the mole is convicted (Sec. 6), how fast a watchdog accusation reaches
sink-side fusion, whether the ingest tier is keeping up -- and in the
sharded deployment no single process can compute them: the conviction
comes from the coordinator's merged verdict, the queue depths from each
shard's registry, the reroute pressure from the router.  This module is
the join point: it reads a federated registry
(:func:`~repro.obs.telemetry.federation.federate_snapshots`) plus the
coordinator-side inputs and derives one JSON-ready
:class:`ClusterSlo` -- the payload behind ``pnm-cluster status`` and the
``slo`` block sweep manifests carry.

Everything here is a pure function of its inputs: no clocks, no I/O, no
mutation of the registry it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry.federation import SHARD_LABEL

__all__ = ["ShardSlo", "ClusterSlo", "compute_cluster_slo", "format_status"]


@dataclass(frozen=True)
class ShardSlo:
    """One shard's health, read off the federated registry.

    Attributes:
        shard_id: the shard's label value in the federated registry.
        packets_ingested: packets the shard's sink has merged.
        queue_depth: the ingest queue's current depth gauge.
        batches_ok: BATCH frames the shard acknowledged.
        batches_shed: batches refused whole under backpressure.
        batches_wrong_shard: batches refused for stale routing.
        backpressure_rate: ``shed / (ok + shed + wrong_shard)`` -- the
            fraction of ingest attempts the queue turned away (0.0 when
            the shard saw no batches).
        bytes_rx: wire bytes received, all frame types.
    """

    shard_id: str
    packets_ingested: int = 0
    queue_depth: int = 0
    batches_ok: int = 0
    batches_shed: int = 0
    batches_wrong_shard: int = 0
    backpressure_rate: float = 0.0
    bytes_rx: int = 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (keys sorted by the JSON writer)."""
        return {
            "shard_id": self.shard_id,
            "packets_ingested": self.packets_ingested,
            "queue_depth": self.queue_depth,
            "batches_ok": self.batches_ok,
            "batches_shed": self.batches_shed,
            "batches_wrong_shard": self.batches_wrong_shard,
            "backpressure_rate": self.backpressure_rate,
            "bytes_rx": self.bytes_rx,
        }


@dataclass(frozen=True)
class ClusterSlo:
    """Cluster-wide paper-metric SLOs.

    Attributes:
        shards: per-shard health, ascending shard id.
        packets_to_conviction: the merged verdict's ``packets_used`` when
            it identified a suspect, else ``None`` (the paper's Sec. 6
            packets-until-conviction number).
        accusation_fusion_latency: delivered packets between the first
            watchdog accusation reaching the sink and fused detection,
            when the watchdog layer ran (else ``None``).
        wrong_shard_reroutes: router-side WRONG_SHARD re-splits.
        backpressure_retries: router-side backpressure retries.
        failovers: shards the router declared dead.
        reroute_rate: ``wrong_shard_reroutes / batches_routed`` (0.0
            when nothing was routed).
    """

    shards: tuple[ShardSlo, ...] = ()
    packets_to_conviction: int | None = None
    accusation_fusion_latency: float | None = None
    wrong_shard_reroutes: int = 0
    backpressure_retries: int = 0
    failovers: int = 0
    reroute_rate: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form, shards ascending."""
        payload: dict[str, Any] = {
            "shards": [shard.as_dict() for shard in self.shards],
            "packets_to_conviction": self.packets_to_conviction,
            "accusation_fusion_latency": self.accusation_fusion_latency,
            "wrong_shard_reroutes": self.wrong_shard_reroutes,
            "backpressure_retries": self.backpressure_retries,
            "failovers": self.failovers,
            "reroute_rate": self.reroute_rate,
        }
        if self.extra:
            payload["extra"] = dict(sorted(self.extra.items()))
        return payload


def _by_shard(
    registry: MetricsRegistry, name: str
) -> dict[str, float]:
    """Sum one federated metric's series per shard (first label value)."""
    instrument = registry.get(name)
    if instrument is None or not instrument.label_names:
        return {}
    if instrument.label_names[0] != SHARD_LABEL:
        return {}
    totals: dict[str, float] = {}
    series = (
        instrument.series()
        if instrument.kind != "histogram"
        else [
            (values, data.total) for values, data in instrument.series()
        ]
    )
    for values, value in series:
        shard = values[0]
        totals[shard] = totals.get(shard, 0.0) + float(value)
    return totals


def _shard_ids(registry: MetricsRegistry) -> list[str]:
    """Every shard label value appearing anywhere in the registry."""
    shards: set[str] = set()
    for instrument in registry.instruments():
        if not instrument.label_names:
            continue
        if instrument.label_names[0] != SHARD_LABEL:
            continue
        for values, _ in instrument.series():
            shards.add(values[0])
    return sorted(shards)


def compute_cluster_slo(
    federated: MetricsRegistry,
    verdict: Any | None = None,
    router_stats: dict[str, int] | None = None,
    accusation_fusion_latency: float | None = None,
    extra: dict[str, Any] | None = None,
) -> ClusterSlo:
    """Derive the cluster SLOs from a federated registry.

    Args:
        federated: output of
            :func:`~repro.obs.telemetry.federation.federate_snapshots`.
        verdict: the coordinator's merged verdict (anything exposing
            ``identified`` and ``packets_used``, e.g. a
            :class:`~repro.wire.messages.WireVerdict`).
        router_stats: :meth:`~repro.cluster.router.ShardRouter.stats`
            output -- the client-side counters no shard registry holds.
        accusation_fusion_latency: delivered packets between first
            accusation and fused detection, from the watchdog probe.
        extra: free-form extra SLO entries carried through verbatim.
    """
    ingested = _by_shard(federated, "sink_packets_ingested_total")
    depth = _by_shard(federated, "ingest_queue_depth")
    shed = _by_shard(federated, "wire_server_batches_shed")
    wrong = _by_shard(federated, "wire_server_batches_wrong_shard")
    bytes_rx = _by_shard(federated, "wire_bytes_rx_total")
    verdicts_tx = _by_shard(federated, "wire_frames_tx_total")

    # Acknowledged batches = VERDICT frames the shard sent.  The summed
    # tx counter includes SUMMARY/ERROR/PING replies too, so count only
    # the VERDICT series when the frame label is present.
    frames_tx = federated.get("wire_frames_tx_total")
    batches_ok: dict[str, float] = {}
    if frames_tx is not None and "frame" in frames_tx.label_names:
        frame_at = frames_tx.label_names.index("frame")
        for values, value in frames_tx.series():
            if values[frame_at] == "VERDICT":
                shard = values[0]
                batches_ok[shard] = batches_ok.get(shard, 0.0) + float(value)
    else:
        batches_ok = verdicts_tx

    shards = []
    for shard_id in _shard_ids(federated):
        ok = int(batches_ok.get(shard_id, 0))
        refused = int(shed.get(shard_id, 0))
        stale = int(wrong.get(shard_id, 0))
        attempts = ok + refused + stale
        shards.append(
            ShardSlo(
                shard_id=shard_id,
                packets_ingested=int(ingested.get(shard_id, 0)),
                queue_depth=int(depth.get(shard_id, 0)),
                batches_ok=ok,
                batches_shed=refused,
                batches_wrong_shard=stale,
                backpressure_rate=(refused / attempts) if attempts else 0.0,
                bytes_rx=int(bytes_rx.get(shard_id, 0)),
            )
        )

    stats = router_stats or {}
    routed = int(stats.get("batches_routed", 0))
    reroutes = int(stats.get("wrong_shard_reroutes", 0))
    packets_to_conviction = None
    if verdict is not None and getattr(verdict, "identified", False):
        packets_to_conviction = int(verdict.packets_used)
    return ClusterSlo(
        shards=tuple(shards),
        packets_to_conviction=packets_to_conviction,
        accusation_fusion_latency=accusation_fusion_latency,
        wrong_shard_reroutes=reroutes,
        backpressure_retries=int(stats.get("backpressure_retries", 0)),
        failovers=int(stats.get("failovers", 0)),
        reroute_rate=(reroutes / routed) if routed else 0.0,
        extra=dict(extra or {}),
    )


def format_status(slo: ClusterSlo) -> str:
    """Render a :class:`ClusterSlo` as the ``pnm-cluster status`` text."""
    lines = ["cluster status"]
    conviction = (
        str(slo.packets_to_conviction)
        if slo.packets_to_conviction is not None
        else "-"
    )
    latency = (
        f"{slo.accusation_fusion_latency:g}"
        if slo.accusation_fusion_latency is not None
        else "-"
    )
    lines.append(f"  packets_to_conviction: {conviction}")
    lines.append(f"  accusation_fusion_latency: {latency}")
    lines.append(
        f"  routing: routed_reroute_rate={slo.reroute_rate:.3f} "
        f"wrong_shard={slo.wrong_shard_reroutes} "
        f"backpressure_retries={slo.backpressure_retries} "
        f"failovers={slo.failovers}"
    )
    if not slo.shards:
        lines.append("  shards: none reporting")
        return "\n".join(lines)
    header = (
        f"  {'shard':>6} {'ingested':>9} {'queue':>6} {'ok':>6} "
        f"{'shed':>5} {'stale':>6} {'bp_rate':>8} {'bytes_rx':>9}"
    )
    lines.append(header)
    for shard in slo.shards:
        lines.append(
            f"  {shard.shard_id:>6} {shard.packets_ingested:>9} "
            f"{shard.queue_depth:>6} {shard.batches_ok:>6} "
            f"{shard.batches_shed:>5} {shard.batches_wrong_shard:>6} "
            f"{shard.backpressure_rate:>8.3f} {shard.bytes_rx:>9}"
        )
    return "\n".join(lines)
