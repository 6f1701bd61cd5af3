"""repro.obs.telemetry: cross-process observability for the cluster.

Single-process observability (:mod:`repro.obs`) stops at the wire: trace
ids die at the frame boundary and each shard keeps a private
:class:`~repro.obs.registry.MetricsRegistry`.  This package is the
distributed half:

* **federation** -- merge per-shard registry snapshots (shipped over the
  TELEMETRY wire frame) into one shard-labeled registry with the usual
  Prometheus/JSON exporters (:mod:`repro.obs.telemetry.federation`);
* **SLOs** -- derive the paper's headline quantities
  (packets-to-conviction, accusation->fusion latency, per-shard queue
  depth / backpressure / reroute rates) from the federated view
  (:mod:`repro.obs.telemetry.slo`).

Trace-context *propagation* lives in the wire layer itself
(:class:`~repro.wire.frames.WireTraceContext`); this package only ever
reads what the shards emitted -- federation is a pure read path, so
enabling telemetry cannot change a verdict.
"""

from repro.obs.telemetry.federation import (
    SHARD_LABEL,
    federate_snapshots,
)
from repro.obs.telemetry.slo import (
    ClusterSlo,
    ShardSlo,
    compute_cluster_slo,
    format_status,
)

__all__ = [
    "SHARD_LABEL",
    "ClusterSlo",
    "ShardSlo",
    "compute_cluster_slo",
    "federate_snapshots",
    "format_status",
]
