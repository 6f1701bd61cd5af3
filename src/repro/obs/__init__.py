"""repro.obs: unified metrics, tracing and profiling.

The paper's headline claims are quantitative -- marks per packet
``n*p ~= 3`` (Section 5), one-hop precision, sink-side brute-force cost
(Section 6) -- and a production-scale deployment (the ROADMAP north-star)
has to expose those numbers live, not reconstruct them from print
statements.  This package is the single observability surface the rest of
the repo reports into:

* :class:`MetricsRegistry` -- named, labeled instruments
  (:class:`Counter`, :class:`Gauge`, :class:`Histogram`) with
  deterministic Prometheus-text and JSON exporters
  (:mod:`repro.obs.exporters`);
* :class:`Tracer` / :class:`Span` -- explicit-context span tracing, so one
  trace id follows a report from injection through every forwarding hop,
  the ingest queue, verification, and the sink's verdict
  (:mod:`repro.obs.spans`);
* :class:`ObsProvider` -- the profiling facade hot paths call; the
  :data:`NOOP` provider reduces every hook to a no-op so instrumentation
  can ship enabled-by-default at near-zero cost
  (:mod:`repro.obs.profiling`);
* :class:`RunManifest` -- machine-readable provenance (args, seed, git
  revision, wall time, final registry snapshot) written by the
  experiments CLI, rendered back by ``python -m repro.obs report``
  (:mod:`repro.obs.manifest`, :mod:`repro.obs.report`).

Every clock in this package is injectable; simulation code passes the
event engine's virtual clock, the service layer the wall clock.  The only
direct wall-clock reads live in :mod:`repro.obs.manifest` (provenance
timestamps) and are explicitly marked for the RL006 linter.
"""

from repro.obs.exporters import (
    parse_prometheus_text,
    registry_to_json,
    to_prometheus_text,
)
from repro.obs.instruments import Counter, Gauge, Histogram, HistogramSeries
from repro.obs.manifest import RunManifest, git_revision
from repro.obs.profiling import (
    NOOP,
    NoopObsProvider,
    ObsProvider,
    get_default_provider,
    resolve_provider,
    set_default_provider,
    timed,
    use_provider,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, SpanContext, Tracer, report_key
from repro.obs.telemetry import (
    SHARD_LABEL,
    ClusterSlo,
    ShardSlo,
    compute_cluster_slo,
    federate_snapshots,
    format_status,
)

__all__ = [
    "ClusterSlo",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "NOOP",
    "NoopObsProvider",
    "ObsProvider",
    "RunManifest",
    "SHARD_LABEL",
    "ShardSlo",
    "Span",
    "SpanContext",
    "Tracer",
    "compute_cluster_slo",
    "federate_snapshots",
    "format_status",
    "get_default_provider",
    "git_revision",
    "parse_prometheus_text",
    "registry_to_json",
    "report_key",
    "resolve_provider",
    "set_default_provider",
    "timed",
    "to_prometheus_text",
    "use_provider",
]
