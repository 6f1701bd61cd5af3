"""Observability surface of the ingest service.

Every component of the pipeline keeps its own counters; the service
assembles them into a single :class:`ServiceStats` snapshot for tests and
the throughput bench.  Dashboards read the same counters through the obs
registry, which sums them over the components registered with it
(:func:`~repro.obs.registry_to_json`,
:func:`~repro.obs.to_prometheus_text`).  Per-packet verify latency is a
:class:`repro.obs.HistogramSeries` summary (seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ServiceStats"]


@dataclass(frozen=True)
class ServiceStats:
    """One observability snapshot of the whole ingest pipeline.

    Per instance; the registry's ``ingest_*`` gauges sum its integer
    fields over every service registered with one provider.

    Attributes:
        submitted: packets offered to the service.
        accepted: packets that entered the queue.
        dropped: packets shed by backpressure.
        processed: packets verified and merged into the sink.
        batches: number of verification batches executed.
        queue: the ingest queue's counters.
        cache: the resolver cache's counters.
        verify_latency: per-packet verification latency histogram summary.
    """

    submitted: int
    accepted: int
    dropped: int
    processed: int
    batches: int
    queue: dict[str, Any]
    cache: dict[str, Any]
    verify_latency: dict[str, Any] = field(default_factory=dict)
