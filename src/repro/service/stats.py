"""Observability surface of the ingest service.

Every component of the pipeline keeps its own counters; the service
assembles them into a single :class:`ServiceStats` snapshot that renders
to JSON for dashboards and the throughput bench.  Per-packet verify
latency is a :class:`repro.obs.HistogramSeries` summary (seconds).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

__all__ = ["ServiceStats"]


@dataclass(frozen=True)
class ServiceStats:
    """One observability snapshot of the whole ingest pipeline.

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

    def as_dict(self) -> dict[str, Any]:
        """The snapshot as a JSON-ready dict."""
        return asdict(self)

    def to_json(self, indent: int | None = None) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.as_dict(), indent=indent)
