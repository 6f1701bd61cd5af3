"""Span-based tracing with explicit context propagation.

A :class:`Span` is one named, timed stage of a packet's life; spans that
share a ``trace_id`` form one trace, linked by ``parent_id``.  There is
no ambient "current span" (thread-locals would lie across interleaved
asyncio tasks and the simulator's event callbacks); context moves in one
of two explicit ways:

* pass a :class:`SpanContext` to :meth:`Tracer.start` as the parent, or
* bind the context to a *key* -- for packets, the report digest from
  :func:`report_key` -- and let the next layer pick the chain up with
  :meth:`Tracer.chain`.

The second form is what carries one trace id from
``NetworkSimulation`` injection, through each forwarding hop, into the
ingest queue, verification, and the sink's verdict: every layer chains
on the report key and never needs to see another layer's span objects.
A packet's journey is therefore :meth:`Tracer.trace_of` on its key.

Clocks are injected.  Simulation spans pass explicit virtual timestamps;
service spans use the tracer's clock (wall by default).  Durations are
therefore meaningful only within one time base, which the emitted records
preserve as-is.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Any, NamedTuple

from repro.packets.report import Report

__all__ = ["Span", "SpanContext", "Tracer", "report_key"]

#: Default cap on retained finished spans; past it the tracer stops
#: recording (and flags it) rather than evicting silently.
DEFAULT_MAX_SPANS = 200_000


def report_key(report: Report) -> bytes:
    """The content identity of a report: the key its span chain is bound to.

    The simulator, ingest service, verifier and sink all chain a packet's
    spans on this digest, so a chain bound in one layer can be joined
    from anywhere the report is visible.  The digest is computed once per
    report object (:attr:`Report.trace_key`).
    """
    return report.trace_key


class SpanContext(NamedTuple):
    """The propagatable identity of a span: its trace and span ids."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One named, timed stage within a trace.

    Attributes:
        trace_id: the trace this span belongs to.
        span_id: unique id within the tracer.
        parent_id: the parent span's id, or ``None`` for a root span.
        name: stage name (``inject``, ``forward``, ``queue``, ...).
        start: start time in the emitting layer's time base.
        end: end time, or ``None`` while the span is open.
        attrs: small JSON-ready attribute dict (node id, queue depth...).
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        """This span's propagatable context."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration(self) -> float:
        """``end - start`` (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> dict[str, Any]:
        """The span as a JSON-ready dict (attribute keys sorted)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
        }


class Tracer:
    """Creates, finishes, and records spans; owns the id sequence.

    Ids are deterministic per tracer (``t0000001``/``s0000001``...), so
    equal runs produce identical trace files.  All methods are
    thread-safe, so any thread may start or finish spans.

    Args:
        clock: time source for spans without explicit timestamps; defaults
            to the wall clock.  Simulation layers pass explicit virtual
            times instead and never read this.
        sink: optional text stream; each finished span is appended to it
            as one JSON line the moment it finishes (streaming export).
        max_spans: retained finished spans; past it, spans still chain
            (ids and bindings stay correct) but are no longer kept, and
            :attr:`truncated` is set.
        id_prefix: optional prefix baked into every generated trace and
            span id (``"sh0-t0000001"``...).  Distributed deployments
            give each process a distinct prefix so ids stay globally
            unique when spans from several tracers are merged into one
            trace view; propagated contexts keep the originator's prefix.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        sink: IO[str] | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        id_prefix: str = "",
    ):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        if clock is None:
            import time

            clock = time.perf_counter
        self.clock = clock
        self.sink = sink
        self.max_spans = max_spans
        self.id_prefix = id_prefix
        self.truncated = False  # guarded-by: _lock
        self.finished: list[Span] = []  # guarded-by: _lock
        self._lock = threading.Lock()
        self._trace_seq = 0  # guarded-by: _lock
        self._span_seq = 0  # guarded-by: _lock
        self._bindings: dict[bytes, SpanContext] = {}  # guarded-by: _lock

    # Span lifecycle ----------------------------------------------------------

    def start(
        self,
        name: str,
        parent: SpanContext | None = None,
        trace_id: str | None = None,
        time: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.

        With a ``parent``, the span joins the parent's trace; otherwise it
        roots a new trace (or the explicitly supplied ``trace_id``).
        ``time`` defaults to the tracer's clock.
        """
        return self._open(name, parent, trace_id, time, attrs)

    def _open(
        self,
        name: str,
        parent: SpanContext | None,
        trace_id: str | None,
        time: float | None,
        attrs: dict[str, Any],
        bind_key: bytes | None = None,
        instant: bool = False,
    ) -> Span:
        """:meth:`start` under one lock.

        With ``bind_key``, the parent is whatever the key is bound to and
        the key is re-bound to the new span (:meth:`chain`).  An
        ``instant`` span is finished at its start and recorded under the
        same lock (:meth:`event`).
        """
        at = self.clock() if time is None else time
        line = None
        with self._lock:
            if bind_key is not None:
                parent = self._bindings.get(bind_key)
            self._span_seq += 1
            span_id = f"{self.id_prefix}s{self._span_seq:07d}"
            if parent is not None:
                tid = parent.trace_id
            elif trace_id is not None:
                tid = trace_id
            else:
                self._trace_seq += 1
                tid = f"{self.id_prefix}t{self._trace_seq:07d}"
            if bind_key is not None:
                self._bindings[bind_key] = SpanContext(tid, span_id)
            span = Span(
                tid,
                span_id,
                parent.span_id if parent is not None else None,
                name,
                at,
                at if instant else None,
                attrs,
            )
            if instant:
                if len(self.finished) < self.max_spans:
                    self.finished.append(span)
                else:
                    self.truncated = True
                if self.sink is not None:
                    line = json.dumps(span.as_dict(), sort_keys=True)
        if line is not None and self.sink is not None:
            self.sink.write(line + "\n")
        return span

    def finish(self, span: Span, time: float | None = None) -> Span:
        """Close ``span`` and record it (idempotent per span object)."""
        if span.end is None:
            span.end = self.clock() if time is None else time
            self._record(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        parent: SpanContext | None = None,
        time: float | None = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Context manager: open on entry, finish on exit."""
        opened = self.start(name, parent=parent, time=time, **attrs)
        try:
            yield opened
        finally:
            self.finish(opened)

    def _record(self, span: Span) -> None:
        line = None
        with self._lock:
            if len(self.finished) < self.max_spans:
                self.finished.append(span)
            else:
                self.truncated = True
            if self.sink is not None:
                line = json.dumps(span.as_dict(), sort_keys=True)
        if line is not None and self.sink is not None:
            self.sink.write(line + "\n")

    # Keyed context propagation ----------------------------------------------

    def bind(self, key: bytes, context: SpanContext) -> None:
        """Associate ``context`` with ``key`` for later :meth:`chain` calls."""
        with self._lock:
            self._bindings[key] = context

    def lookup(self, key: bytes) -> SpanContext | None:
        """The context currently bound to ``key``, or ``None``."""
        with self._lock:
            return self._bindings.get(key)

    def chain(
        self, key: bytes, name: str, time: float | None = None, **attrs: Any
    ) -> Span:
        """Open a span as the child of whatever ``key`` is bound to.

        The new span is immediately re-bound to ``key``, so consecutive
        ``chain`` calls form a parent-linked chain through the stages of
        one packet's life; an unbound key roots a fresh trace.  The caller
        still owns finishing the span (or use :meth:`event` for
        instantaneous stages).
        """
        return self._open(name, None, None, time, attrs, bind_key=key)

    def event(self, key: bytes, name: str, time: float | None = None, **attrs: Any) -> Span:
        """A zero-duration chained span (lifecycle events, per-packet stages).

        Equal to :meth:`chain` then :meth:`finish` at the span's start,
        under one lock.
        """
        return self._open(name, None, None, time, attrs, bind_key=key, instant=True)

    # Queries -----------------------------------------------------------------

    def spans_for(self, trace_id: str) -> list[Span]:
        """Finished spans of one trace, in finish order."""
        with self._lock:
            return [s for s in self.finished if s.trace_id == trace_id]

    def trace_of(self, key: bytes) -> list[Span]:
        """Finished spans of the trace currently bound to ``key``."""
        context = self.lookup(key)
        if context is None:
            return []
        return self.spans_for(context.trace_id)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name span counts and total durations, sorted by name."""
        totals: dict[str, dict[str, float]] = {}
        with self._lock:
            finished = list(self.finished)
        for span in finished:
            entry = totals.setdefault(span.name, {"count": 0, "total_duration": 0.0})
            entry["count"] += 1
            entry["total_duration"] += span.duration
        return {name: totals[name] for name in sorted(totals)}

    def to_jsonl(self) -> str:
        """Every finished span as JSON lines (finish order)."""
        with self._lock:
            finished = list(self.finished)
        return "".join(json.dumps(s.as_dict(), sort_keys=True) + "\n" for s in finished)

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns spans written."""
        payload = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        return payload.count("\n")

    def __len__(self) -> int:
        with self._lock:
            return len(self.finished)

    def __repr__(self) -> str:
        return f"Tracer({len(self)} finished spans)"
