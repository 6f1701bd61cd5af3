"""The per-layer ledger behind the traced benchmark run.

Nothing inside ``src/`` is instrumented for this.  The ledger wraps
methods on objects the benchmark has already built (a forwarding
pipeline's ``push``, a verifier's ``verify``, a shard client's
``send_batch`` ...) with spans that keep a stack, so each layer's *self*
time excludes the layers it calls and the time no span covers shows up
as a coverage gap.  HMAC calls are counted, not timed, and charged to the
innermost open span.

Async spans work because the benchmark keeps exactly one batch in flight:
while a client span awaits its reply, the shard-side spans it caused open
and close inside it on the same event loop.  Interleaved spans would break
the stack discipline, so closing a span that is not innermost raises.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

_MISSING = object()


class Ledger:
    """Spans and counters for one traced phase.

    Attributes:
        calls / inclusive / self_time: per-layer call counts and seconds.
        hmacs: HMAC calls per innermost layer (``None`` when no span was
            open).
        covered: seconds inside some top-level span.
        paused: while True, wrappers call straight through (used for the
            benchmark's own output checks).
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.hmacs: dict[str | None, int] = defaultdict(int)
        self.covered = 0.0
        self.paused = False
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[object, str, object]] = []

    # Span bookkeeping ---------------------------------------------------------

    def _open(self, layer: str) -> list[Any]:
        frame = [layer, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[Any]) -> None:
        elapsed = time.perf_counter() - frame[2]
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self._stack.pop()
        layer = frame[0]
        self.calls[layer] += 1
        self.inclusive[layer] += elapsed
        self.self_time[layer] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        else:
            self.covered += elapsed

    # Patching -----------------------------------------------------------------

    def _patch(self, obj: object, attr: str, replacement: object) -> None:
        self._patches.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, replacement)

    def checkpoint(self) -> int:
        """A mark for :meth:`restore`: the number of patches so far."""
        return len(self._patches)

    def restore(self, keep: int = 0) -> None:
        """Undo the patches made after ``checkpoint() == keep``, newest first."""
        while len(self._patches) > keep:
            obj, attr, prior = self._patches.pop()
            if prior is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, prior)

    def wrap(
        self,
        obj: object,
        attr: str,
        layer: str,
        after: Callable[[Any], None] | None = None,
        span_if: Callable[..., bool] | None = None,
    ) -> None:
        """Time every call of ``obj.attr`` as a ``layer`` span.

        ``after`` sees each result (outside the span), which is how the
        verdict observer classifies verdicts without timing itself.
        ``span_if`` sees each call's arguments; calls it rejects run
        without a span.
        """
        inner = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.paused or (span_if is not None and not span_if(*args, **kwargs)):
                return inner(*args, **kwargs)
            frame = self._open(layer)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(result)
            return result

        self._patch(obj, attr, traced)

    def wrap_async(self, obj: object, attr: str, layer: str) -> None:
        """:meth:`wrap` for a coroutine method."""
        inner = getattr(obj, attr)

        async def traced(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return await inner(*args, **kwargs)
            frame = self._open(layer)
            try:
                return await inner(*args, **kwargs)
            finally:
                self._close(frame)

        self._patch(obj, attr, traced)

    def count_hmacs(self, provider: object) -> None:
        """Count ``provider.mac`` / ``anon_id`` calls per innermost layer."""
        for attr in ("mac", "anon_id"):
            inner = getattr(provider, attr)

            def counted(key: bytes, data: bytes, _inner: Any = inner) -> bytes:
                self.hmacs[self._stack[-1][0] if self._stack else None] += 1
                return _inner(key, data)

            self._patch(provider, attr, counted)

    # Derived figures ----------------------------------------------------------

    def per_call_us(self, layer: str) -> float:
        """Mean inclusive microseconds per call of ``layer`` (0 if unused)."""
        calls = self.calls.get(layer, 0)
        return self.inclusive[layer] / calls * 1e6 if calls else 0.0

    def table(self, wall_s: float) -> list[tuple[str, int, float, float, float]]:
        """``(layer, calls, inclusive_s, self_s, self share of wall)`` rows."""
        return [
            (
                layer,
                self.calls[layer],
                self.inclusive[layer],
                self.self_time[layer],
                self.self_time[layer] / wall_s if wall_s else 0.0,
            )
            for layer in sorted(self.calls)
        ]


class VerdictStats:
    """Classifies the verdicts the ledger sees, across every sink.

    Counts verdicts whose suspect center differs from the same sink's
    previous verdict, verdicts that took the identity-swapping loop
    branch, and verdicts during which the tamper-stop localizer ran (read
    off the ledger's ``traceback.tamper`` call count, which only verdicts
    advance).
    """

    def __init__(self, ledger: Ledger):
        self._ledger = ledger
        self._tamper_seen = 0
        self.verdicts = 0
        self.changed = 0
        self.loop = 0
        self.tamper = 0

    def observer(self) -> Callable[[Any], None]:
        """An ``after`` hook for one sink's ``verdict``."""
        previous: list[object] = [_MISSING]

        def observe(verdict: Any) -> None:
            center = verdict.suspect.center if verdict.suspect is not None else None
            self.verdicts += 1
            if previous[0] is not _MISSING and center != previous[0]:
                self.changed += 1
            previous[0] = center
            if verdict.loop_detected:
                self.loop += 1
            tamper_calls = self._ledger.calls.get("traceback.tamper", 0)
            if tamper_calls != self._tamper_seen:
                self.tamper += 1
            self._tamper_seen = tamper_calls

        return observe

    def shares(self) -> dict[str, float]:
        """The three per-verdict shares as per-layer metrics."""
        total = self.verdicts or 1
        return {
            "traceback.verdict_changed_share": self.changed / total,
            "traceback.loop_branch_share": self.loop / total,
            "traceback.tamper_branch_share": self.tamper / total,
        }


def trace_tamper_localizer(ledger: Ledger) -> None:
    """Span the verdict's tamper-stop localizer when it has stops to rank.

    With no tamper stops it returns at once, so counting those calls
    would report a tamper branch on streams nobody tampered with.
    """
    from repro.traceback import sink as sink_module

    ledger.wrap(
        sink_module,
        "_tamper_suspect",
        "traceback.tamper",
        span_if=lambda _precedence, tamper_stops, _topology: bool(tamper_stops),
    )


def obs_sum(registries: list[Any], name: str, frame: str | None = None) -> float:
    """Sum one obs counter or histogram (its ``total``) over registries.

    ``frame`` selects the series of a frame-type-labeled wire counter.
    """
    total = 0.0
    for registry in registries:
        instrument = registry.get(name)
        if instrument is None:
            continue
        for labels, value in instrument.series():
            if frame is not None and labels != (frame,):
                continue
            total += getattr(value, "total", value)
    return total


def layer_metrics(
    ledger: Ledger,
    verdicts: VerdictStats,
    registries: list[Any],
    figures: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric from one traced phase.

    A layer the workload bypasses has no calls and reports 0.  Metrics
    named after a call (``verify``, ``verdict``, ``process`` ...) are
    inclusive of what that call does; ``sim.forward`` is the pipeline's
    ``push`` minus the sink work it triggers.

    Args:
        ledger: the phase's spans and HMAC counts.
        verdicts: the phase's verdict classification.
        registries: obs registries the traced objects reported into.
        figures: workload-measured values -- ``packets``, ``batches``,
            ``wall_s`` and every metric the ledger cannot derive
            (service/cluster figures, calibration, overhead).
    """
    packets = figures["packets"] or 1
    batches = figures["batches"] or 1
    verified = ledger.calls.get("traceback.verify", 0)
    per_verified = verified or 1
    verify_s = ledger.inclusive.get("traceback.verify", 0.0)
    verify_hmacs = ledger.hmacs.get("traceback.verify", 0)
    metrics = {
        "traceback.verdict_us_per_call": ledger.per_call_us("traceback.verdict"),
        "traceback.analyze_us_per_call": ledger.per_call_us("traceback.analyze"),
        **verdicts.shares(),
        "traceback.verify_us_per_pkt": ledger.per_call_us("traceback.verify"),
        "traceback.table_us_per_pkt": obs_sum(
            registries, "resolution_table_seconds"
        )
        / per_verified
        * 1e6,
        "traceback.hmacs_per_pkt": verify_hmacs / per_verified,
        "traceback.fallbacks_per_pkt": obs_sum(
            registries, "resolver_fallbacks_total"
        )
        / per_verified,
        "crypto.sink_hmacs_per_s": verify_hmacs / verify_s if verify_s else 0.0,
        "traceback.ingest_us_per_pkt": ledger.per_call_us("traceback.ingest"),
        "sim.forward_us_per_pkt": ledger.self_time.get("sim.forward", 0.0)
        / packets
        * 1e6,
        "sim.hmacs_per_pkt": ledger.hmacs.get("sim.forward", 0) / packets,
        "service.process_us_per_pkt": ledger.inclusive.get("service.process", 0.0)
        / packets
        * 1e6,
        "wire.decode_us_per_pkt": obs_sum(registries, "wire_decode_seconds")
        / packets
        * 1e6,
        "wire.bytes_per_pkt": obs_sum(registries, "wire_bytes_rx_total", "BATCH")
        / packets,
        # The client span's self time: its round trips minus the
        # shard-side submit, process and verdict spans nested inside.
        "wire.transport_us_per_batch": ledger.self_time.get("wire.client", 0.0)
        / batches
        * 1e6,
        "cluster.split_us_per_batch": ledger.per_call_us("cluster.split"),
        "trace.coverage": ledger.covered / figures["wall_s"],
    }
    for name in (
        "service.hot_hit_share",
        "service.table_hit_share",
        "cluster.collect_s",
        "cluster.merge_s",
        "cluster.shard_skew",
        "trace.overhead",
    ):
        metrics[name] = figures.get(name, 0.0)
    return metrics
