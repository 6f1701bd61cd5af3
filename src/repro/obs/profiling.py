"""Profiling hooks: the provider facade hot paths actually call.

Instrumented code never touches the registry or tracer directly; it holds
an :class:`ObsProvider` (or the :data:`NOOP` singleton) and calls
``obs.timer("verify_packet_seconds")``, ``obs.inc(...)``, and friends
(or registers its own counters once, ``obs.register_stats``).
Two properties make this safe to leave in hot paths:

* the :class:`NoopObsProvider` reduces every hook to an attribute lookup
  plus an empty method -- no time reads, no locks, no allocations beyond
  a shared reusable context manager -- so disabled instrumentation costs
  near zero (gated by ``benchmarks/test_bench_obs.py``);
* the active provider's clock is injected, so simulation code can time
  stages on the virtual clock without ever reading the wall clock
  (the RL006 contract).

Construction sites resolve their provider with :func:`resolve_provider`:
an explicit argument wins, otherwise the process-wide default applies
(:func:`set_default_provider` / :func:`use_provider`), which is how the
experiments CLI turns on observability for a whole run without threading
a provider through every constructor.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.obs.instruments import Counter, HistogramSeries
from repro.obs.registry import MetricsRegistry, StatsSource
from repro.obs.spans import Tracer

__all__ = [
    "NOOP",
    "NoopObsProvider",
    "ObsProvider",
    "get_default_provider",
    "resolve_provider",
    "set_default_provider",
    "timed",
    "use_provider",
]


class _NoopTimer:
    """A reusable do-nothing context manager (one shared instance)."""

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NOOP_TIMER = _NoopTimer()


class _Timer:
    """Times a ``with`` block on the provider's clock into a histogram."""

    __slots__ = ("_clock", "_series", "_start")

    def __init__(self, series: HistogramSeries, clock: Callable[[], float]):
        self._series = series
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self._series.observe(self._clock() - self._start)


class ObsProvider:
    """The active observability facade: registry + tracer + clock.

    Args:
        registry: metrics destination; a fresh one is created if omitted.
        tracer: span destination; ``None`` disables span emission (the
            metrics/profiling half still works).
        clock: time source for :meth:`timer`; defaults to the wall clock
            (``time.perf_counter``).  Pass the simulation's virtual clock
            to profile simulated stages deterministically.
    """

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        if clock is None:
            import time

            clock = time.perf_counter
        self.clock = clock
        # Unlabeled instruments by name, so the per-packet hooks skip the
        # registry's get-or-create (and its lock) after first use.
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, HistogramSeries] = {}

    # Metrics shortcuts -------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment the counter ``name`` (created on first use)."""
        if labels:
            self.registry.counter(name, label_names=tuple(sorted(labels))).inc(
                amount, **labels
            )
            return
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(name)
        counter.inc(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name`` (created on first use)."""
        self.registry.gauge(name, label_names=tuple(sorted(labels))).set(
            value, **labels
        )

    def observe(self, name: str, value: float, times: int = 1, **labels: Any) -> None:
        """Observe into the histogram ``name`` (created on first use)."""
        self._series(name, labels).observe(value, times=times)

    def register_stats(self, prefix: str, stats: StatsSource) -> None:
        """See :meth:`MetricsRegistry.register_stats`."""
        self.registry.register_stats(prefix, stats)

    def timer(self, name: str, **labels: Any) -> _Timer:
        """A context manager timing its block into histogram ``name``."""
        return _Timer(self._series(name, labels), self.clock)

    def _series(self, name: str, labels: dict[str, Any]) -> HistogramSeries:
        """The histogram series ``name``/``labels`` selects; unlabeled
        series are cached by name."""
        if labels:
            return self.registry.histogram(
                name, label_names=tuple(sorted(labels))
            ).data(**labels)
        plain = self._histograms.get(name)
        if plain is None:
            plain = self._histograms[name] = self.registry.histogram(name).data()
        return plain

    def __repr__(self) -> str:
        tracing = "tracing" if self.tracer is not None else "no tracer"
        return f"ObsProvider({len(self.registry)} metrics, {tracing})"


class NoopObsProvider:
    """The disabled provider: every hook is a no-op, every query empty.

    ``registry`` and ``tracer`` are ``None`` so integration code can gate
    span emission on ``obs.tracer is not None`` uniformly.
    """

    enabled = False
    registry = None
    tracer = None

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Do nothing."""

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Do nothing."""

    def observe(self, name: str, value: float, times: int = 1, **labels: Any) -> None:
        """Do nothing."""

    def register_stats(self, prefix: str, stats: StatsSource) -> None:
        """Do nothing."""

    def timer(self, name: str, **labels: Any) -> _NoopTimer:
        """The shared no-op context manager."""
        return _NOOP_TIMER

    def __repr__(self) -> str:
        return "NoopObsProvider()"


#: The process-wide disabled provider; instrumented defaults point here.
NOOP = NoopObsProvider()

_default: ObsProvider | NoopObsProvider = NOOP


def get_default_provider() -> ObsProvider | NoopObsProvider:
    """The process-wide default provider (:data:`NOOP` unless overridden)."""
    return _default


def set_default_provider(provider: ObsProvider | NoopObsProvider) -> None:
    """Install ``provider`` as the process-wide default."""
    global _default
    _default = provider


@contextmanager
def use_provider(provider: ObsProvider | NoopObsProvider) -> Iterator[None]:
    """Temporarily install ``provider`` as the default (restores on exit)."""
    previous = get_default_provider()
    set_default_provider(provider)
    try:
        yield
    finally:
        set_default_provider(previous)


def resolve_provider(
    obs: ObsProvider | NoopObsProvider | None,
) -> ObsProvider | NoopObsProvider:
    """An explicit provider if given, else the process-wide default.

    The idiom for instrumented constructors::

        def __init__(self, ..., obs=None):
            self._obs = resolve_provider(obs)
    """
    return obs if obs is not None else get_default_provider()


def timed(name: str, **labels: Any) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: time every call into histogram ``name``.

    The provider is resolved *per call* from the process-wide default, so
    a function decorated at import time starts reporting the moment a
    provider is installed -- and costs one no-op context manager
    otherwise.
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with get_default_provider().timer(name, **labels):
                return func(*args, **kwargs)

        return wrapper

    return decorate
