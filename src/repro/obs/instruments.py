"""Metric instruments: labeled counters, gauges, and log-bucket histograms.

The three instrument kinds follow the Prometheus data model closely enough
that the text exporter is a direct rendering: an instrument owns a metric
*name* and a fixed tuple of *label names*; each distinct label-value
combination is one time series.  All instruments are thread-safe, so any
thread may observe, and all iteration is over sorted keys so snapshots
and exports are deterministic (the RL004 contract extends to this
package).

:class:`HistogramSeries` is the one distribution type, unit-neutral (the
ingest service keeps its per-packet verify latency in one, in seconds):
power-of-two buckets with an O(1) bucket index (``math.log2`` plus a
one-step boundary correction) instead of a linear bound scan.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSeries",
    "bucket_index",
]

#: Default histogram range: 1 microsecond to ~16 seconds in powers of two.
DEFAULT_MIN_BUCKET = 1e-6
DEFAULT_NUM_BUCKETS = 24

LabelValues = tuple[str, ...]


def bucket_index(value: float, min_bucket: float, num_buckets: int) -> int:
    """The power-of-two bucket holding ``value``, in O(1).

    Returns the smallest ``i`` with ``value <= min_bucket * 2**i``, or
    ``num_buckets`` (the overflow bucket) when ``value`` exceeds every
    bound.  Values at or below ``min_bucket`` (including zero and
    negatives) land in bucket 0, matching the linear scan this replaces.

    ``math.log2`` gives the candidate index directly, but floating-point
    rounding at an exact bound can land one bucket off in either
    direction; the two single-step corrections below restore the exact
    ``value <= bound`` semantics, keeping the whole computation O(1).
    """
    if value <= min_bucket:
        return 0
    index = math.ceil(math.log2(value / min_bucket))
    if index >= num_buckets:
        index = num_buckets
    # value fits one bucket lower than log2 suggested (rounded up too far).
    if index > 0 and value <= min_bucket * 2.0 ** (index - 1):
        index -= 1
    # value exceeds the suggested bound (rounded down too far).
    if index < num_buckets and value > min_bucket * 2.0**index:
        index += 1
    return index


class _Instrument:
    """Shared plumbing: name, label names, per-series storage, one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = ()):
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"metric name must be a [a-zA-Z0-9_]+ token, got {name!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _label_key(self, labels: dict[str, Any]) -> LabelValues:
        """Validate ``labels`` against the declared names; return the key."""
        if not labels and not self.label_names:
            return ()
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} declares labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


class _Scalar(_Instrument):
    """One float per series: the storage counters and gauges share."""

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = ()):
        super().__init__(name, help, label_names)
        self._values: dict[LabelValues, float] = {}  # guarded-by: _lock

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to the series selected by ``labels``."""
        key = self._label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def get(self, **labels: Any) -> float:
        """Current value of one series (0.0 if never written)."""
        key = self._label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def series(self) -> list[tuple[LabelValues, float]]:
        """Every series as ``(label_values, value)``, sorted by labels."""
        with self._lock:
            items = list(self._values.items())
        return sorted(items)

    def _restore(self, key: LabelValues, value: float) -> None:
        with self._lock:
            self._values[key] = value


class Counter(_Scalar):
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        super().inc(amount, **labels)


class Gauge(_Scalar):
    """A value that can go up and down (queue depth, cache size...);
    :meth:`inc` may add a negative amount."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        key = self._label_key(labels)
        with self._lock:
            self._values[key] = float(value)


class HistogramSeries:
    """One log-bucketed distribution (the math behind :class:`Histogram`).

    Buckets are powers of two starting at ``min_bucket``; observations
    above the last bound land in an overflow bucket.  Thread-safe.  Bucket
    assignment is O(1) via :func:`bucket_index`.
    """

    def __init__(
        self,
        min_bucket: float = DEFAULT_MIN_BUCKET,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ):
        if min_bucket <= 0:
            raise ValueError(f"min_bucket must be positive, got {min_bucket}")
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.min_bucket = min_bucket
        self.num_buckets = num_buckets
        self._bounds = [min_bucket * (2.0**i) for i in range(num_buckets)]
        # One extra bucket catches overflow past the largest bound.
        self._counts = [0] * (num_buckets + 1)  # guarded-by: _lock
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock
        self.total = 0.0  # guarded-by: _lock
        self.min = float("inf")  # guarded-by: _lock
        self.max = 0.0  # guarded-by: _lock

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``times`` observations of ``value`` each."""
        if times < 1:
            return
        index = bucket_index(value, self.min_bucket, self.num_buckets)
        with self._lock:
            self._counts[index] += times
            self.count += times
            self.total += value * times
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank:
                return self._bounds[i] if i < len(self._bounds) else self.max
        return self.max

    def bucket_counts(self) -> list[int]:
        """A copy of the raw per-bucket counts (overflow bucket last)."""
        with self._lock:
            return list(self._counts)

    def as_dict(self) -> dict[str, Any]:
        """Summary plus the non-empty buckets (``le`` upper bounds)."""
        with self._lock:
            counts = list(self._counts)
            count = self.count
        return {
            "count": count,
            "mean": self.mean,
            "min": self.min if count else 0.0,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "buckets": [
                {"le": self._bounds[i] if i < len(self._bounds) else None, "count": c}
                for i, c in enumerate(counts)
                if c
            ],
        }

    def _restore(
        self, counts: list[int], count: int, total: float, min_: float, max_: float
    ) -> None:
        with self._lock:
            self._counts = list(counts)
            self.count = count
            self.total = total
            self.min = min_
            self.max = max_


class Histogram(_Instrument):
    """A labeled family of :class:`HistogramSeries` distributions."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        min_bucket: float = DEFAULT_MIN_BUCKET,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        self.min_bucket = min_bucket
        self.num_buckets = num_buckets
        self._series: dict[LabelValues, HistogramSeries] = {}  # guarded-by: _lock

    def observe(self, value: float, times: int = 1, **labels: Any) -> None:
        """Record observations into the series selected by ``labels``."""
        self.data(**labels).observe(value, times=times)

    def data(self, **labels: Any) -> HistogramSeries:
        """The :class:`HistogramSeries` behind one label combination."""
        key = self._label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = HistogramSeries(self.min_bucket, self.num_buckets)
                self._series[key] = series
        return series

    def series(self) -> list[tuple[LabelValues, HistogramSeries]]:
        """Every series as ``(label_values, data)``, sorted by labels."""
        with self._lock:
            items = list(self._series.items())
        return sorted(items, key=lambda kv: kv[0])
