"""The metrics registry: one named home for every instrument.

Components do not pass counters to each other; they ask a shared
:class:`MetricsRegistry` for an instrument by name and write into it.
Registration is get-or-create and idempotent, so the simulator, sink,
and ingest service can all say ``registry.counter("packets_total",
label_names=("kind",))`` and land on the same series -- which is the
point: the paper's cross-layer numbers (marks per packet, brute-force
cost, delivery ratio under churn) become queryable from one place.

A component that keeps its own counters registers its ``stats()`` once
(:meth:`MetricsRegistry.register_stats`) instead of copying them in, so
each count lives once, where it is counted, and every read sums it.

Snapshots are plain JSON-ready dicts with all keys sorted, so equal runs
serialize byte-identically; :meth:`MetricsRegistry.load_snapshot`
reconstructs a registry whose counts equal the snapshot's (the exporter
round-trip contract tested in ``tests/test_obs``).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping
from typing import Any

from repro.obs.instruments import (
    DEFAULT_MIN_BUCKET,
    DEFAULT_NUM_BUCKETS,
    Counter,
    Gauge,
    Histogram,
)

__all__ = ["MetricsRegistry", "StatsSource"]

#: A component's ``stats()``: a zero-argument read of its flat counters.
StatsSource = Callable[[], Mapping[str, Any]]


class MetricsRegistry:
    """A thread-safe, name-keyed collection of metric instruments.

    Instruments are created on first request and looked up by name
    afterwards; requesting an existing name with a different kind or
    label set raises ``ValueError`` (silent forks of a metric are how
    dashboards lie).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}  # guarded-by: _lock
        # (prefix, stats) keys: registering a bound method twice is a no-op.
        self._sources: dict[tuple[str, StatsSource], None] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    # Get-or-create -----------------------------------------------------------

    def counter(
        self, name: str, help: str = "", label_names: tuple[str, ...] = ()
    ) -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: tuple[str, ...] = ()
    ) -> Gauge:
        """Get or create the :class:`Gauge` called ``name`` (sources read first)."""
        self._read_sources()
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        min_bucket: float = DEFAULT_MIN_BUCKET,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``."""
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                instrument = Histogram(
                    name,
                    help,
                    tuple(label_names),
                    min_bucket=min_bucket,
                    num_buckets=num_buckets,
                )
                self._instruments[name] = instrument
                return instrument
        return self._check(existing, Histogram, name, tuple(label_names))

    def _get_or_create(
        self, cls: type, name: str, help: str, label_names: tuple[str, ...]
    ) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                instrument = cls(name, help, tuple(label_names))
                self._instruments[name] = instrument
                return instrument
        return self._check(existing, cls, name, tuple(label_names))

    @staticmethod
    def _check(existing: Any, cls: type, name: str, label_names: tuple[str, ...]) -> Any:
        if type(existing) is not cls:
            raise ValueError(
                f"metric {name!r} is already registered as a "
                f"{existing.kind}, not a {cls.kind}"
            )
        if existing.label_names != label_names:
            raise ValueError(
                f"metric {name!r} is already registered with labels "
                f"{existing.label_names}, not {label_names}"
            )
        return existing

    # Component sources -------------------------------------------------------

    def register_stats(self, prefix: str, stats: StatsSource) -> None:
        """Read every ``int`` (not ``bool``) of ``stats()`` as the gauge
        ``<prefix>_<key>``, summed over all components registered under
        that name, on every registry read.  Floats (ratios do not sum) and
        nested dicts (nested components register themselves) are skipped;
        the registry keeps its sources for its own lifetime."""
        with self._lock:
            self._sources[(prefix, stats)] = None

    def _read_sources(self) -> None:
        """Set every source-backed gauge to its current total."""
        with self._lock:
            sources = list(self._sources)
        if not sources:
            return
        totals: dict[str, int] = {}
        for prefix, stats in sources:
            for key, value in stats().items():
                if isinstance(value, int) and not isinstance(value, bool):
                    name = f"{prefix}_{key}"
                    totals[name] = totals.get(name, 0) + value
        for name in sorted(totals):
            self._get_or_create(Gauge, name, "", ()).set(totals[name])

    # Introspection -----------------------------------------------------------

    def get(self, name: str) -> Any | None:
        """The instrument called ``name``, or ``None``."""
        self._read_sources()
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        self._read_sources()
        with self._lock:
            return sorted(self._instruments)

    def instruments(self) -> list[Any]:
        """Every instrument, sorted by name (deterministic export order)."""
        self._read_sources()
        with self._lock:
            items = sorted(self._instruments.items())
        return [instrument for _, instrument in items]

    def __len__(self) -> int:
        return len(self.names())

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    # Snapshots ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as a deterministic JSON-ready dict."""
        metrics = []
        for instrument in self.instruments():
            entry: dict[str, Any] = {
                "name": instrument.name,
                "kind": instrument.kind,
                "help": instrument.help,
                "label_names": list(instrument.label_names),
            }
            if isinstance(instrument, Histogram):
                entry["min_bucket"] = instrument.min_bucket
                entry["num_buckets"] = instrument.num_buckets
                entry["series"] = [
                    {
                        "labels": list(values),
                        "count": data.count,
                        "total": data.total,
                        "min": data.min if data.count else 0.0,
                        "max": data.max,
                        "bucket_counts": data.bucket_counts(),
                    }
                    for values, data in instrument.series()
                ]
            else:
                entry["series"] = [
                    {"labels": list(values), "value": value}
                    for values, value in instrument.series()
                ]
            metrics.append(entry)
        return {"metrics": metrics}

    @classmethod
    def load_snapshot(cls, snapshot: dict[str, Any]) -> "MetricsRegistry":
        """Reconstruct a registry whose counts equal ``snapshot``'s.

        The inverse of :meth:`snapshot`:
        ``load_snapshot(r.snapshot()).snapshot() == r.snapshot()``.
        """
        registry = cls()
        for entry in snapshot.get("metrics", []):
            name = entry["name"]
            labels = tuple(entry.get("label_names", ()))
            kind = entry["kind"]
            if kind == "counter":
                instrument: Any = registry.counter(name, entry.get("help", ""), labels)
                for series in entry.get("series", []):
                    instrument._restore(tuple(series["labels"]), series["value"])
            elif kind == "gauge":
                instrument = registry.gauge(name, entry.get("help", ""), labels)
                for series in entry.get("series", []):
                    instrument._restore(tuple(series["labels"]), series["value"])
            elif kind == "histogram":
                instrument = registry.histogram(
                    name,
                    entry.get("help", ""),
                    labels,
                    min_bucket=entry.get("min_bucket", DEFAULT_MIN_BUCKET),
                    num_buckets=entry.get("num_buckets", DEFAULT_NUM_BUCKETS),
                )
                for series in entry.get("series", []):
                    data = instrument.data(
                        **dict(zip(labels, series["labels"], strict=True))
                    )
                    data._restore(
                        series["bucket_counts"],
                        series["count"],
                        series["total"],
                        series["min"] if series["count"] else float("inf"),
                        series["max"],
                    )
            else:
                raise ValueError(f"unknown instrument kind {kind!r} in snapshot")
        return registry

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} instruments)"
