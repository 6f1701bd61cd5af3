"""Registry exporters: Prometheus text format and JSON.

Both exporters render :meth:`repro.obs.MetricsRegistry.snapshot` content
in fully deterministic order (metrics by name, series by label values,
buckets by bound), so two equal runs export byte-identical documents --
the same property :meth:`repro.obs.Tracer.to_jsonl` has for spans.

:func:`parse_prometheus_text` is the inverse of the sample lines
:func:`to_prometheus_text` emits.  It exists for the exporter round-trip
tests and for quick ad-hoc diffing of two exports; it is not a general
Prometheus parser (it reads exactly the subset this module writes).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.obs.instruments import Counter, Gauge, Histogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.registry import MetricsRegistry

__all__ = ["to_prometheus_text", "registry_to_json", "parse_prometheus_text"]


def _fmt_value(value: float) -> str:
    """Prometheus-style number: integers render bare, floats repr-exact."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_labels(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{n}="{_escape(v)}"' for n, v in zip(names, values, strict=True)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_prometheus_text(registry: "MetricsRegistry") -> str:
    """Render ``registry`` in the Prometheus text exposition format.

    Counters and gauges emit one sample per series; histograms emit the
    cumulative ``_bucket`` samples plus ``_sum`` and ``_count``, exactly
    as a Prometheus client library would.
    """
    lines: list[str] = []
    for instrument in registry.instruments():
        if instrument.help:
            lines.append(f"# HELP {instrument.name} {instrument.help}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            for values, value in instrument.series():
                labels = _fmt_labels(instrument.label_names, values)
                lines.append(f"{instrument.name}{labels} {_fmt_value(value)}")
        elif isinstance(instrument, Histogram):
            for values, data in instrument.series():
                bounds = data._bounds
                cumulative = 0
                for i, count in enumerate(data.bucket_counts()):
                    cumulative += count
                    bound = _fmt_value(bounds[i]) if i < len(bounds) else "+Inf"
                    labels = _fmt_labels(
                        instrument.label_names, values, extra=f'le="{bound}"'
                    )
                    lines.append(f"{instrument.name}_bucket{labels} {cumulative}")
                labels = _fmt_labels(instrument.label_names, values)
                lines.append(f"{instrument.name}_sum{labels} {_fmt_value(data.total)}")
                lines.append(f"{instrument.name}_count{labels} {cumulative}")
    return "\n".join(lines) + ("\n" if lines else "")


def registry_to_json(registry: "MetricsRegistry", indent: int | None = None) -> str:
    """The registry snapshot as a JSON document (sorted, deterministic)."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def parse_prometheus_text(
    text: str,
) -> dict[str, dict[str, Any]]:
    """Parse the subset of Prometheus text that :func:`to_prometheus_text` emits.

    Returns:
        ``name -> {"kind": ..., "help": ..., "samples": {sample_key: value}}``
        where ``sample_key`` is the full sample name with its label string
        (e.g. ``'packets_total{kind="inject"}'``).

    Raises:
        ValueError: on a line that is neither a comment nor a sample.
    """
    metrics: dict[str, dict[str, Any]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            metrics.setdefault(name, {"kind": "", "help": "", "samples": {}})
            metrics[name]["kind"] = kind
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            metrics.setdefault(name, {"kind": "", "help": "", "samples": {}})
            metrics[name]["help"] = help_text
            continue
        if line.startswith("#"):
            continue
        key, _, value_text = line.rpartition(" ")
        if not key:
            raise ValueError(f"unparseable sample line: {raw!r}")
        base = key.split("{", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in metrics:
                base = base[: -len(suffix)]
                break
        if base not in metrics:
            raise ValueError(f"sample {key!r} has no preceding TYPE line")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        metrics[base]["samples"][key] = value
    return metrics
