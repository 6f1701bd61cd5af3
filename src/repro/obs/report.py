"""``python -m repro.obs report``: render run artifacts as text tables.

The experiments CLI (``--obs-dir``) leaves each run a directory of
machine-readable artifacts -- ``manifest.json``, ``metrics.json``,
``spans.jsonl``.  This module is the human-facing inverse: point it at
one run directory (or a parent holding several) and it prints the
provenance header, the registry's metrics as aligned tables, and a
per-stage span summary, without re-running anything.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any

from repro.experiments.tables import format_table
from repro.obs.manifest import RunManifest

__all__ = ["main", "render_run_dir"]

MANIFEST_FILE = "manifest.json"
METRICS_FILE = "metrics.json"
SPANS_FILE = "spans.jsonl"


def _fmt(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 6)
    return value


def render_manifest(manifest: RunManifest) -> str:
    """The provenance header for one run."""
    lines = [f"== run: {manifest.name} =="]
    rows = [
        ["preset", manifest.preset or "-"],
        ["seed", "-" if manifest.seed is None else manifest.seed],
        ["wall_seconds", _fmt(manifest.wall_seconds)],
        ["git_rev", manifest.git_rev[:12] or "unknown"],
        ["python", manifest.python or "-"],
        ["argv", " ".join(manifest.argv) or "-"],
    ]
    if "spans_written" in manifest.extra:
        rows.append(["spans_written", manifest.extra["spans_written"]])
        rows.append(["spans_truncated", manifest.extra.get("spans_truncated", False)])
    lines.append(format_table(["field", "value"], rows))
    return "\n".join(lines)


def render_metrics(snapshot: dict[str, Any]) -> str:
    """The registry snapshot as one aligned table of series."""
    rows: list[list[Any]] = []
    for entry in snapshot.get("metrics", []):
        label_names = entry.get("label_names", [])
        for series in entry.get("series", []):
            labels = ",".join(
                f"{n}={v}"
                for n, v in zip(label_names, series.get("labels", []), strict=True)
            )
            if entry["kind"] == "histogram":
                count = series.get("count", 0)
                mean = series.get("total", 0.0) / count if count else 0.0
                value = f"count={count} mean={_fmt(mean)} max={_fmt(series.get('max', 0.0))}"
            else:
                value = str(_fmt(series.get("value", 0.0)))
            rows.append([entry["name"], entry["kind"], labels or "-", value])
    if not rows:
        return "(no metrics recorded)"
    return format_table(["metric", "kind", "labels", "value"], rows)


def render_spans(path: str) -> str:
    """A per-stage summary of one ``spans.jsonl`` file."""
    totals: dict[str, dict[str, float]] = {}
    traces: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            span = json.loads(line)
            traces.add(span["trace_id"])
            entry = totals.setdefault(span["name"], {"count": 0, "total": 0.0})
            entry["count"] += 1
            entry["total"] += span.get("duration", 0.0)
    if not totals:
        return "(no spans recorded)"
    rows = [
        [name, int(totals[name]["count"]), _fmt(totals[name]["total"])]
        for name in sorted(totals)
    ]
    header = f"{sum(int(totals[n]['count']) for n in totals)} spans in {len(traces)} traces"
    return header + "\n" + format_table(["span", "count", "total_duration"], rows)


def render_run_dir(path: str) -> str:
    """Render every artifact present in one run directory."""
    sections: list[str] = []
    manifest_path = os.path.join(path, MANIFEST_FILE)
    metrics: dict[str, Any] | None = None
    if os.path.exists(manifest_path):
        manifest = RunManifest.load(manifest_path)
        sections.append(render_manifest(manifest))
        if manifest.metrics:
            metrics = manifest.metrics
    else:
        sections.append(f"== run: {os.path.basename(path) or path} ==")
    metrics_path = os.path.join(path, METRICS_FILE)
    if metrics is None and os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as handle:
            metrics = json.load(handle)
    if metrics is not None:
        sections.append(render_metrics(metrics))
    spans_path = os.path.join(path, SPANS_FILE)
    if os.path.exists(spans_path):
        sections.append(render_spans(spans_path))
    return "\n\n".join(sections)


def _run_dirs(root: str) -> list[str]:
    """``root`` itself if it is a run directory, else its run subdirectories."""
    if os.path.exists(os.path.join(root, MANIFEST_FILE)) or os.path.exists(
        os.path.join(root, SPANS_FILE)
    ):
        return [root]
    found = []
    for name in sorted(os.listdir(root)):
        child = os.path.join(root, name)
        if os.path.isdir(child) and (
            os.path.exists(os.path.join(child, MANIFEST_FILE))
            or os.path.exists(os.path.join(child, SPANS_FILE))
        ):
            found.append(child)
    return found


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.obs report``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render repro.obs run artifacts as text tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="render manifests/metrics/spans from a run dir")
    report.add_argument("path", help="a run directory, or a parent of run directories")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.path):
        parser.error(f"not a directory: {args.path}")
    runs = _run_dirs(args.path)
    if not runs:
        parser.error(f"no run artifacts (manifest.json / spans.jsonl) under {args.path}")
    print("\n\n".join(render_run_dir(run) for run in runs))
    return 0
