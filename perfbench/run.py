#!/usr/bin/env python3
"""The repository benchmark: online traceback and sharded-stream workloads.

Run from the repository root::

    python3 perfbench/run.py --workload online-route --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py      # every workload, traced, with all tables

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
docstrings of ``online.py`` and ``cluster_stream.py`` say how each
workload is driven, and ``calibration.py`` how times are scaled to a
reference machine speed.  Each run prints a
table of every metric with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  A traced run first measures untraced for half the budget,
then replays the same inputs with the per-layer ledger attached.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("online-route", "online-adversarial", "cluster-stream")

#: Units of the figures printed beside the declared metrics.  p99 is as
#: measured, not scaled (see ``calibration``), so it is not declared.
QUALITY_UNITS = {
    "batch_ms_p99": "ms",
    "identify_s_p50": "s",
    "identify_s_p90": "s",
    "packets_to_identify_p50": "count",
    "one_hop_rate": "ratio",
    "failed_share": "ratio",
}


def _print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(f"-- {title}")
    for name, value, unit in rows:
        print(f"   {name:<34} {value:>14.6g} {unit}")


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its tables, return the result object."""
    if workload == "cluster-stream":
        import cluster_stream as module
    else:
        import online as module

    from calibration import REFERENCE_UNITS_PER_S, calibrate

    calibration = calibrate()
    result = module.run(workload, seed, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = dict(result["end_to_end"], peak_rss_mb=peak_rss_mb)
    raw = dict(result["raw"], peak_rss_mb=peak_rss_mb)
    attempted = result["attempted"]
    failed = result["failed"]

    probe = result["probe"]
    print(
        f"== {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}  "
        f"hmac/s at start: {calibration:,.0f}; reference units/s during the run: "
        f"median {probe.rate():,.0f}, range {min(probe.rates):,.0f}-"
        f"{max(probe.rates):,.0f} ({len(probe.rates)} samples)"
    )
    print("   samples: " + ", ".join(f"{n} {k}" for k, n in result["samples"].items()))
    print(
        f"-- end-to-end{' (untraced half)' if trace else ''}, at "
        f"{REFERENCE_UNITS_PER_S:,.0f} reference units/s except RSS "
        "(as measured in brackets)"
    )
    for m in spec["end_to_end"]:
        name = m["name"]
        print(f"   {name:<34} {end_to_end[name]:>14.6g} {m['unit']:<6} [{raw[name]:.6g}]")
    quality = dict(result["quality"], failed_share=failed / attempted)
    quality.update((k, v) for k, v in end_to_end.items() if k in QUALITY_UNITS)
    _print_table(
        "traceback quality and failures",
        [(name, quality[name], QUALITY_UNITS[name]) for name in QUALITY_UNITS if name in quality],
    )
    if trace:
        from repro.analysis.cost import PAPER_HASH_RATE

        per_layer = dict(result["per_layer"])
        per_layer["crypto.hmac_calib_per_s"] = calibration
        ledger = result["ledger"]
        wall_s = result["wall_s"]
        print(f"-- traced ledger over {wall_s:.3f} s of traced wall time")
        print(f"   {'layer':<22} {'calls':>9} {'incl_s':>9} {'self_s':>9} {'self/wall':>9}")
        for layer, calls, inclusive, self_s, share in ledger.table(wall_s):
            print(f"   {layer:<22} {calls:>9} {inclusive:>9.4f} {self_s:>9.4f} {share:>9.3f}")
        _print_table(
            "per-layer",
            [(m["name"], per_layer[m["name"]], m["unit"]) for m in spec["per_layer"]],
        )
        sink_rate = per_layer["crypto.sink_hmacs_per_s"]
        print(
            f"   sink HMAC rate {sink_rate:,.0f}/s = {sink_rate / PAPER_HASH_RATE:.3f} x "
            f"the paper's {PAPER_HASH_RATE:,.0f} hashes/s (Sec. 4.2); "
            f"calibration loop {calibration:,.0f}/s"
        )
        metrics = {m["name"]: (per_layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: (end_to_end[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not spec_path.is_file() or not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT} holds no BENCHMARK.json plus src/repro; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        # One process per workload, so each peak RSS is its own.
        for workload in WORKLOADS:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            if subprocess.run(command, check=False).returncode != 0:
                return 1
        return 0

    sys.path.insert(0, str(src))
    spec = json.loads(spec_path.read_text())
    result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
