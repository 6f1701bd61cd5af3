"""Paired timing of one ``perfbench`` workload: a base revision against the working tree.

The shared hosts this benchmark runs on drift by more than most changes
gain, so a speed claim rests on alternating pairs of runs, never on one
run per side.  This script runs ``--pairs`` pairs of::

    python3 perfbench/run.py --workload W --seconds S --seed K --trace 0

once in an export of ``--base`` (``git archive``, so only committed files,
in a temporary directory removed on exit) and once in the working tree,
alternating which side goes first.  It parses the JSON line that ends
each run and prints, for every end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles and the pairs the change won (ties
count for neither side).  A gain is claimable when the change wins at
least nine tenths of the pairs and its median beats the base's by more
than the base's interquartile range.  Any run that reports ``"correct":
false`` or ``failed`` above 0, or prints no result, is flagged, and the
exit status is then 1.

Run from the repository root, as ``make perf-ab BASE=<rev>`` or::

    python3 benchmarks/perf_pairs.py --base HEAD~1 --workload cluster-stream --seed 7

A pair of 30-second runs takes about a minute, so ten pairs take ten.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

_ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def last_result(output: str) -> dict | None:
    """The last JSON result object in a run's output, if any."""
    for line in reversed(output.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def problems(pairs: list[dict[str, dict | None]]) -> list[str]:
    """One line per run that printed no result, was not correct, or failed operations."""
    found = []
    for number, pair in enumerate(pairs, start=1):
        for side in SIDES:
            result = pair[side]
            if result is None:
                found.append(f"pair {number} {side}: no result line")
            elif result["correct"] is not True or result["failed"] > 0:
                found.append(
                    f"pair {number} {side}: correct {result['correct']}, "
                    f"failed {result['failed']} of {result['attempted']}"
                )
    return found


def summarize(pairs: list[dict[str, dict | None]], metrics: list[dict]) -> list[str]:
    """The paired table: one line per side and metric, then the change's wins.

    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries (``name``,
    ``unit``, ``better``).  Pairs with a missing result are left out.
    """
    complete = [pair for pair in pairs if all(pair[side] is not None for side in SIDES)]
    lines = [f"{len(complete)} complete pairs"]
    if not complete:
        return lines
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in complete]
            for side in SIDES
        }
        stats = {side: quartiles(values[side]) for side in SIDES}
        for side in SIDES:
            q1, median, q3 = stats[side]
            lines.append(
                f"{name:<16} {side:<6} median {median:>12.6g} "
                f"quartiles {q1:.6g}-{q3:.6g} {metric['unit']}"
            )
        wins = sum(
            (change > base) if higher else (change < base)
            for base, change in zip(values["base"], values["change"], strict=True)
        )
        base_q1, base_median, base_q3 = stats["base"]
        gap = stats["change"][1] - base_median
        if not higher:
            gap = -gap
        claimable = wins * 10 >= 9 * len(complete) and gap > base_q3 - base_q1
        lines.append(
            f"{name:<16} change/base {stats['change'][1] / base_median:.4f}, "
            f"change better in {wins}/{len(complete)} pairs, median gain {gap:.6g} "
            f"vs base IQR {base_q3 - base_q1:.6g}: "
            f"{'gain claimable' if claimable else 'no claimable gain'}"
        )
    return lines


def export_revision(rev: str, into: pathlib.Path) -> None:
    """Write the committed files of ``rev`` under ``into``."""
    archive = subprocess.run(  # noqa: S603
        ["git", "archive", rev], cwd=_ROOT, capture_output=True, check=True  # noqa: S607
    )
    subprocess.run(  # noqa: S603
        ["tar", "-x", "-C", str(into)], input=archive.stdout, check=True  # noqa: S607
    )


def run_once(checkout: pathlib.Path, args: argparse.Namespace) -> dict | None:
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seconds", str(args.seconds), "--seed", str(args.seed), "--trace", "0",
    ]
    run = subprocess.run(  # noqa: S603
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    return last_result(run.stdout) if run.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", choices=workloads, default="cluster-stream")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")

    with tempfile.TemporaryDirectory(prefix="perf-ab-") as scratch:
        base_dir = pathlib.Path(scratch)
        export_revision(args.base, base_dir)
        checkouts = {"base": base_dir, "change": _ROOT}
        pairs: list[dict[str, dict | None]] = []
        for number in range(args.pairs):
            order = SIDES if number % 2 == 0 else SIDES[::-1]
            pair: dict[str, dict | None] = {}
            for side in order:
                result = pair[side] = run_once(checkouts[side], args)
                shown = (
                    "no result"
                    if result is None
                    else f"{result['metrics']['packets_per_s']['value']:,.1f} packets/s"
                )
                print(f"pair {number + 1}/{args.pairs} {side}: {shown}", file=sys.stderr)
            pairs.append(pair)

    print(
        f"== {args.workload}: {args.base} (base) vs working tree (change), "
        f"seed {args.seed}, {args.seconds:g} s per run, {args.pairs} alternating pairs"
    )
    for line in summarize(pairs, spec["end_to_end"]):
        print(line)
    flagged = problems(pairs)
    for line in flagged:
        print(f"FLAGGED: {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
