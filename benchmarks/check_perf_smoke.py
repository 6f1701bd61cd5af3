"""Run every ``perfbench`` workload briefly and check its outputs.

``perfbench/run.py`` checks each workload's results (the merged cluster
verdict equals one sink's, the one-hop floors hold ...) and reports the
outcome as ``"correct"`` in the JSON object that ends each workload's
output, but it exits 0 either way.  This smoke run fails unless the run
exits 0 and every workload declared in ``BENCHMARK.json`` printed a JSON
line with ``"correct": true``.  Its timings are too short to mean
anything and are not checked.

Run as ``make perf-smoke`` (or ``python3 benchmarks/check_perf_smoke.py``)
from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMAND = ["perfbench/run.py", "--workload", "all", "--seconds", "1", "--trace", "1"]


def results(output: str) -> list[dict]:
    """The JSON result objects in ``output``, in order."""
    found = []
    for line in output.splitlines():
        if line.startswith("{"):
            obj = json.loads(line)
            if "correct" in obj:
                found.append(obj)
    return found


def main() -> int:
    expected = len(json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"])
    run = subprocess.run(
        [sys.executable, *COMMAND], cwd=_ROOT, capture_output=True, text=True, check=False
    )
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    found = results(run.stdout)
    failures = []
    if run.returncode != 0:
        failures.append(f"perfbench exited {run.returncode}")
    if len(found) != expected:
        failures.append(f"{len(found)} result lines, expected {expected}")
    failures += [
        f"result line {i} not correct (failed {obj.get('failed')} of {obj.get('attempted')})"
        for i, obj in enumerate(found, start=1)
        if obj["correct"] is not True
    ]
    for failure in failures:
        print(f"perf-smoke: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"perf-smoke: OK: {len(found)} workloads correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
