"""Run every ``perfbench`` workload briefly and check its outputs.

``perfbench/run.py`` checks each workload's results (the merged cluster
verdict equals one sink's, the one-hop floors hold ...) and reports the
outcome as ``"correct"`` in the JSON object that ends each workload's
output, but it exits 0 either way.  This smoke run fails unless the run
exits 0 and every workload declared in ``BENCHMARK.json`` printed a JSON
line with ``"correct": true``.  Its timings are too short to mean
anything and are not checked, but one count is: the traced
``cluster-stream`` run must report ``traceback.hmacs_per_pkt`` of exactly
:data:`CLUSTER_HMACS_PER_PKT`.  The ledger counts a hash only when it
goes through the provider's ``mac``/``anon_id`` attributes, so a sink
that hashed some other way (a bound method cached before the ledger
patched the provider) would read fewer hashes than it does; so would one
that skipped a check.

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
#: Honest ``cluster-stream`` sink hashes per verified packet (seed 1).
CLUSTER_HMACS_PER_PKT = 74.095
HMACS = "traceback.hmacs_per_pkt"


def results(output: str) -> list[tuple[str | None, dict]]:
    """The JSON result objects in ``output``, in order, each with the
    workload named by the ``== <workload>`` header before it."""
    found = []
    workload = None
    for line in output.splitlines():
        if line.startswith("== "):
            workload = line.split()[1]
        elif line.startswith("{"):
            obj = json.loads(line)
            if "correct" in obj:
                found.append((workload, obj))
    return found


def hash_count_failures(found: list[tuple[str | None, dict]]) -> list[str]:
    """Why the traced ``cluster-stream`` line's hash count is off, if it is."""
    lines = [obj for workload, obj in found if workload == "cluster-stream"]
    if not lines:
        return ["no cluster-stream result line"]
    metric = lines[0].get("metrics", {}).get(HMACS)
    if metric is None:
        return [f"cluster-stream reports no {HMACS}"]
    if round(metric["value"], 3) != CLUSTER_HMACS_PER_PKT:
        return [
            f"cluster-stream {HMACS} {metric['value']:.6g}, "
            f"expected {CLUSTER_HMACS_PER_PKT}"
        ]
    return []


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
        for i, (_workload, obj) in enumerate(found, start=1)
        if obj["correct"] is not True
    ]
    failures += hash_count_failures(found)
    for failure in failures:
        print(f"perf-smoke: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"perf-smoke: OK: {len(found)} workloads correct, cluster-stream "
        f"{HMACS} {CLUSTER_HMACS_PER_PKT}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
