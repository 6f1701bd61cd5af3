"""Run every ``perfbench`` workload briefly and check its outputs.

``perfbench/run.py`` checks each workload's results (the merged cluster
verdict equals one sink's, the one-hop floors hold ...) and reports the
outcome as ``"correct"`` in the JSON object that ends each workload's
output, but it exits 0 either way.  This smoke run fails unless the run
exits 0 and every workload declared in ``BENCHMARK.json`` printed a JSON
line with ``"correct": true``.  Its timings are too short to mean
anything and are not checked, but two counts are: the traced
``cluster-stream`` run must report exactly the :data:`CLUSTER_COUNTS`.

* ``traceback.hmacs_per_pkt``: the ledger counts a hash only when it
  goes through the provider's ``mac``/``anon_id`` attributes, so a sink
  that hashed some other way (a bound method cached before the ledger
  patched the provider) would read fewer hashes than it does; so would
  one that skipped a check.
* ``traceback.fallbacks_per_pkt``: the honest stream's only exhaustive
  fallbacks are the 10 warm-up misses before the learned routes cover
  its sources, so a scan that counts a fallback it did not take, or
  takes one it should not, reads more.

Run as ``make perf-smoke`` (or ``python3 benchmarks/check_perf_smoke.py``)
from the repository root.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMAND = ["perfbench/run.py", "--workload", "all", "--seconds", "1", "--trace", "1"]
#: Packets the traced ``cluster-stream`` run verifies.
CLUSTER_PACKETS = 1200
#: Honest ``cluster-stream`` per-packet counts (seed 1), as totals over
#: :data:`CLUSTER_PACKETS`: sink hashes and exhaustive fallbacks.
CLUSTER_COUNTS = {
    "traceback.hmacs_per_pkt": 88_914,
    "traceback.fallbacks_per_pkt": 10,
}


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


def count_failures(found: list[tuple[str | None, dict]]) -> list[str]:
    """Why the traced ``cluster-stream`` line's pinned counts are off, if
    they are."""
    lines = [obj for workload, obj in found if workload == "cluster-stream"]
    if not lines:
        return ["no cluster-stream result line"]
    metrics = lines[0].get("metrics", {})
    failures = []
    for name, total in CLUSTER_COUNTS.items():
        expected = total / CLUSTER_PACKETS
        metric = metrics.get(name)
        if metric is None:
            failures.append(f"cluster-stream reports no {name}")
        elif not math.isclose(metric["value"], expected, rel_tol=0.0, abs_tol=1e-9):
            failures.append(
                f"cluster-stream {name} {metric['value']:.6g}, expected {expected:.6g}"
            )
    return failures


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
    failures += count_failures(found)
    for failure in failures:
        print(f"perf-smoke: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    pinned = ", ".join(
        f"{name} {total / CLUSTER_PACKETS:.6g}" for name, total in CLUSTER_COUNTS.items()
    )
    print(f"perf-smoke: OK: {len(found)} workloads correct, cluster-stream {pinned}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
