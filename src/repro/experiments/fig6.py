"""Figure 6: identification failures vs path length.

"The number of runs, out of 100 simulations, in which the sink fails to
unequivocally identify the source, as a function of total path length",
for budgets of 200, 400, 600 and 800 received packets and path lengths 5
to 50.  Paper reading: 200 packets suffice up to 20 hops, 400 up to 30
hops; only 50-hop paths need ~800 packets to push failures below ~5%.
"""

from __future__ import annotations

from repro.analysis.overhead import probability_for_target_marks
from repro.experiments.fastpath import failure_counts, simulate_first_times
from repro.experiments.presets import QUICK, Preset
from repro.experiments.stats import wilson_interval
from repro.experiments.tables import FigureResult

__all__ = ["PATH_LENGTHS", "BUDGETS", "run"]

PATH_LENGTHS = tuple(range(5, 55, 5))
BUDGETS = (200, 400, 600, 800)


def run(preset: Preset = QUICK, target_marks: float = 3.0) -> FigureResult:
    """Simulate Figure 6's failure counts.

    Failure counts are scaled to "per 100 runs" so presets with other run
    counts remain comparable to the paper's raw numbers.
    """
    columns = ["path_length"] + [f"failures_per100_b{b}" for b in BUDGETS]
    rows = []
    worst_interval = None
    for n in PATH_LENGTHS:
        p = probability_for_target_marks(n, target_marks)
        times = simulate_first_times(
            n=n,
            p=p,
            packets=max(BUDGETS),
            runs=preset.runs_fig6,
            seed=preset.seed + 1000 + n,
        )
        counts = failure_counts(times, list(BUDGETS))
        rows.append(
            [n]
            + [round(100.0 * counts[b] / preset.runs_fig6, 1) for b in BUDGETS]
        )
        if n == max(PATH_LENGTHS):
            worst_interval = wilson_interval(
                counts[max(BUDGETS)], preset.runs_fig6
            )

    notes = [
        f"preset={preset.name}; {preset.runs_fig6} runs per path length, "
        f"scaled to failures per 100 runs",
        "paper shape: ~0 failures for n<=20 @ 200 pkts and n<=30 @ 400 pkts; "
        "n=50 needs ~800 pkts for <~5%",
    ]
    if worst_interval is not None:
        notes.append(
            f"n={max(PATH_LENGTHS)} @ {max(BUDGETS)} pkts failure rate: "
            f"{worst_interval} (Wilson 95%)"
        )
    return FigureResult(
        figure_id="fig6",
        title="Runs (per 100) where the source is not unequivocally identified",
        columns=columns,
        rows=rows,
        notes=notes,
    )
