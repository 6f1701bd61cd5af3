"""Figure 7: average packets needed to identify the source.

"The average number of packets needed to unequivocally identify the
source, as a function of total path length", with 800 packets received per
run, averaged over the runs where identification succeeds.  Paper reading:
~55 packets on average for paths under 20 nodes; ~220 packets at 40 nodes.
The headline claim -- a mole 20 hops out is caught within about 50 packets
-- is this curve's low end.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.identification import expected_packets_to_identify
from repro.analysis.overhead import probability_for_target_marks
from repro.experiments.fastpath import identification_times, simulate_first_times
from repro.experiments.presets import QUICK, Preset
from repro.experiments.stats import mean_interval
from repro.experiments.tables import FigureResult

__all__ = ["PATH_LENGTHS", "run"]

PATH_LENGTHS = tuple(range(5, 55, 5))


def run(preset: Preset = QUICK, target_marks: float = 3.0) -> FigureResult:
    """Simulate Figure 7's identification-time curve."""
    columns = [
        "path_length",
        "avg_packets_to_identify",
        "ci95_half_width",
        "analytic_expectation",
        "success_rate",
    ]
    rows = []
    for n in PATH_LENGTHS:
        p = probability_for_target_marks(n, target_marks)
        times = simulate_first_times(
            n=n,
            p=p,
            packets=preset.budget,
            runs=preset.runs_fig7,
            seed=preset.seed + 2000 + n,
        )
        ident = identification_times(times)
        successes = ident[~np.isnan(ident)]
        if successes.size:
            interval = mean_interval([float(v) for v in successes])
            avg, half = interval.estimate, interval.half_width
        else:
            avg, half = float("nan"), float("nan")
        rows.append(
            [
                n,
                round(avg, 1),
                round(half, 1),
                round(expected_packets_to_identify(n, p), 1),
                round(successes.size / preset.runs_fig7, 3),
            ]
        )

    by_n = {r[0]: r[1] for r in rows}
    notes = [
        f"preset={preset.name}; {preset.runs_fig7} runs per path length, "
        f"budget {preset.budget} packets; averages over successful runs",
        f"n=20: {by_n.get(20)} packets (paper: ~55 for paths up to 20 nodes)",
        f"n=40: {by_n.get(40)} packets (paper: ~220)",
    ]
    return FigureResult(
        figure_id="fig7",
        title="Average packets needed to unequivocally identify the source",
        columns=columns,
        rows=rows,
        notes=notes,
    )
