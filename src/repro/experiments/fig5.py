"""Figure 5: simulated mark-collection speed.

"The average percentage of nodes whose marks are collected by the sink in
the first x packets", for paths of 10, 20 and 30 nodes with ``np = 3``.
Paper reading: a 10-hop path yields marks from ~9 nodes within 7 packets;
20- and 30-hop paths reach 90% at about 14 and 22 packets.
"""

from __future__ import annotations

from repro.analysis.overhead import probability_for_target_marks
from repro.experiments.fastpath import collection_curve
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult

__all__ = ["PATH_LENGTHS", "run"]

PATH_LENGTHS = (10, 20, 30)


def run(preset: Preset = QUICK, target_marks: float = 3.0) -> FigureResult:
    """Simulate the Figure 5 collection curves.

    Args:
        preset: controls runs per path length and the x-axis extent.
        target_marks: average marks per packet (the paper's 3).
    """
    curves = {}
    for n in PATH_LENGTHS:
        p = probability_for_target_marks(n, target_marks)
        curves[n] = collection_curve(
            n=n,
            p=p,
            packets=preset.fig5_packets,
            runs=preset.runs_fig5,
            seed=preset.seed + n,
        )

    columns = ["packets"] + [f"pct_collected_n{n}" for n in PATH_LENGTHS]
    rows = []
    for x in range(1, preset.fig5_packets + 1):
        rows.append([x] + [100.0 * curves[n][x - 1] for n in PATH_LENGTHS])

    def packets_to_reach(n: int, fraction: float) -> int | None:
        for x in range(1, preset.fig5_packets + 1):
            if curves[n][x - 1] >= fraction:
                return x
        return None

    notes = [
        f"preset={preset.name}; {preset.runs_fig5} runs per path length",
        f"n=10: avg {curves[10][6] * 10:.1f} nodes collected in 7 packets (paper: ~9)",
        f"n=20: 90% at {packets_to_reach(20, 0.9)} packets (paper: ~14)",
        f"n=30: 90% at {packets_to_reach(30, 0.9)} packets (paper: ~22)",
    ]
    return FigureResult(
        figure_id="fig5",
        title="Average % of nodes whose marks are collected in first x packets",
        columns=columns,
        rows=rows,
        notes=notes,
    )
