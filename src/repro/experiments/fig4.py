"""Figure 4: analytical probability of collecting all marks.

"The probability that the sink collects marks from all n forwarding nodes
with x packets" -- the closed form ``(1 - (1-p)^x)^n`` with the average
marks per packet fixed at 3 (``p = 3/n``), for paths of 10, 20 and 30
nodes.  Paper reading: 90% confidence needs ~13 packets at n=10, ~33 at
n=20, ~54 at n=30.
"""

from __future__ import annotations

from repro.analysis.collection import collection_probability, packets_for_confidence
from repro.analysis.overhead import probability_for_target_marks
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult

__all__ = ["PATH_LENGTHS", "run"]

PATH_LENGTHS = (10, 20, 30)
_X_MAX = 80


def run(preset: Preset = QUICK, target_marks: float = 3.0) -> FigureResult:
    """Compute the Figure 4 series (purely analytical; preset only recorded).

    Args:
        preset: recorded in provenance notes (no Monte Carlo here).
        target_marks: average marks per packet (the paper's 3).
    """
    columns = ["packets"] + [f"P_all_n{n}" for n in PATH_LENGTHS]
    rows = []
    for x in range(1, _X_MAX + 1):
        row: list[object] = [x]
        for n in PATH_LENGTHS:
            p = probability_for_target_marks(n, target_marks)
            row.append(collection_probability(n, p, x))
        rows.append(row)

    notes = [f"preset={preset.name}; analytical, p = {target_marks}/n"]
    for n in PATH_LENGTHS:
        p = probability_for_target_marks(n, target_marks)
        notes.append(
            f"n={n}: 90% confidence at {packets_for_confidence(n, p, 0.9)} packets "
            f"(paper: ~{dict(zip(PATH_LENGTHS, (13, 33, 54), strict=True))[n]})"
        )
    return FigureResult(
        figure_id="fig4",
        title="P(all n forwarders' marks collected within x packets), np=3",
        columns=columns,
        rows=rows,
        notes=notes,
    )
