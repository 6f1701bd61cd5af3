"""Result containers and ASCII table rendering for experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["FigureResult", "format_table"]


@dataclass
class FigureResult:
    """One reproduced figure/table: rows plus provenance.

    Attributes:
        figure_id: e.g. ``"fig6"``.
        title: the paper's caption, abbreviated.
        columns: column headers, x-axis first.
        rows: data rows matching ``columns``.
        notes: free-form provenance (preset, runs, expectations).
        extra: machine-readable side outputs (e.g. the ``slo`` block the
            cluster/watchdog sweeps derive from federated telemetry);
            merged verbatim into the run manifest's ``extra`` by the
            experiments CLI.
        checks: the claims the run verified, by name (e.g. the honest
            false-accusation rate was 0.0); the experiments CLI exits
            non-zero when any is ``False``.
    """

    figure_id: str
    title: str
    columns: list[str]
    rows: list[list[Any]]
    notes: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)

    def column(self, name: str) -> list[Any]:
        """Extract one column by header name."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by column headers."""
        return [dict(zip(self.columns, row, strict=True)) for row in self.rows]

    def render(self) -> str:
        """The figure as an ASCII table with a caption and notes."""
        lines = [f"== {self.figure_id}: {self.title} =="]
        lines.append(format_table(self.columns, self.rows))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") if value == value else "nan"
    return str(value)


def format_table(columns: list[str], rows: list[list[Any]]) -> str:
    """Render an aligned ASCII table."""
    rendered = [[_fmt_cell(c) for c in row] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in rendered)) if rendered else len(columns[i])
        for i in range(len(columns))
    ]
    def line(cells: list[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out = [line(columns), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rendered)
    return "\n".join(out)
