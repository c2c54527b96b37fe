"""Plain-text report formatting for experiment results.

The scorecard records the rows/series a figure reports; these helpers
format them as aligned text tables so ``SCORECARD.md`` (written by
``python -m benchmarks.scorecard``) is directly comparable to the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["format_table", "MetricsReport"]


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and (abs(value) < 10 ** (-precision) or abs(value) >= 10**7):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    precision: int = 3,
    title: str = "",
) -> str:
    """Render rows (list of dicts) as an aligned plain-text table.

    Parameters
    ----------
    rows:
        The data; missing keys render as empty cells.
    columns:
        Column order; defaults to the keys of the first row.
    precision:
        Decimal places for float values.
    title:
        Optional heading printed above the table.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in cols]]
    for row in rows:
        rendered.append([_format_value(row.get(c, ""), precision) for c in cols])
    widths = [max(len(line[i]) for line in rendered) for i in range(len(cols))]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(rendered[0]))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(cols))))
    for line in rendered[1:]:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)


@dataclass
class MetricsReport:
    """A named collection of result tables produced by one experiment.

    The experiment harness assembles a report per figure; the scorecard
    records it and ``SCORECARD.md`` renders it.
    """

    title: str
    sections: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_section(self, name: str, rows: List[Dict[str, object]]) -> None:
        """Add (or replace) a table under ``name``."""
        self.sections[name] = rows

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self, precision: int = 3) -> str:
        """Render the whole report as plain text."""
        parts = [f"== {self.title} =="]
        for name, rows in self.sections.items():
            parts.append("")
            parts.append(format_table(rows, precision=precision, title=f"-- {name} --"))
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()
