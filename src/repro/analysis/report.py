"""Plain-text table formatting shared by every reporting surface.

The paper-figure benchmarks print the rows/series of the table or figure
they regenerate, and the serving runtime and soak harness print their
reports through the same formatter, so all output stays consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class Table:
    """A simple column-aligned text table."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        return format_table(self.title, self.headers, self.rows)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 1000 else f"{cell:.1f}"
    return str(cell)


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a column-aligned table with a title and a header rule."""
    text_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, ""]
    header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
