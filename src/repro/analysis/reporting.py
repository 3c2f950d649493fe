"""Rendering and persistence for reproduced figures.

Every experiment driver in :mod:`repro.analysis.figures` returns a
:class:`FigureResult` — the series the corresponding paper figure plots,
as rows. ``freqdedup figure --save DIR`` renders these as aligned ASCII
tables under ``DIR`` (``results/`` by convention), so paper-vs-measured
comparisons can be regenerated with one command.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class FigureResult:
    """A reproduced figure: labelled columns and data rows."""

    figure: str
    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, expected {len(self.columns)}"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[object]:
        """All values of one column, by name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_table(result: FigureResult) -> str:
    """Render a :class:`FigureResult` as an aligned ASCII table."""
    header = [result.columns]
    body = [[_format_cell(v) for v in row] for row in result.rows]
    widths = [
        max(len(row[i]) for row in header + body)
        for i in range(len(result.columns))
    ]
    lines = [f"# {result.figure}: {result.title}"]
    lines.append(
        "  ".join(name.ljust(width) for name, width in zip(result.columns, widths))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in body:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def save_result(
    result: FigureResult, directory: str | os.PathLike = "results"
) -> Path:
    """Write the rendered table (and a JSON twin) under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = result.figure.lower().replace(" ", "_").replace("/", "-")
    text_path = directory / f"{stem}.txt"
    text_path.write_text(render_table(result) + "\n", encoding="utf-8")
    json_path = directory / f"{stem}.json"
    json_path.write_text(
        json.dumps(
            {
                "figure": result.figure,
                "title": result.title,
                "columns": result.columns,
                "rows": result.rows,
                "notes": result.notes,
            },
            indent=2,
            default=str,
        ),
        encoding="utf-8",
    )
    return text_path
