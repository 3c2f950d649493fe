"""Cross-figure summary: condense ``results/`` into one digest.

After ``freqdedup figure all --save results`` has populated the results
directory, :func:`summarize_results` extracts the headline number of every
reproduced figure and pairs it with the paper's reported value, producing
the table EXPERIMENTS.md quotes. Exposed as ``freqdedup report``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ConfigurationError

# (figure file stem, headline description, paper value) and an extractor
# over the parsed JSON rows.


@dataclass(frozen=True)
class SummaryLine:
    figure: str
    metric: str
    paper: str
    measured: str


def _rows(payload: dict) -> list[list]:
    return payload["rows"]


def _find(payload: dict, **filters) -> list[list]:
    columns = payload["columns"]
    indices = {name: columns.index(name) for name in filters}
    return [
        row
        for row in payload["rows"]
        if all(row[indices[name]] == value for name, value in filters.items())
    ]


def _last_rate(payload: dict, **filters) -> float:
    rows = _find(payload, **filters)
    if not rows:
        raise ConfigurationError(f"no rows matching {filters}")
    return float(rows[-1][-1])


def summarize_results(directory: str | os.PathLike = "results") -> list[SummaryLine]:
    """Build the headline digest from a populated results directory."""
    directory = Path(directory)

    def load(stem: str) -> dict | None:
        path = directory / f"{stem}.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    lines: list[SummaryLine] = []

    payload = load("figure_1")
    if payload:
        fsl = _find(payload, dataset="fsl")
        if fsl:
            lines.append(
                SummaryLine(
                    "Fig 1",
                    "FSL fraction of chunks occurring <100 times",
                    "99.8%",
                    f"{float(fsl[0][3]):.1%}",
                )
            )

    payload = load("figure_5")
    if payload:
        lines.append(
            SummaryLine(
                "Fig 5",
                "FSL locality attack, most recent auxiliary",
                "23.2%",
                f"{_last_rate(payload, dataset='fsl', attack='locality'):.1%}",
            )
        )
        lines.append(
            SummaryLine(
                "Fig 5",
                "FSL advanced attack, most recent auxiliary",
                "33.6%",
                f"{_last_rate(payload, dataset='fsl', attack='advanced'):.1%}",
            )
        )
        lines.append(
            SummaryLine(
                "Fig 5",
                "VM locality attack, most recent auxiliary",
                "14.5%",
                f"{_last_rate(payload, dataset='vm', attack='locality'):.1%}",
            )
        )

    payload = load("figure_8")
    if payload:
        lines.append(
            SummaryLine(
                "Fig 8",
                "FSL locality attack at 0.2% leakage",
                "27.5%",
                f"{_last_rate(payload, dataset='fsl', attack='locality'):.1%}",
            )
        )

    payload = load("figure_10")
    if payload:
        lines.append(
            SummaryLine(
                "Fig 10",
                "combined defense vs advanced attack at 0.2% leakage (FSL)",
                "0.20-0.24%",
                f"{_last_rate(payload, dataset='fsl', scheme='combined'):.2%}",
            )
        )

    payload = load("figure_11")
    if payload:
        mle = _find(payload, dataset="storage-fsl", scheme="mle")
        combined = _find(payload, dataset="storage-fsl", scheme="combined")
        if mle and combined:
            loss = float(mle[-1][-1]) - float(combined[-1][-1])
            lines.append(
                SummaryLine(
                    "Fig 11",
                    "storage-saving loss of combined vs MLE (FSL-style)",
                    "3.6pp",
                    f"{100 * loss:.1f}pp",
                )
            )

    payload = load("figure_13")
    if payload:
        mle = _find(payload, scheme="mle")
        combined = _find(payload, scheme="combined")
        if mle and combined:
            lines.append(
                SummaryLine(
                    "Fig 13",
                    "first-backup metadata access, combined vs MLE",
                    "combined cheaper",
                    "combined cheaper"
                    if float(combined[0][-1]) < float(mle[0][-1])
                    else "MLE cheaper",
                )
            )

    if not lines:
        raise ConfigurationError(
            f"no figure results under {directory}; run "
            "`freqdedup figure all --save DIR` first"
        )
    return lines


def render_summary(lines: list[SummaryLine]) -> str:
    """Align the digest as an ASCII table."""
    headers = ("figure", "metric", "paper", "measured")
    table = [headers] + [
        (line.figure, line.metric, line.paper, line.measured) for line in lines
    ]
    widths = [max(len(row[i]) for row in table) for i in range(4)]
    rendered = []
    for index, row in enumerate(table):
        rendered.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            rendered.append("  ".join("-" * width for width in widths))
    return "\n".join(rendered)
