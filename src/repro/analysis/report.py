"""Plain-text rendering of tables and figures.

The benchmark harness prints these so a run's output reads like the paper's
evaluation section.
"""

from __future__ import annotations

from typing import Sequence

from .coverage import CoverageStats
from .figures import SeriesFigure
from .tables import Table1Row, Table2Row, Table3Row, Table4Row


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table."""
    columns = [list(column) for column in zip(headers, *rows)]
    widths = [max(len(cell) for cell in column) for column in columns]
    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def render_table1(rows: Sequence[Table1Row]) -> str:
    body = [
        [
            row.fwb,
            str(row.n_sites),
            f"{row.median_similarity * 100:.1f}%",
            "n/a" if row.paper_similarity is None else f"{row.paper_similarity * 100:.1f}%",
        ]
        for row in rows
    ]
    return format_table(
        ["FWB", "# sites", "measured median sim", "paper median sim"], body
    )


def render_table2(rows: Sequence[Table2Row]) -> str:
    body = [
        [
            row.model,
            f"{row.accuracy:.2f}",
            f"{row.precision:.2f}",
            f"{row.recall:.2f}",
            f"{row.f1:.2f}",
            f"{row.total_time_seconds:.2f}",
            f"{row.median_runtime_seconds * 1000:.1f}ms",
        ]
        for row in rows
    ]
    return format_table(
        ["Model", "Acc", "Prec", "Rec", "F1", "Total(s)", "Median"], body
    )


def render_table3(rows: Sequence[Table3Row]) -> str:
    body = [
        [
            row.entity,
            f"{row.fwb.coverage * 100:.1f}%",
            row.fwb.min_max_hhmm,
            row.fwb.median_hhmm,
            f"{row.self_hosted.coverage * 100:.1f}%",
            row.self_hosted.min_max_hhmm,
            row.self_hosted.median_hhmm,
        ]
        for row in rows
    ]
    return format_table(
        [
            "Method", "FWB cov", "FWB min/max", "FWB median",
            "Self cov", "Self min/max", "Self median",
        ],
        body,
    )


def render_table4(rows: Sequence[Table4Row]) -> str:
    headers = ["FWB", "URLs"]
    entities = list(rows[0].entities) if rows else []
    for entity in entities:
        headers += [f"{entity} cov", f"{entity} med"]
    body = []
    for row in rows:
        cells = [row.fwb, str(row.n_urls)]
        for entity in entities:
            stats: CoverageStats = row.entities[entity]
            cells += [f"{stats.coverage * 100:.1f}%", stats.median_hhmm]
        body.append(cells)
    return format_table(headers, body)


def render_figure(figure: SeriesFigure, precision: int = 3) -> str:
    headers = [figure.x_label] + list(figure.series)
    body = []
    for index, x in enumerate(figure.x_values):
        row = [str(x)]
        for name in figure.series:
            value = figure.series[name][index]
            row.append(f"{value:.{precision}f}")
        body.append(row)
    return figure.title + "\n" + format_table(headers, body)


def render_rows(rows) -> str:
    """Dispatch on row type."""
    if not rows:
        return "(empty)"
    first = rows[0]
    if isinstance(first, Table1Row):
        return render_table1(rows)
    if isinstance(first, Table2Row):
        return render_table2(rows)
    if isinstance(first, Table3Row):
        return render_table3(rows)
    if isinstance(first, Table4Row):
        return render_table4(rows)
    if isinstance(rows, SeriesFigure):
        return render_figure(rows)
    raise TypeError(f"cannot render rows of type {type(first).__name__}")
