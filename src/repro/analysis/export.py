"""Export measurement artefacts to CSV and JSON.

The paper releases its dataset on request; this module is the library's
equivalent: campaign timelines, tables, and figure series serialize to
plain files for downstream analysis (pandas, R, spreadsheets).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import List, Sequence, Union

from ..core.monitor import UrlTimeline
from .coverage import CoverageStats
from .figures import SeriesFigure
from .tables import Table3Row, Table4Row

PathLike = Union[str, Path]


def timelines_to_rows(timelines: Sequence[UrlTimeline]) -> List[dict]:
    """Flatten timelines into one dict per URL (CSV-friendly)."""
    rows = []
    for timeline in timelines:
        row = {
            "url": timeline.url,
            "platform": timeline.platform,
            "fwb": timeline.fwb_name or "",
            "hosting": "fwb" if timeline.is_fwb else "self_hosted",
            "first_seen_min": timeline.first_seen,
            "site_removal_min": timeline.site_removal_offset,
            "post_removal_min": timeline.post_removal_offset,
            "vt_final": timeline.vt_final(),
        }
        for name, offset in timeline.blocklist_offsets.items():
            row[f"{name}_min"] = offset
        rows.append(row)
    return rows


def write_timelines_csv(timelines: Sequence[UrlTimeline], path: PathLike) -> Path:
    """Write one CSV row per monitored URL; returns the path written."""
    rows = timelines_to_rows(timelines)
    path = Path(path)
    if not rows:
        path.write_text("")
        return path
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return path


def _coverage_dict(stats: CoverageStats) -> dict:
    return {
        "n_urls": stats.n_urls,
        "coverage": stats.coverage,
        "median_minutes": stats.median_minutes,
        "min_minutes": stats.min_minutes,
        "max_minutes": stats.max_minutes,
    }


def table_to_dicts(rows: Sequence) -> List[dict]:
    """Serialize any Table1-4 row list into JSON-ready dicts."""
    out: List[dict] = []
    for row in rows:
        if isinstance(row, Table3Row):
            out.append({
                "entity": row.entity,
                "fwb": _coverage_dict(row.fwb),
                "self_hosted": _coverage_dict(row.self_hosted),
            })
        elif isinstance(row, Table4Row):
            out.append({
                "fwb": row.fwb,
                "n_urls": row.n_urls,
                "entities": {
                    name: _coverage_dict(stats)
                    for name, stats in row.entities.items()
                },
            })
        elif is_dataclass(row):
            out.append(asdict(row))
        else:
            raise TypeError(f"cannot export row of type {type(row).__name__}")
    return out


def write_table_json(rows: Sequence, path: PathLike) -> Path:
    path = Path(path)
    path.write_text(json.dumps(table_to_dicts(rows), indent=2))
    return path


def figure_to_dict(figure: SeriesFigure) -> dict:
    return {
        "title": figure.title,
        "x_label": figure.x_label,
        "x_values": list(figure.x_values),
        "series": {name: list(values) for name, values in figure.series.items()},
    }


def write_figure_json(figure: SeriesFigure, path: PathLike) -> Path:
    path = Path(path)
    path.write_text(json.dumps(figure_to_dict(figure), indent=2))
    return path


def write_figure_csv(figure: SeriesFigure, path: PathLike) -> Path:
    """Figure series as columns, x values as the first column."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([figure.x_label, *figure.series.keys()])
        for index, x in enumerate(figure.x_values):
            writer.writerow(
                [x, *(figure.series[name][index] for name in figure.series)]
            )
    return path
