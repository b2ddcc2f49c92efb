"""Telemetry exporters: canonical JSON files and a text report view.

The JSON form is the interchange format — written by
``python -m repro campaign --export-dir`` and the benchmark harness,
validated in CI against ``docs/telemetry.schema.json``. The text form is
the human view behind ``python -m repro report``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

from .instrument import Instrumentation

PathLike = Union[str, Path]


def write_telemetry_json(
    instrumentation: Instrumentation,
    path: PathLike,
    include_events: bool = True,
) -> Path:
    """Serialize a telemetry snapshot to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        instrumentation.telemetry_json(include_events=include_events),
        encoding="utf-8",
    )
    return path


def load_telemetry(path: PathLike) -> dict:
    """Read a telemetry JSON document previously exported."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_telemetry(snapshot: dict) -> str:
    """Render a telemetry snapshot dict as a text report.

    Accepts the dict form produced by
    :meth:`~repro.obs.instrument.Instrumentation.telemetry` (or loaded
    back via :func:`load_telemetry`).
    """
    lines: List[str] = []
    mode = snapshot.get("mode", "?")
    lines.append(f"telemetry report (mode={mode})")
    lines.append("=" * len(lines[0]))

    metrics = snapshot.get("metrics", {})
    counters = metrics.get("counters", {})
    lines.append("")
    lines.append("counters")
    lines.append("--------")
    if counters:
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"{name:<{width}}  {counters[name]}")
    else:
        lines.append("(none)")

    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges")
        lines.append("------")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"{name:<{width}}  {_format_value(gauges[name])}")

    histograms = metrics.get("histograms", {})
    lines.append("")
    lines.append("histograms (count / p50 / p90 / p99 / max)")
    lines.append("------------------------------------------")
    if histograms:
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"{name:<{width}}  {h['count']:>8d}"
                f"  {_format_value(h['p50']):>10}"
                f"  {_format_value(h['p90']):>10}"
                f"  {_format_value(h['p99']):>10}"
                f"  {_format_value(h['max']):>10}"
            )
    else:
        lines.append("(none)")

    events = snapshot.get("events", {})
    by_kind = events.get("by_kind", {})
    lines.append("")
    lines.append(f"events (emitted={events.get('emitted', 0)})")
    lines.append("------")
    if by_kind:
        width = max(len(kind) for kind in by_kind)
        for kind in sorted(by_kind):
            lines.append(f"{kind:<{width}}  {by_kind[kind]}")
    else:
        lines.append("(none)")
    return "\n".join(lines)
