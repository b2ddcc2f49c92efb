"""Coverage and response-time computation over URL timelines.

The paper's two key performance indicators (§4.4): **coverage** — the share
of URLs an entity detected/removed within the monitoring window — and
**response time** — minutes from a URL's first dataset appearance to the
entity's action. Both are computed here for arbitrary timeline subsets, so
the same code produces Table 3 (all FWB vs. all self-hosted), Table 4
(per-FWB), and the Figure 6/9 time curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..config import minutes_to_hhmm
from ..core.monitor import UrlTimeline
from .stats import coverage_fraction, median_or_none, min_max

#: Extractors for the offset of each measured entity on a timeline.
ENTITY_EXTRACTORS: Dict[str, Callable[[UrlTimeline], Optional[int]]] = {
    "gsb": lambda t: t.blocklist_offsets.get("gsb"),
    "phishtank": lambda t: t.blocklist_offsets.get("phishtank"),
    "openphish": lambda t: t.blocklist_offsets.get("openphish"),
    "ecrimex": lambda t: t.blocklist_offsets.get("ecrimex"),
    "platform": lambda t: t.post_removal_offset,
    "domain": lambda t: t.site_removal_offset,
}


@dataclass(frozen=True)
class CoverageStats:
    """Coverage + response-time summary for one entity over one subset."""

    entity: str
    n_urls: int
    coverage: float
    median_minutes: Optional[float]
    min_minutes: Optional[int]
    max_minutes: Optional[int]

    @property
    def median_hhmm(self) -> str:
        return "n/a" if self.median_minutes is None else minutes_to_hhmm(self.median_minutes)

    @property
    def min_max_hhmm(self) -> str:
        if self.min_minutes is None or self.max_minutes is None:
            return "n/a"
        return f"{minutes_to_hhmm(self.min_minutes)}/{minutes_to_hhmm(self.max_minutes)}"


def coverage_stats(
    timelines: Sequence[UrlTimeline],
    entity: str,
) -> CoverageStats:
    """Coverage/response stats for ``entity`` over ``timelines``."""
    extractor = ENTITY_EXTRACTORS[entity]
    offsets = [extractor(t) for t in timelines]
    low, high = min_max(offsets)
    return CoverageStats(
        entity=entity,
        n_urls=len(timelines),
        coverage=coverage_fraction(offsets),
        median_minutes=median_or_none([o for o in offsets if o is not None]),
        min_minutes=low,
        max_minutes=high,
    )


def coverage_over_time(
    timelines: Sequence[UrlTimeline],
    entity: str,
    hour_grid: Sequence[float],
) -> List[float]:
    """Coverage fraction at each horizon in ``hour_grid`` (Figures 6/9)."""
    extractor = ENTITY_EXTRACTORS[entity]
    offsets = [extractor(t) for t in timelines]
    n = max(len(offsets), 1)
    curve = []
    for hours in hour_grid:
        horizon = hours * 60.0
        curve.append(
            sum(1 for o in offsets if o is not None and o <= horizon) / n
        )
    return curve


def split_fwb_self(
    timelines: Sequence[UrlTimeline],
) -> Dict[str, List[UrlTimeline]]:
    """Partition timelines into the paper's two comparison populations."""
    return {
        "fwb": [t for t in timelines if t.is_fwb],
        "self_hosted": [t for t in timelines if not t.is_fwb],
    }


def group_by_fwb(
    timelines: Sequence[UrlTimeline],
) -> Dict[str, List[UrlTimeline]]:
    """Group FWB timelines by hosting service (Table 4 rows)."""
    groups: Dict[str, List[UrlTimeline]] = {}
    for timeline in timelines:
        if timeline.fwb_name is not None:
            groups.setdefault(timeline.fwb_name, []).append(timeline)
    return groups
