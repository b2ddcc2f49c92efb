"""Analysis module (paper §4.4): longitudinal effectiveness measurement.

For every URL entering the dataset the module tracks, on the paper's
10-minute polling grid:

* presence on each of the four blocklists;
* VirusTotal engine detections (sampled at 3 h, 6 h, then daily to 7 days);
* liveness of the hosting website (FWB takedown / registrar takedown),
  over the two-week takedown window;
* liveness of the social post that carried the URL.

Timelines record *offsets from first appearance in the dataset*, which is
exactly what the paper's coverage/response-time metrics are computed over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import (
    MONITOR_WINDOW_MINUTES,
    STREAM_INTERVAL_MINUTES,
    TAKEDOWN_WINDOW_MINUTES,
)
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..ecosystem.blocklists import Blocklist
from ..ecosystem.virustotal import VirusTotal
from ..simnet.url import URL
from ..simnet.web import Web
from ..social.platform import SocialPlatform
from .streaming import StreamObservation

#: VT sampling offsets (minutes): 3 h, 6 h, then daily through one week.
VT_SAMPLE_OFFSETS: Tuple[int, ...] = (
    180, 360, *(day * 24 * 60 for day in range(1, 8)),
)


def _round_up_to_poll(offset: Optional[int], interval: int) -> Optional[int]:
    """A 10-minute poll observes an event at the next grid point."""
    if offset is None:
        return None
    if offset <= 0:
        return interval
    remainder = offset % interval
    return offset if remainder == 0 else offset + (interval - remainder)


@dataclass
class UrlTimeline:
    """Everything measured about one URL over the monitoring window."""

    url: str
    platform: str
    fwb_name: Optional[str]
    first_seen: int
    is_phishing_truth: bool = True
    #: Blocklist name -> minutes from first_seen to listing (None = missed).
    blocklist_offsets: Dict[str, Optional[int]] = field(default_factory=dict)
    #: Minutes to site takedown by the host (None = still up at window end).
    site_removal_offset: Optional[int] = None
    #: Minutes to post removal by the platform (None = still live).
    post_removal_offset: Optional[int] = None
    #: (offset_minutes, VT positives) samples.
    vt_samples: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def is_fwb(self) -> bool:
        return self.fwb_name is not None

    def vt_final(self) -> int:
        return self.vt_samples[-1][1] if self.vt_samples else 0

    def vt_at(self, offset: int) -> int:
        """Detections at the latest sample not after ``offset``."""
        best = 0
        for sample_offset, positives in self.vt_samples:
            if sample_offset <= offset:
                best = positives
        return best


class AnalysisModule:
    """Tracks URLs and resolves their timelines against the ecosystem."""

    def __init__(
        self,
        web: Web,
        blocklists: Dict[str, Blocklist],
        virustotal: VirusTotal,
        platforms: Dict[str, SocialPlatform],
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.web = web
        self.blocklists = dict(blocklists)
        self.virustotal = virustotal
        self.platforms = dict(platforms)
        self._tracked: List[StreamObservation] = []
        self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_tracked = self.instr.counter("monitor.tracked")
        self._c_resolved = self.instr.counter("monitor.timelines_resolved")

    def track(self, observation: StreamObservation) -> None:
        """Start monitoring a URL (also primes blocklist/VT first-sight)."""
        self._tracked.append(observation)
        self._c_tracked.inc()
        for blocklist in self.blocklists.values():
            blocklist.observe(observation.url, observation.observed_at)
        self.virustotal.scan(observation.url, observation.observed_at)

    @property
    def n_tracked(self) -> int:
        return len(self._tracked)

    # -- timeline resolution -----------------------------------------------------

    def _blocklist_offset(
        self, blocklist: Blocklist, url: URL, first_seen: int
    ) -> Optional[int]:
        listed_at = blocklist.listing_time(url)
        if listed_at is None:
            return None
        offset = listed_at - first_seen
        offset = _round_up_to_poll(offset, STREAM_INTERVAL_MINUTES)
        if offset is None or offset > MONITOR_WINDOW_MINUTES:
            return None
        return offset

    def _site_removal_offset(self, url: URL, first_seen: int) -> Optional[int]:
        site = self.web.site_for(url)
        if site is None or site.removed_at is None:
            return None
        offset = _round_up_to_poll(site.removed_at - first_seen, STREAM_INTERVAL_MINUTES)
        if offset is None or offset > TAKEDOWN_WINDOW_MINUTES:
            return None
        return offset

    def _post_removal_offset(self, observation: StreamObservation) -> Optional[int]:
        platform = self.platforms.get(observation.platform)
        if platform is None:
            return None
        post = platform.get_post(observation.post.post_id)
        if post is None or post.removed_at is None:
            return None
        offset = post.removed_at - observation.observed_at
        offset = _round_up_to_poll(offset, STREAM_INTERVAL_MINUTES)
        if offset is None or offset > MONITOR_WINDOW_MINUTES:
            return None
        return offset

    def resolve(
        self,
        observation: StreamObservation,
        truth_label: bool = True,
    ) -> UrlTimeline:
        """Resolve one observation's complete timeline."""
        first_seen = observation.observed_at
        timeline = UrlTimeline(
            url=str(observation.url),
            platform=observation.platform,
            fwb_name=observation.fwb_name,
            first_seen=first_seen,
            is_phishing_truth=truth_label,
        )
        for name, blocklist in self.blocklists.items():
            timeline.blocklist_offsets[name] = self._blocklist_offset(
                blocklist, observation.url, first_seen
            )
        timeline.site_removal_offset = self._site_removal_offset(
            observation.url, first_seen
        )
        timeline.post_removal_offset = self._post_removal_offset(observation)
        for offset in VT_SAMPLE_OFFSETS:
            report = self.virustotal.scan(observation.url, first_seen + offset)
            timeline.vt_samples.append((offset, report.positives))
        return timeline

    def resolve_all(
        self,
        truth: Optional[Dict[str, bool]] = None,
    ) -> List[UrlTimeline]:
        """Resolve timelines for every tracked URL."""
        timelines = []
        for observation in self._tracked:
            label = True if truth is None else truth.get(str(observation.url), True)
            timelines.append(self.resolve(observation, label))
        self._c_resolved.inc(len(timelines))
        return timelines
