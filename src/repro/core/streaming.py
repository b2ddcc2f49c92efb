"""Streaming module (paper §4.1).

Polls Twitter (search API) and Facebook (CrowdTangle) every 10 minutes,
extracts URLs from fresh posts with the library's URL regex, and forwards
every new URL downstream tagged with its FWB service (None for the
self-hosted comparison stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import StreamError
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL
from ..simnet.web import Web
from ..social.facebook import CrowdTangleAPI
from ..social.posts import Post
from ..social.twitter import TwitterAPI


@dataclass(frozen=True)
class StreamObservation:
    """One URL observed in one post on one platform."""

    url: URL
    post: Post
    platform: str
    observed_at: int
    fwb_name: Optional[str]

    @property
    def is_fwb(self) -> bool:
        return self.fwb_name is not None


class StreamingModule:
    """The 10-minute social-stream poller."""

    def __init__(
        self,
        web: Web,
        twitter: TwitterAPI,
        crowdtangle: CrowdTangleAPI,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.web = web
        self.twitter = twitter
        self.crowdtangle = crowdtangle
        self._cursor: Optional[int] = None
        #: De-duplication across the whole run: each URL is handled once,
        #: at its first sighting.
        self._seen_urls: set = set()
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_posts = instr.counter("stream.posts_scanned")
        self._c_urls = instr.counter("stream.urls_extracted")
        self._c_duplicates = instr.counter("stream.urls_deduplicated")

    def poll(self, now: int) -> List[StreamObservation]:
        """Collect observations since the previous poll (or from 0)."""
        start = self._cursor if self._cursor is not None else 0
        if now < start:
            raise StreamError("stream polled backwards in time")
        observations: List[StreamObservation] = []
        posts: List[Tuple[str, Post]] = []
        posts += [("twitter", p) for p in self.twitter.search_recent(start, now)]
        posts += [("facebook", p) for p in self.crowdtangle.posts(start, now)]
        self._c_posts.inc(len(posts))
        for platform, post in posts:
            for url in post.urls:
                key = str(url)
                if key in self._seen_urls:
                    self._c_duplicates.inc()
                    continue
                self._seen_urls.add(key)
                self._c_urls.inc()
                service = self.web.fwb_for(url)
                observations.append(
                    StreamObservation(
                        url=url,
                        post=post,
                        platform=platform,
                        observed_at=now,
                        fwb_name=service.name if service is not None else None,
                    )
                )
        self._cursor = now
        return observations
