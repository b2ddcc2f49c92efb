"""Blocklist data sharing ("Friends of PhishTank"-style feeds).

§4.4 notes that PhishTank and OpenPhish contribute their data to many
anti-phishing tools and browsers, and APWG's eCrimeX shares with
organizational defenders. :class:`FeedNetwork` models those pipes: a
subscriber blocklist ingests every entry a publisher lists, after a
propagation lag.

This enables a policy experiment the paper motivates but could not run:
*would better feed-sharing close the FWB gap?* ``sharing_experiment``
answers it — sharing lifts every subscriber, but FWB coverage stays far
below even the unshared self-hosted baseline, because the community lists
discover few FWB attacks to share in the first place (the gap is in
discovery, not distribution). See ``benchmarks/bench_feed_sharing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..simnet.url import URL
from .blocklists import Blocklist


@dataclass(frozen=True)
class FeedLink:
    """One sharing pipe: publisher's entries flow into the subscriber."""

    publisher: str
    subscriber: str
    #: Minutes between the publisher listing a URL and the subscriber
    #: serving it (feed polling + ingestion pipelines).
    propagation_minutes: int = 60


class FeedNetwork:
    """A set of sharing pipes over named blocklists.

    The network does not mutate subscribers' own verdicts; it overlays
    shared listings, so ``effective_listing_time`` returns the earlier of a
    list's native decision and anything it received via feeds.
    """

    def __init__(
        self,
        blocklists: Dict[str, Blocklist],
        links: Sequence[FeedLink] = (),
    ) -> None:
        unknown = {
            name
            for link in links
            for name in (link.publisher, link.subscriber)
            if name not in blocklists
        }
        if unknown:
            raise KeyError(f"feed links reference unknown blocklists: {unknown}")
        self.blocklists = dict(blocklists)
        self.links = list(links)

    def effective_listing_time(self, name: str, url: URL) -> Optional[int]:
        """Listing time for ``name`` including everything shared to it."""
        times: List[int] = []
        native = self.blocklists[name].listing_time(url)
        if native is not None:
            times.append(native)
        for link in self.links:
            if link.subscriber != name:
                continue
            upstream = self.blocklists[link.publisher].listing_time(url)
            if upstream is not None:
                times.append(upstream + link.propagation_minutes)
        return min(times) if times else None

    def effective_contains(self, name: str, url: URL, now: int) -> bool:
        when = self.effective_listing_time(name, url)
        return when is not None and when <= now


#: The sharing topology §4.4 describes: the community lists feed GSB-class
#: consumers and each other's downstream tooling; eCrimeX feeds defenders.
DEFAULT_FEED_LINKS: Tuple[FeedLink, ...] = (
    FeedLink("phishtank", "gsb", propagation_minutes=90),
    FeedLink("openphish", "gsb", propagation_minutes=90),
    FeedLink("phishtank", "ecrimex", propagation_minutes=120),
    FeedLink("openphish", "ecrimex", propagation_minutes=120),
)


def sharing_experiment(
    blocklists: Dict[str, Blocklist],
    urls: Sequence[URL],
    horizon_minutes: int,
    links: Sequence[FeedLink] = DEFAULT_FEED_LINKS,
) -> Dict[str, Dict[str, float]]:
    """Coverage with and without feed sharing, per blocklist.

    Every URL must already have been ``observe``d by every blocklist;
    a URL counts as covered when its (effective) listing time falls at or
    before the absolute ``horizon_minutes``. Returns
    ``{name: {"native": cov, "with_sharing": cov}}``.
    """
    network = FeedNetwork(blocklists, links)
    out: Dict[str, Dict[str, float]] = {}
    n = max(len(urls), 1)
    for name, blocklist in blocklists.items():
        native = sum(
            1 for url in urls
            if (t := blocklist.listing_time(url)) is not None and t <= horizon_minutes
        )
        shared = sum(
            1 for url in urls
            if (t := network.effective_listing_time(name, url)) is not None
            and t <= horizon_minutes
        )
        out[name] = {"native": native / n, "with_sharing": shared / n}
    return out
