"""Anti-phishing discovery crawlers: CT-log monitoring and search mining.

§3 ("Increased Difficulty of Discovery") explains *why* the ecosystem is
late to FWB attacks: its two main proactive discovery channels never see
them.

* **CT-log monitors** (Phish-Hook-style) watch Certificate Transparency for
  fresh certificates with phishy common names. Self-hosted attacks show up
  the moment their DV certificate is issued; FWB attacks ride their host's
  shared wildcard certificate and *never appear*.
* **Search-index crawlers** (Jail-Phish-style) mine search engines for
  brand-adjacent pages. Only 4.1% of FWB phishing URLs were indexed at all
  (no inbound links, 44.7% noindex), so this channel misses them too.

Both crawlers emit :class:`DiscoveredHost` events that can seed blocklists;
``bench_ablation_evasion.py`` quantifies the blind spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from ..simnet.tls import CTLog
from ..simnet.search import SearchIndex
from ..simnet.url import SENSITIVE_VOCABULARY
from ..sitegen.brands import BrandCatalog, default_brand_catalog


@dataclass(frozen=True)
class DiscoveredHost:
    """One host a discovery crawler flagged as a phishing candidate."""

    host: str
    channel: str          # "ct" or "search"
    discovered_at: int
    matched_token: str


class CTLogMonitor:
    """Scans new CT-log entries for suspicious common names.

    The matcher looks for brand tokens and sensitive vocabulary inside the
    certificate's common name — the standard heuristic of CT-based phishing
    classifiers (Drichel et al. 2021; Fasllija et al. 2019).
    """

    def __init__(
        self,
        ct_log: CTLog,
        catalog: Optional[BrandCatalog] = None,
    ) -> None:
        self.ct_log = ct_log
        catalog = catalog if catalog is not None else default_brand_catalog()
        self._tokens: List[str] = sorted(
            {token for brand in catalog for token in brand.tokens() if len(token) >= 4}
            | {token for token in SENSITIVE_VOCABULARY if len(token) >= 4}
        )
        self._cursor = 0
        self._seen: Set[str] = set()
        self.discovered: List[DiscoveredHost] = []

    def _match(self, common_name: str) -> Optional[str]:
        for token in self._tokens:
            if token in common_name:
                return token
        return None

    def poll(self, now: int) -> List[DiscoveredHost]:
        """Scan log entries appended since the previous poll.

        The cursor is an index into the append-only log, so back-dated
        certificates (issued with a past timestamp) are still observed.
        """
        fresh: List[DiscoveredHost] = []
        entries = self.ct_log.entries_from(self._cursor)
        self._cursor += len(entries)
        for entry in entries:
            common_name = entry.certificate.common_name
            if common_name in self._seen:
                continue
            self._seen.add(common_name)
            token = self._match(common_name)
            if token is not None:
                fresh.append(
                    DiscoveredHost(
                        host=common_name, channel="ct",
                        discovered_at=now,
                        matched_token=token,
                    )
                )
        self.discovered.extend(fresh)
        return fresh


class SearchIndexCrawler:
    """Mines the search index for brand-adjacent hosts.

    Queries every brand token (the Jail-Phish / search-engine-based
    discovery approach) and reports indexed hosts that are *not* the
    brand's own domain.
    """

    def __init__(
        self,
        search_index: SearchIndex,
        catalog: Optional[BrandCatalog] = None,
    ) -> None:
        self.search_index = search_index
        self.catalog = catalog if catalog is not None else default_brand_catalog()
        self._seen: Set[str] = set()
        self.discovered: List[DiscoveredHost] = []

    def poll(self, now: int) -> List[DiscoveredHost]:
        fresh: List[DiscoveredHost] = []
        for brand in self.catalog:
            for token in brand.tokens():
                if len(token) < 4:
                    continue
                for host in self.search_index.search_hosts(token):
                    if host in self._seen:
                        continue
                    # The brand's own web presence: exactly its registrable
                    # domain or a subdomain of it (a brand token smuggled
                    # into a *different* domain's host is the attack case).
                    legit = brand.legitimate_domain
                    if host == legit or host.endswith("." + legit):
                        continue
                    self._seen.add(host)
                    fresh.append(
                        DiscoveredHost(
                            host=host, channel="search",
                            discovered_at=now, matched_token=token,
                        )
                    )
        self.discovered.extend(fresh)
        return fresh


@dataclass
class DiscoveryReport:
    """How much of each attack population the proactive channels found."""

    n_fwb_attacks: int
    n_self_hosted_attacks: int
    fwb_found: int
    self_hosted_found: int
    events: List[DiscoveredHost] = field(default_factory=list)

    @property
    def fwb_discovery_rate(self) -> float:
        return self.fwb_found / self.n_fwb_attacks if self.n_fwb_attacks else 0.0

    @property
    def self_hosted_discovery_rate(self) -> float:
        return (
            self.self_hosted_found / self.n_self_hosted_attacks
            if self.n_self_hosted_attacks else 0.0
        )


def measure_discovery(
    web,
    fwb_hosts: Iterable[str],
    self_hosted_hosts: Iterable[str],
    now: int,
    catalog: Optional[BrandCatalog] = None,
) -> DiscoveryReport:
    """Run both crawlers and attribute discoveries to the two populations."""
    fwb_set = {h.lower() for h in fwb_hosts}
    self_set = {h.lower() for h in self_hosted_hosts}
    ct_monitor = CTLogMonitor(web.ct_log, catalog)
    crawler = SearchIndexCrawler(web.search_index, catalog)
    events = ct_monitor.poll(now) + crawler.poll(now)
    found_hosts = {event.host for event in events}
    return DiscoveryReport(
        n_fwb_attacks=len(fwb_set),
        n_self_hosted_attacks=len(self_set),
        fwb_found=len(found_hosts & fwb_set),
        self_hosted_found=len(found_hosts & self_set),
        events=events,
    )
