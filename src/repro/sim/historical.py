"""The §2 historical study: building dataset D1 from raw social streams.

The paper's two-year retrospective works bottom-up:

1. collect URLs from Twitter/Facebook that contain a **distinct
   second-level domain** (``mywebsite.000webhost.com`` → ``000webhost``) —
   the filter that targets sites *created under another domain*;
2. scan each URL with VirusTotal and label it phishing at **≥ 2 engine
   detections** (the literature's threshold);
3. keep the URLs on the 17 FWB services (25.2K = 16.3K Twitter + 8.9K
   Facebook); set aside dynamic-DNS/CDN subdomain hosts (DuckDNS, Netlify,
   ...) as out of scope.

:class:`HistoricalPipeline` reproduces that pipeline over a generated
two-year URL stream that mixes FWB phishing, FWB benign sites, dynamic-DNS
phishing (the out-of-scope population), and apex-domain links the SLD
filter must drop. The output :class:`D1Dataset` feeds Figure 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..core.preprocess import Preprocessor
from ..ecosystem.intel import IntelService
from ..ecosystem.virustotal import VirusTotal
from ..simnet.url import URL, parse_url
from ..simnet.web import Web
from ..sitegen.brands import default_brand_catalog
from ..sitegen.legitimate import LegitimateSiteGenerator
from ..sitegen.phishing import PhishingSiteGenerator
from .scenario import HistoricalScenario, QuarterSeries

#: Detection threshold for labelling a URL phishing (§2, citing [71,74,87]).
VT_PHISHING_THRESHOLD = 2

#: Benign FWB URLs per phishing URL in the raw stream.
BENIGN_NOISE_RATIO = 0.6

#: Dynamic-DNS phishing per FWB phishing (the out-of-scope mass).
DYNDNS_RATIO = 0.35

#: Apex-domain URLs (no subdomain) that the SLD filter drops.
APEX_RATIO = 0.4

#: Subdomain providers that are *not* FWBs (§2 sets these aside; Interisle
#: tracks them as Dynamic DNS / deployment platforms).
DYNDNS_PROVIDERS: Tuple[Tuple[str, str], ...] = (
    ("duckdns", "duckdns.org"),
    ("netlify", "netlify.app"),
    ("noip", "ddns.net"),
    ("herokuapp", "herokuapp.com"),
)


@dataclass
class StreamUrl:
    """One URL observed in the historical social stream."""

    url: URL
    platform: str
    month: int  # 0-based month since Jan 2020


@dataclass
class D1Dataset:
    """The paper's initial dataset D1 plus pipeline book-keeping."""

    fwb_phishing: List[StreamUrl] = field(default_factory=list)
    dyndns_phishing: List[StreamUrl] = field(default_factory=list)
    benign_or_undetected: int = 0
    dropped_no_sld: int = 0

    @property
    def n_twitter(self) -> int:
        return sum(1 for s in self.fwb_phishing if s.platform == "twitter")

    @property
    def n_facebook(self) -> int:
        return sum(1 for s in self.fwb_phishing if s.platform == "facebook")

    def quarterly_counts(self) -> Dict[Tuple[int, str], int]:
        """(quarter, platform) -> count, the Figure 1 series."""
        counts: Counter = Counter()
        for sample in self.fwb_phishing:
            counts[(sample.month // 3, sample.platform)] += 1
        return dict(counts)

    def fwb_mix_by_quarter(self) -> Dict[int, Counter]:
        mix: Dict[int, Counter] = {}
        for sample in self.fwb_phishing:
            mix.setdefault(sample.month // 3, Counter())[
                sample.url.second_level_domain
            ] += 1
        return mix


class HistoricalPipeline:
    """Generates the two-year stream and runs the §2 labelling pipeline."""

    def __init__(self, seed: int = 23) -> None:
        self.web = Web()
        self.scenario = HistoricalScenario(seed=seed)
        self.seed = seed
        self._register_dyndns_providers()

    def _register_dyndns_providers(self) -> None:
        for name, domain in DYNDNS_PROVIDERS:
            if domain not in self.web.registry:
                self.web.registry.register(
                    domain, registered_at=-9 * 365 * 24 * 60, registrant=name
                )

    # -- stream generation ------------------------------------------------------

    def _make_dyndns_phishing(self, rng: np.random.Generator, now: int) -> URL:
        """A phishing page on a dynamic-DNS subdomain (out of scope)."""
        name, domain = DYNDNS_PROVIDERS[int(rng.integers(len(DYNDNS_PROVIDERS)))]
        catalog = default_brand_catalog()
        brand = catalog.sample(rng)
        host = f"{brand.slug}-{int(rng.integers(1, 10 ** 6))}.{domain}"
        try:
            self.web.registry.add_subdomain(domain, host)
        except Exception:
            host = f"x{int(rng.integers(10 ** 9))}.{domain}"
            self.web.registry.add_subdomain(domain, host)
        # Host a minimal credential page so VT can score it.
        from ..simnet.hosting import HostedSite

        site = HostedSite(root_url=parse_url(f"https://{host}/"), created_at=now,
                          owner="attacker")
        site.add_page(
            "/",
            f"<html><head><title>{brand.name} - Sign In</title></head>"
            f"<body><h1>{brand.name}</h1><form action='/gate.php'>"
            f"<input type='email' name='email'>"
            f"<input type='password' name='password'></form></body></html>",
        )
        site.metadata.update({"is_phishing": True, "brand": brand.slug})
        provider = self.web.self_hosting
        provider._sites[host] = site  # hosted off-registry, like real DDNS
        return site.root_url

    def generate_stream(
        self, scale: float = 0.02
    ) -> Tuple[List[StreamUrl], QuarterSeries]:
        """Generate the raw two-year URL stream at ``scale`` of D1's size."""
        rng = np.random.default_rng(self.seed)
        quarters = self.scenario.generate()
        phishing_generator = PhishingSiteGenerator()
        benign_generator = LegitimateSiteGenerator()
        stream: List[StreamUrl] = []
        minute = 0
        for quarter_index, per_fwb in enumerate(quarters.by_fwb):
            twitter_total = quarters.twitter[quarter_index]
            quarter_total = twitter_total + quarters.facebook[quarter_index]
            twitter_share = twitter_total / max(quarter_total, 1)
            for fwb_name, count in per_fwb.items():
                provider = self.web.fwb_providers[fwb_name]
                for _ in range(int(round(count * scale))):
                    minute += 10
                    month = min(quarter_index * 3 + int(rng.integers(3)), 31)
                    platform = "twitter" if rng.random() < twitter_share else "facebook"
                    site = phishing_generator.create_site(provider, minute, rng)
                    stream.append(StreamUrl(site.root_url, platform, month))
                    if rng.random() < BENIGN_NOISE_RATIO:
                        benign = benign_generator.create_fwb_site(
                            provider, minute, rng
                        )
                        stream.append(StreamUrl(benign.root_url, platform, month))
                    if rng.random() < DYNDNS_RATIO:
                        stream.append(
                            StreamUrl(
                                self._make_dyndns_phishing(rng, minute),
                                platform, month,
                            )
                        )
                    if rng.random() < APEX_RATIO:
                        # A link to some apex domain: no SLD, filtered out.
                        stream.append(
                            StreamUrl(
                                parse_url(
                                    f"https://news{int(rng.integers(10 ** 6))}.com/a"
                                ),
                                platform, month,
                            )
                        )
        rng.shuffle(stream)  # type: ignore[arg-type]
        return stream, quarters

    # -- the labelling pipeline ---------------------------------------------------

    def run(self, scale: float = 0.02) -> D1Dataset:
        """Run SLD filtering + VT labelling over the generated stream."""
        stream, _quarters = self.generate_stream(scale)
        intel = IntelService(self.web, Preprocessor(self.web))
        from ..ecosystem.engines import default_engine_fleet
        from ..config import SeedBank

        virustotal = VirusTotal(default_engine_fleet(SeedBank(self.seed)), intel)
        dataset = D1Dataset()
        dyndns_domains = {domain for _n, domain in DYNDNS_PROVIDERS}
        week = 7 * 24 * 60

        with_sld = [sample for sample in stream if sample.url.has_subdomain]
        dataset.dropped_no_sld = len(stream) - len(with_sld)
        # First sight of every URL, then the week-later rescans: the first
        # rescan schedules the whole corpus in one batched fleet call.
        for sample in with_sld:
            virustotal.scan(sample.url, now=0)
        for sample in with_sld:
            detections = virustotal.scan(sample.url, now=week).positives
            if detections < VT_PHISHING_THRESHOLD:
                dataset.benign_or_undetected += 1
                continue
            if sample.url.registered_domain in dyndns_domains:
                dataset.dyndns_phishing.append(sample)
            elif self.web.fwb_for(sample.url) is not None:
                dataset.fwb_phishing.append(sample)
            else:
                dataset.benign_or_undetected += 1
        return dataset
