"""§3 characterization study: manual coding and FWB-feature statistics.

The paper's qualitative phase takes a 5K random sample of candidate FWB
phishing URLs, has two security-trained coders label them (Cohen's κ =
0.78, 4,656 confirmed), and derives the headline FWB statistics:

* ~89% of confirmed phishing sits on the 14 ``.com``-TLD services;
* median WHOIS domain age 13.7 *years* (vs. 71 *days* for a same-size
  PhishTank self-hosted sample);
* only 4.1% of FWB phishing URLs were Google-indexed;
* 44.7% carried a ``noindex`` directive.

This module reproduces the study mechanically: a candidate population is
generated (93% true phishing, the remainder benign-but-flagged), two
simulated coders label it with the paper's documented failure modes
(two-step/evasive pages missed, address/phone fields overlooked,
non-English pages misjudged), disagreements resolve to truth, and the
statistics are computed through the real WHOIS/search-index substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..simnet.hosting import HostedSite
from ..simnet.web import Web
from ..sitegen.legitimate import LegitimateSiteGenerator
from ..sitegen.phishing import PhishingSiteGenerator
from .stats import cohens_kappa

#: Lognormal sigma for the PhishTank comparison sample's domain ages.
_PHISHTANK_AGE_SIGMA = 1.1


@dataclass
class CoderProfile:
    """Failure modes of one human coder (§3's disagreement analysis)."""

    #: Chance of missing an evasive (credential-free) phishing page.
    evasive_miss_rate: float
    #: Chance of dismissing pages whose only sensitive fields are
    #: address/phone (Coder #1's documented blind spot).
    soft_field_miss_rate: float
    #: Chance of misjudging a non-English page (Coder #2's blind spot).
    foreign_miss_rate: float
    #: Baseline labelling noise on clear-cut pages.
    base_error_rate: float

    def label(self, site: HostedSite, rng: np.random.Generator) -> int:
        truth = 1 if site.metadata.get("is_phishing") else 0
        if truth == 0:
            flip = rng.random() < self.base_error_rate
            return 1 if flip else 0
        error = self.base_error_rate
        if not site.metadata.get("has_credential_form", True):
            error = max(error, self.evasive_miss_rate)
        if site.metadata.get("variant") == "credential" and rng.random() < 0.15:
            # Pages where only soft fields look sensitive.
            error = max(error, self.soft_field_miss_rate)
        if site.metadata.get("language", "en") != "en":
            error = max(error, self.foreign_miss_rate)
        return 0 if rng.random() < error else 1


CODER_ONE = CoderProfile(
    evasive_miss_rate=0.06, soft_field_miss_rate=0.05,
    foreign_miss_rate=0.01, base_error_rate=0.005,
)
CODER_TWO = CoderProfile(
    evasive_miss_rate=0.015, soft_field_miss_rate=0.01,
    foreign_miss_rate=0.40, base_error_rate=0.005,
)


@dataclass
class CharacterizationReport:
    """The §3 headline numbers, as measured on the simulated sample."""

    n_sample: int
    n_confirmed: int
    kappa: float
    com_share: float
    median_fwb_age_years: float
    median_self_hosted_age_days: float
    indexed_rate: float
    noindex_rate: float

    @property
    def confirmation_rate(self) -> float:
        return self.n_confirmed / self.n_sample if self.n_sample else 0.0


def _generate_candidate_sample(
    web: Web,
    n_sample: int,
    rng: np.random.Generator,
    phishing_share: float,
) -> List[HostedSite]:
    """The D1-style candidate population: mostly real phishing, plus the
    benign-but-VT-flagged noise manual coding weeds out."""
    phishing_generator = PhishingSiteGenerator()
    benign_generator = LegitimateSiteGenerator()
    providers = list(web.fwb_providers.values())
    weights = np.asarray([p.service.attacker_weight for p in providers], float)
    probabilities = weights / weights.sum()
    sites: List[HostedSite] = []
    n_phishing = int(round(n_sample * phishing_share))
    for _ in range(n_phishing):
        provider = providers[int(rng.choice(len(providers), p=probabilities))]
        sites.append(phishing_generator.create_site(provider, now=0, rng=rng))
    for _ in range(n_sample - n_phishing):
        provider = providers[int(rng.integers(len(providers)))]
        sites.append(benign_generator.create_fwb_site(provider, now=0, rng=rng))
    rng.shuffle(sites)  # type: ignore[arg-type]
    return sites


def characterize(
    n_sample: int = 1000,
    seed: int = 13,
    web: Optional[Web] = None,
    phishing_share: float = 4656 / 5000,
    #: Probability an FWB phishing page has at least one incoming link —
    #: the precondition for search indexing (§3: only 4.1% indexed).
    incoming_link_rate: float = 0.075,
    now: int = 0,
) -> CharacterizationReport:
    """Run the §3 characterization study at the given sample size."""
    rng = np.random.default_rng(seed)
    web = web if web is not None else Web()
    sites = _generate_candidate_sample(web, n_sample, rng, phishing_share)

    labels_one = np.array([CODER_ONE.label(site, rng) for site in sites])
    labels_two = np.array([CODER_TWO.label(site, rng) for site in sites])
    kappa = cohens_kappa(labels_one, labels_two)
    # Disagreements are resolved by discussion — to ground truth.
    confirmed = [site for site in sites if site.metadata.get("is_phishing")]

    com_hits = 0
    fwb_ages_years: List[float] = []
    indexed = 0
    noindexed = 0
    for site in confirmed:
        url = site.root_url
        service = web.fwb_for(url)
        if service is not None and service.offers_com_tld:
            com_hits += 1
        record = web.whois.lookup(url, now=now)
        if record is not None:
            fwb_ages_years.append(record.age_years)
        if rng.random() < incoming_link_rate:
            web.search_index.record_incoming_link(url)
        if web.search_index.submit(url, site.pages.get("/", ""), now=now):
            indexed += 1
        if site.metadata.get("noindex"):
            noindexed += 1

    # PhishTank comparison sample: self-hosted phishing domains whose ages
    # follow the feed's measured distribution (median 71 days).
    self_hosted_ages = rng.lognormal(
        mean=np.log(71.0), sigma=_PHISHTANK_AGE_SIGMA, size=max(len(confirmed), 1)
    )

    n_confirmed = len(confirmed)
    return CharacterizationReport(
        n_sample=n_sample,
        n_confirmed=n_confirmed,
        kappa=float(kappa),
        com_share=com_hits / n_confirmed if n_confirmed else 0.0,
        median_fwb_age_years=float(np.median(fwb_ages_years)) if fwb_ages_years else 0.0,
        median_self_hosted_age_days=float(np.median(self_hosted_ages)),
        indexed_rate=indexed / n_confirmed if n_confirmed else 0.0,
        noindex_rate=noindexed / n_confirmed if n_confirmed else 0.0,
    )
