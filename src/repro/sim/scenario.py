"""Historical scenario generator (paper §2, Figure 1).

The two-year retrospective (Jan 2020 - Aug 2022) found 25.2K FWB phishing
URLs (16.3K Twitter, 8.9K Facebook) with (a) quarter-over-quarter growth
and (b) a strategic shift toward newer hosting services. The generator
reproduces both: quarterly volume follows a noisy exponential ramp, and
each service's share follows a logistic adoption curve anchored at its
(staggered) adoption quarter — so early quarters are dominated by the
veteran services and later quarters spread over newly-abused ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..simnet.fwb import default_fwb_services

#: Jan 2020 .. Aug 2022 inclusive = 32 months = 11 quarters (last partial).
HISTORICAL_MONTHS = 32
D1_TWITTER_TOTAL = 16_300
D1_FACEBOOK_TOTAL = 8_900

#: Quarter-over-quarter growth of the attack volume.
GROWTH_PER_QUARTER = 1.28

#: Quarter in which attackers first abused each service at scale (0 = the
#: study's first quarter). Veterans from the start; newer platforms later.
ADOPTION_QUARTER: Dict[str, int] = {
    "weebly": 0, "000webhost": 0, "blogspot": 0, "wix": 0,
    "google_sites": 1, "wordpress": 1, "yolasite": 2, "sharepoint": 3,
    "github_io": 3, "google_forms": 4, "firebase": 5, "squareup": 5,
    "zoho_forms": 6, "godaddysites": 7, "mailchimp": 8, "glitch": 8,
    "hpage": 9,
}


@dataclass
class QuarterSeries:
    """Quarterly counts for Figure 1."""

    labels: List[str]
    twitter: List[int]
    facebook: List[int]
    #: per-quarter {fwb: count} over both platforms.
    by_fwb: List[Dict[str, int]]

    @property
    def totals(self) -> List[int]:
        return [t + f for t, f in zip(self.twitter, self.facebook)]

    def dominant_services(self, quarter_index: int, mass: float = 0.8) -> List[str]:
        """Services covering ``mass`` of that quarter's attacks (§2)."""
        counts = self.by_fwb[quarter_index]
        total = sum(counts.values())
        if total == 0:
            return []
        covered = 0
        out: List[str] = []
        for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
            if count == 0:
                break
            out.append(name)
            covered += count
            if covered >= mass * total:
                break
        return out


class HistoricalScenario:
    """Generates the Figure-1 time series and the D1 URL population."""

    def __init__(self, seed: int = 11) -> None:
        self.services = default_fwb_services()
        self.seed = seed

    @property
    def n_quarters(self) -> int:
        return (HISTORICAL_MONTHS + 2) // 3

    def _quarter_labels(self) -> List[str]:
        labels = []
        for q in range(self.n_quarters):
            year = 2020 + (q // 4)
            labels.append(f"{year}Q{q % 4 + 1}")
        return labels

    def _volume_curve(self, total: int, rng: np.random.Generator) -> List[int]:
        """Noisy exponential ramp summing to ``total``."""
        raw = np.array(
            [GROWTH_PER_QUARTER ** q for q in range(self.n_quarters)]
        )
        raw = raw * rng.uniform(0.85, 1.15, size=raw.shape)
        raw = raw / raw.sum() * total
        counts = np.floor(raw).astype(int)
        counts[-1] += total - counts.sum()
        return counts.tolist()

    def _fwb_shares(self, quarter: int) -> np.ndarray:
        """Service mix in one quarter: weight × logistic adoption ramp."""
        shares = []
        for service in self.services:
            adopted = ADOPTION_QUARTER.get(service.name, 0)
            ramp = 1.0 / (1.0 + np.exp(-(quarter - adopted) * 1.4))
            shares.append(service.attacker_weight * ramp)
        shares = np.asarray(shares, dtype=np.float64)
        return shares / shares.sum()

    def generate(self) -> QuarterSeries:
        rng = np.random.default_rng(self.seed)
        twitter = self._volume_curve(D1_TWITTER_TOTAL, rng)
        facebook = self._volume_curve(D1_FACEBOOK_TOTAL, rng)
        by_fwb: List[Dict[str, int]] = []
        for quarter in range(self.n_quarters):
            total = twitter[quarter] + facebook[quarter]
            shares = self._fwb_shares(quarter)
            counts = rng.multinomial(total, shares)
            by_fwb.append(
                {service.name: int(count)
                 for service, count in zip(self.services, counts)}
            )
        return QuarterSeries(
            labels=self._quarter_labels(),
            twitter=twitter,
            facebook=facebook,
            by_fwb=by_fwb,
        )
