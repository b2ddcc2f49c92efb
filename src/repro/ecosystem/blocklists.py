"""The four anti-phishing blocklists (GSB, PhishTank, OpenPhish, eCrimeX).

Each blocklist combines three discovery channels whose availability differs
sharply between self-hosted and FWB attacks:

* **heuristic scanning** of URLs observed in the wild — driven by the
  suspicion score, modulated by per-FWB scrutiny (services with heavy abuse
  history attract dedicated rules, §5.1);
* **CT-log monitoring** — a bonus for URLs whose host appeared in the
  Certificate Transparency log (self-hosted DV certs only);
* **search-index crawling** — a bonus for indexed URLs (FWB pages are
  almost never indexed, §3).

Listing delays are heavy-tailed log-normals whose median stretches as
suspicion falls, producing both the coverage gap and the response-time gap
of Table 3 from a single mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..config import SeedBank
from ..errors import ConfigError
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL
from .intel import IntelService, suspicion_score


@dataclass(frozen=True)
class BlocklistBehavior:
    """Behaviour parameters for one blocklist."""

    #: Upper bound on listing probability for a maximally suspicious URL.
    reach: float
    #: Convexity of the suspicion → probability mapping.
    gamma: float
    #: Exponent on the per-FWB scrutiny modifier.
    rho: float
    #: Additive probability when the host appeared in the CT log.
    ct_bonus: float
    #: Additive probability when the URL is search-indexed.
    index_bonus: float
    #: Listing-delay median (minutes) at suspicion 1.0.
    base_median_minutes: float
    #: Delay stretches as (1 / suspicion)^stretch.
    stretch: float
    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.reach <= 1.0:
            raise ConfigError("reach must lie in [0, 1]")
        if self.base_median_minutes <= 0:
            raise ConfigError("base_median_minutes must be positive")


class Blocklist:
    """One blocklist with URL-level deterministic verdicts."""

    def __init__(
        self,
        name: str,
        behavior: BlocklistBehavior,
        intel_service: IntelService,
        seed: int,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.name = name
        self.behavior = behavior
        self.intel_service = intel_service
        self._seeds = SeedBank(seed)
        #: url -> listing time (absolute minutes), None = never lists.
        self._listing_time: Dict[str, Optional[int]] = {}
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_observed = instr.counter(f"blocklist.{name}.observed")
        self._c_listed = instr.counter(f"blocklist.{name}.listed")

    # -- verdicts -------------------------------------------------------------

    def observe(self, url: URL, now: int) -> None:
        """Tell the blocklist a URL exists (first sighting in the wild).

        Decides — deterministically per URL — whether and when the list
        will carry it.
        """
        key = str(url)
        if key in self._listing_time:
            return
        self._c_observed.inc()
        intel = self.intel_service.intel_for(url, now)
        score = suspicion_score(intel)
        if score <= 0.0:
            self._listing_time[key] = None
            return
        behavior = self.behavior
        effective = score
        if intel.is_fwb:
            effective *= intel.fwb_scrutiny ** behavior.rho
        probability = behavior.reach * min(effective, 1.0) ** behavior.gamma
        if intel.in_ct_log:
            probability += behavior.ct_bonus * score
        if intel.indexed:
            probability += behavior.index_bonus * score
        probability = min(probability, 0.98)
        rng = self._seeds.fresh(key)
        if rng.random() >= probability:
            self._listing_time[key] = None
            return
        median = behavior.base_median_minutes * (1.0 / max(score, 0.05)) ** behavior.stretch
        delay = rng.lognormal(np.log(median), behavior.sigma)
        listed_at = now + max(2, int(round(delay)))
        self._listing_time[key] = listed_at
        self._c_listed.inc()

    def contains(self, url: URL, now: int) -> bool:
        """API check: is the URL on the list at time ``now``? (§4.4 poll)."""
        listed_at = self._listing_time.get(str(url))
        return listed_at is not None and listed_at <= now

    def listing_time(self, url: URL) -> Optional[int]:
        return self._listing_time.get(str(url))


#: Behaviour calibrated to Table 3 (coverage % / median response hh:mm):
#:   GSB       FWB 18.4% / 06:01   self-hosted 74.2% / 00:51
#:   PhishTank FWB  4.1% / 07:11   self-hosted 17.4% / 02:30
#:   OpenPhish FWB 11.7% / 13:20   self-hosted 30.5% / 02:21
#:   eCrimeX   FWB 32.9% / 08:54   self-hosted 47.9% / 04:26
DEFAULT_BEHAVIORS: Dict[str, BlocklistBehavior] = {
    "gsb": BlocklistBehavior(
        reach=0.82, gamma=1.30, rho=0.80, ct_bonus=0.25, index_bonus=0.10,
        base_median_minutes=42.0, stretch=1.35, sigma=1.3,
    ),
    "phishtank": BlocklistBehavior(
        reach=0.17, gamma=1.30, rho=0.85, ct_bonus=0.08, index_bonus=0.06,
        base_median_minutes=140.0, stretch=0.85, sigma=1.4,
    ),
    "openphish": BlocklistBehavior(
        reach=0.40, gamma=1.10, rho=0.55, ct_bonus=0.12, index_bonus=0.06,
        base_median_minutes=110.0, stretch=1.75, sigma=1.5,
    ),
    "ecrimex": BlocklistBehavior(
        reach=0.50, gamma=0.33, rho=0.10, ct_bonus=0.00, index_bonus=0.05,
        base_median_minutes=250.0, stretch=0.65, sigma=1.4,
    ),
}

BLOCKLIST_NAMES = ("gsb", "phishtank", "openphish", "ecrimex")


def default_blocklists(
    intel_service: IntelService,
    seed: int = 0,
    instrumentation: Optional[Instrumentation] = None,
) -> Dict[str, Blocklist]:
    """Build the four blocklists with Table-3-calibrated behaviour."""
    bank = SeedBank(seed)
    return {
        name: Blocklist(
            name=name,
            behavior=DEFAULT_BEHAVIORS[name],
            intel_service=intel_service,
            seed=bank.child_seed(f"blocklist.{name}"),
            instrumentation=instrumentation,
        )
        for name in BLOCKLIST_NAMES
    }
