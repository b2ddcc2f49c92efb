"""Platform moderation behaviour models.

Platforms run internal URL scanning over shared links. Against self-hosted
phishing that pipeline works well (Table 3: 50.9% of URLs actioned, median
3h41m); against FWB-hosted attacks it performs far worse (23.1%, median
10h25m) because the platform-side detectors rely on the same heuristics the
FWB features defeat (domain reputation, certificate provenance, credential
fields on the landing page).

:class:`ModerationModel` turns a per-URL *suspicion score* (computed by the
ecosystem's intel layer from actual page/URL properties) into a removal
decision plus a heavy-tailed delay. Low suspicion both lowers the removal
probability and stretches the delay — producing the paper's coverage *and*
response-time gaps from one mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigError

#: Minimum effective suspicion: even opaque URLs get occasional user
#: reports.
SUSPICION_FLOOR = 0.06


@dataclass(frozen=True)
class ModerationDecision:
    """Outcome of the platform's scan of one shared URL."""

    will_remove: bool
    delay_minutes: Optional[int]


@dataclass
class ModerationModel:
    """Suspicion-driven removal model for one platform.

    Parameters
    ----------
    base_removal_rate:
        Probability that a *maximally suspicious* URL's post is removed.
    median_delay_minutes:
        Removal-delay median for a maximally suspicious URL; lower
        suspicion inflates the delay.
    delay_sigma:
        Log-normal shape parameter for the delay distribution.
    """

    base_removal_rate: float = 0.85
    median_delay_minutes: float = 150.0
    delay_sigma: float = 1.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_removal_rate <= 1.0:
            raise ConfigError("base_removal_rate must lie in [0, 1]")
        if self.median_delay_minutes <= 0:
            raise ConfigError("median_delay_minutes must be positive")
        if self.delay_sigma <= 0:
            raise ConfigError("delay_sigma must be positive")

    def decide(self, suspicion: float, rng: np.random.Generator) -> ModerationDecision:
        """Scan outcome for a URL with the given suspicion in [0, 1]."""
        suspicion = float(np.clip(suspicion, SUSPICION_FLOOR, 1.0))
        removal_probability = self.base_removal_rate * suspicion
        if rng.random() >= removal_probability:
            return ModerationDecision(will_remove=False, delay_minutes=None)
        # Less suspicious URLs take disproportionately longer to action:
        # the delay median scales inversely with suspicion.
        effective_median = self.median_delay_minutes / max(suspicion, 0.05)
        delay = rng.lognormal(mean=np.log(effective_median), sigma=self.delay_sigma)
        delay_minutes = max(1, int(round(delay)))
        return ModerationDecision(
            will_remove=True, delay_minutes=delay_minutes
        )
