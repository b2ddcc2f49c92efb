"""The third-party detection-engine fleet (VirusTotal's ~76 engines).

Each :class:`DetectionEngine` is a heuristic scanner with its own weight
profile (a perturbation of the canonical suspicion weights), sensitivity,
and reaction latency. Engines fall into archetypes mirroring the real
fleet's composition: a few aggressive URL-reputation vendors, a midfield of
generic heuristic scanners, and a long tail of sluggish or narrowly focused
engines. The archetype mix is what produces Figure 7's detection CDF —
self-hosted phishing accumulating a median of ~9 detections in a week while
FWB attacks plateau around ~4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SeedBank
from ..errors import ConfigError
from .intel import DEFAULT_WEIGHTS, UrlIntel, suspicion_score


@dataclass(frozen=True)
class EngineArchetype:
    """A class of engines sharing behavioural parameters."""

    label: str
    #: Multiplies the suspicion score before thresholding.
    sensitivity: float
    #: Score (after sensitivity) above which detection becomes likely.
    threshold: float
    #: Softness of the detection logistic around the threshold. Real
    #: engines are *weak* individual classifiers; a wide temperature keeps
    #: the per-engine response shallow so the fleet disagrees, as VT
    #: engines demonstrably do (Peng et al. 2019).
    temperature: float
    #: Detection-latency median in minutes, for a score at threshold.
    median_latency_minutes: float
    latency_sigma: float
    #: Relative jitter applied to each weight in the engine's profile.
    weight_jitter: float


#: The fleet composition: (archetype, count). Total = 76 engines.
FLEET_MIX: Tuple[Tuple[EngineArchetype, int], ...] = (
    (EngineArchetype("aggressive", 0.85, 0.78, 0.32, 120.0, 1.0, 0.20), 8),
    (EngineArchetype("mainstream", 0.77, 1.08, 0.32, 300.0, 1.1, 0.25), 22),
    (EngineArchetype("conservative", 0.68, 1.40, 0.35, 700.0, 1.2, 0.30), 28),
    (EngineArchetype("narrow", 0.60, 1.60, 0.35, 1500.0, 1.3, 0.40), 18),
)


class DetectionEngine:
    """One heuristic anti-phishing engine.

    ``evaluate`` is deterministic per (engine, URL): the same URL always
    yields the same verdict and latency from the same engine, as real
    engines re-serve cached verdicts.
    """

    def __init__(
        self,
        name: str,
        archetype: EngineArchetype,
        rng: np.random.Generator,
    ) -> None:
        self.name = name
        self.archetype = archetype
        # Perturb the canonical weights into an engine-specific profile.
        self.weights: Dict[str, float] = {
            key: value * float(1.0 + archetype.weight_jitter * rng.normal())
            for key, value in DEFAULT_WEIGHTS.items()
        }
        self._seeds = SeedBank(int(rng.integers(0, 2 ** 63 - 1)))
        self._verdicts: Dict[str, Tuple[bool, Optional[int]]] = {}

    @property
    def seed(self) -> int:
        """The engine's own seed; with a URL's hash it seeds each verdict."""
        return self._seeds.seed

    def evaluate(self, intel: UrlIntel, first_seen: int) -> Tuple[bool, Optional[int]]:
        """(detects, detection_time) for a URL first observed at ``first_seen``.

        ``detection_time`` is absolute simulation minutes; ``None`` when the
        engine never flags the URL.
        """
        key = str(intel.url)
        if key in self._verdicts:
            return self._verdicts[key]
        rng = self._seeds.fresh(key)
        score = suspicion_score(intel, self.weights) * self.archetype.sensitivity
        margin = score - self.archetype.threshold
        # Smooth probability around the threshold: engines near their
        # operating point behave inconsistently across URLs.
        probability = 1.0 / (1.0 + np.exp(-margin / self.archetype.temperature))
        # Engines do not fire on signal-free URLs: the logistic's tail is
        # gated so a zero-suspicion page cannot accumulate detections.
        probability *= min(1.0, score / 0.10)
        if rng.random() >= probability:
            verdict: Tuple[bool, Optional[int]] = (False, None)
        else:
            # Stronger signals are caught sooner.
            stretch = max(0.25, 1.0 - margin * 1.5)
            median = self.archetype.median_latency_minutes * stretch
            latency = rng.lognormal(np.log(median), self.archetype.latency_sigma)
            verdict = (True, first_seen + max(2, int(round(latency))))
        self._verdicts[key] = verdict
        return verdict


def default_engine_fleet(
    rng_factory: Optional[SeedBank] = None,
) -> List[DetectionEngine]:
    """Build the 76-engine fleet with deterministic per-engine profiles."""
    factory = rng_factory if rng_factory is not None else SeedBank()
    fleet: List[DetectionEngine] = []
    for archetype, count in FLEET_MIX:
        for index in range(count):
            name = f"{archetype.label}-{index:02d}"
            fleet.append(
                DetectionEngine(
                    name=name,
                    archetype=archetype,
                    rng=factory.child(f"ecosystem.engine.{name}"),
                )
            )
    if len(fleet) != 76:
        raise ConfigError(f"expected 76 engines, built {len(fleet)}")
    return fleet
