"""Adaptive attacker: migration toward poorly-policed FWBs.

The paper closes §5.1 with a prediction: *"The lack of blocklist coverage
for a particular FWB might entice attackers to more frequently abuse that
service."* — and §5.3 makes the same argument for takedown laggards. This
module implements that feedback loop so the prediction can be tested:

:class:`AdaptiveAttackerModel` starts from the measured abuse distribution
and, after each feedback round, re-weights every service by the observed
survival of its own attacks (sites still alive and posts still up at the
horizon). Services that police poorly accumulate share; responsive
services (Weebly, 000webhost, Wix) lose it — quantified by
``benchmarks/bench_adaptive_attacker.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..simnet.web import Web
from ..social.platform import SocialPlatform
from .attacker import AttackerModel, LaunchedAttack

#: How aggressively FWB weights move toward observed survival: 0 keeps the
#: static distribution, 1 jumps straight to the survival profile.
LEARNING_RATE = 0.5

#: Minimum share kept on every service so the attacker keeps probing
#: services it has abandoned (real campaigns do).
EXPLORATION_FLOOR = 0.01

#: How long after a round's last launch its attacks' survival is judged.
SURVIVAL_HORIZON_MINUTES = 24 * 60


@dataclass
class FeedbackRound:
    """Outcome statistics of one launch round, per FWB."""

    round_index: int
    launches: Dict[str, int] = field(default_factory=dict)
    survived: Dict[str, int] = field(default_factory=dict)

    def survival_rate(self, fwb: str) -> float:
        launched = self.launches.get(fwb, 0)
        if launched == 0:
            return 0.0
        return self.survived.get(fwb, 0) / launched


class AdaptiveAttackerModel(AttackerModel):
    """An attacker that re-weights FWB choice by observed survival, at
    :data:`LEARNING_RATE` and never below :data:`EXPLORATION_FLOOR`."""

    def __init__(
        self,
        web: Web,
        platforms: Dict[str, SocialPlatform],
        rng: np.random.Generator,
    ) -> None:
        super().__init__(web, platforms, rng)
        self.rounds: List[FeedbackRound] = []

    # -- feedback -----------------------------------------------------------------

    def current_shares(self) -> Dict[str, float]:
        return {
            provider.service.name: float(probability)
            for provider, probability in zip(
                self._providers, self._provider_probabilities
            )
        }

    def observe_round(
        self,
        attacks: Sequence[LaunchedAttack],
        now: int,
    ) -> FeedbackRound:
        """Fold one round's survival outcomes back into the FWB weights.

        An attack "survived" if its site is still active *and* its
        announcement post is still live at ``now``.
        """
        feedback = FeedbackRound(round_index=len(self.rounds))
        launches: Counter = Counter()
        survived: Counter = Counter()
        for attack in attacks:
            if not attack.is_fwb:
                continue
            fwb = attack.site.metadata.get("fwb")
            launches[fwb] += 1
            platform = self.platforms[attack.platform_name]
            site_alive = attack.site.is_active(now)
            post_alive = platform.is_post_live(attack.post_id, now)
            if site_alive and post_alive:
                survived[fwb] += 1
        feedback.launches = dict(launches)
        feedback.survived = dict(survived)
        self.rounds.append(feedback)
        self._reweight(feedback)
        return feedback

    def _reweight(self, feedback: FeedbackRound) -> None:
        old = self._provider_probabilities
        survival = np.array(
            [
                feedback.survival_rate(provider.service.name)
                if feedback.launches.get(provider.service.name, 0) > 0
                # No data this round: assume the current mix's mean outcome.
                else float(np.dot(old, [
                    feedback.survival_rate(p.service.name)
                    for p in self._providers
                ]))
                for provider in self._providers
            ]
        )
        if survival.sum() <= 0:
            return  # everything died: nothing to learn toward
        target = survival / survival.sum()
        blended = (1.0 - LEARNING_RATE) * old + LEARNING_RATE * target
        blended = np.maximum(blended, EXPLORATION_FLOOR)
        self._provider_probabilities = blended / blended.sum()


def run_adaptation_experiment(
    world,
    n_rounds: int = 4,
    launches_per_round: int = 120,
) -> List[Dict[str, float]]:
    """Run the migration experiment inside an existing campaign world.

    Returns the FWB share distribution after each round (index 0 = the
    initial, measured distribution).
    """
    attacker = AdaptiveAttackerModel(
        world.web, world.platforms,
        world.rng_factory.child("adaptive.attacker"),
    )
    shares = [attacker.current_shares()]
    now = 0
    for _round in range(n_rounds):
        attacks = []
        for _ in range(launches_per_round):
            now += 10
            attack = attacker.launch_fwb_attack(now)
            attacks.append(attack)
            world._register_attack(attack, now)
            # The ecosystem (FreePhish, community reporters) files abuse
            # reports; each service handles them per its measured policy.
            fwb = attack.site.metadata.get("fwb")
            desk = world.abuse_desks.get(fwb)
            if desk is not None:
                desk.receive_report(attack.site.root_url, now)
        # Let the ecosystem react, then give feedback to the attacker.
        horizon = now + SURVIVAL_HORIZON_MINUTES
        world._housekeeping(horizon)
        attacker.observe_round(attacks, horizon)
        shares.append(attacker.current_shares())
    return shares
