"""Adaptive attacker: migration toward poorly-policed FWBs."""

import pytest

from repro.config import SimulationConfig
from repro.sim import CampaignWorld
from repro.sim import adaptive
from repro.sim.adaptive import (
    EXPLORATION_FLOOR,
    AdaptiveAttackerModel,
    FeedbackRound,
    run_adaptation_experiment,
)
from repro.simnet import Web
from repro.social import FacebookPlatform, TwitterPlatform


@pytest.fixture(scope="module")
def adaptation_shares():
    world = CampaignWorld(
        SimulationConfig(seed=3, duration_days=1, target_fwb_phishing=40),
        train_samples_per_class=40,
    )
    return run_adaptation_experiment(
        world, n_rounds=4, launches_per_round=150
    )


class TestFeedbackMechanics:
    def _attacker(self, rng):
        web = Web()
        platforms = {
            "twitter": TwitterPlatform(rng),
            "facebook": FacebookPlatform(rng),
        }
        return AdaptiveAttackerModel(web, platforms, rng)

    def test_shares_always_normalized(self, rng, monkeypatch):
        monkeypatch.setattr(adaptive, "LEARNING_RATE", 0.8)
        attacker = self._attacker(rng)
        attacks = [attacker.launch_fwb_attack(now=i * 10) for i in range(80)]
        attacker.observe_round(attacks, now=2000)
        shares = attacker.current_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert all(v >= EXPLORATION_FLOOR / 2 for v in shares.values())

    def test_zero_learning_rate_is_static(self, rng, monkeypatch):
        monkeypatch.setattr(adaptive, "LEARNING_RATE", 0.0)
        attacker = self._attacker(rng)
        before = attacker.current_shares()
        attacks = [attacker.launch_fwb_attack(now=i * 10) for i in range(50)]
        attacker.observe_round(attacks, now=2000)
        after = attacker.current_shares()
        for name in before:
            assert after[name] == pytest.approx(before[name], abs=0.02)

    def test_feedback_round_rates(self):
        feedback = FeedbackRound(
            round_index=0, launches={"weebly": 10}, survived={"weebly": 3}
        )
        assert feedback.survival_rate("weebly") == 0.3
        assert feedback.survival_rate("unknown") == 0.0

    def test_all_dead_round_keeps_weights(self, rng):
        attacker = self._attacker(rng)
        before = attacker.current_shares()
        # A round with zero survivors must not corrupt the distribution.
        attacker.observe_round([], now=100)
        assert attacker.current_shares() == before


class TestMigration:
    def test_responsive_services_lose_share(self, adaptation_shares):
        """The paper's §5.1/§5.3 prediction: attackers abandon the services
        that police them and spread onto the laggards."""
        first, last = adaptation_shares[0], adaptation_shares[-1]
        for responsive in ("weebly", "000webhost", "wix"):
            assert last[responsive] < first[responsive] * 0.7, responsive

    def test_lagging_services_gain_relative_share(self, adaptation_shares):
        first, last = adaptation_shares[0], adaptation_shares[-1]
        responsive_mass_before = sum(first[n] for n in ("weebly", "000webhost", "wix"))
        responsive_mass_after = sum(last[n] for n in ("weebly", "000webhost", "wix"))
        laggard_mass_before = sum(
            first[n] for n in ("google_sites", "sharepoint", "wordpress", "firebase")
        )
        laggard_mass_after = sum(
            last[n] for n in ("google_sites", "sharepoint", "wordpress", "firebase")
        )
        assert responsive_mass_after < responsive_mass_before
        assert laggard_mass_after > laggard_mass_before * 0.9

    def test_each_round_returns_distribution(self, adaptation_shares):
        for shares in adaptation_shares:
            assert abs(sum(shares.values()) - 1.0) < 1e-9
            assert len(shares) == 17
