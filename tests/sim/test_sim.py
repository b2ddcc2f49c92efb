"""Simulation machinery: attacker, ground truth, scenario, world."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError
from repro.sim import (
    AttackerModel,
    BenignUserModel,
    CampaignWorld,
    HistoricalScenario,
    build_ground_truth,
)
from repro.sim.scenario import ADOPTION_QUARTER
from repro.simnet import Web
from repro.social import FacebookPlatform, TwitterPlatform


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimulationConfig(duration_days=0)

    def test_scaled_preserves_shape(self):
        config = SimulationConfig()
        small = config.scaled(0.01)
        assert small.duration_days == 1
        assert small.target_fwb_phishing == 314
        with pytest.raises(ConfigError):
            config.scaled(0.0)


class TestAttacker:
    @pytest.fixture()
    def setup(self, rng):
        web = Web()
        platforms = {
            "twitter": TwitterPlatform(rng),
            "facebook": FacebookPlatform(rng),
        }
        return web, platforms, AttackerModel(web, platforms, rng)

    def test_fwb_attack_announced(self, setup):
        web, platforms, attacker = setup
        attack = attacker.launch_fwb_attack(now=30)
        assert attack.is_fwb
        post = platforms[attack.platform_name].get_post(attack.post_id)
        assert post is not None
        assert str(attack.site.root_url) in post.text

    def test_platform_split_follows_share(self, setup):
        web, _platforms, attacker = setup
        for i in range(200):
            attacker.launch_fwb_attack(now=i)
        twitter_share = np.mean(
            [a.platform_name == "twitter" for a in attacker.launched]
        )
        assert 0.5 < twitter_share < 0.75  # target 19724/31405 = 0.628

    def test_fwb_choice_follows_abuse_weights(self, setup):
        web, _platforms, attacker = setup
        for i in range(300):
            attacker.launch_fwb_attack(now=i)
        names = [a.site.metadata["fwb"] for a in attacker.launched]
        weebly = names.count("weebly")
        hpage = names.count("hpage")
        assert weebly > 10 * max(hpage, 1) or hpage == 0

    def test_two_step_attacks_have_live_targets(self, setup):
        web, _platforms, attacker = setup
        for i in range(150):
            attacker.launch_fwb_attack(now=i)
        two_steps = [
            a for a in attacker.launched
            if a.site.metadata["variant"] in ("two_step", "iframe")
        ]
        assert two_steps, "mix should include evasive variants"
        for attack in two_steps:
            target = attack.site.metadata["target_url"]
            assert target is not None
            from repro.simnet.url import parse_url

            assert web.site_for(parse_url(target)) is not None

    def test_self_hosted_attack(self, setup):
        web, _platforms, attacker = setup
        attack = attacker.launch_self_hosted_attack(now=5)
        assert not attack.is_fwb
        assert web.whois.lookup(attack.site.root_url, 5).age_minutes == 0

    def test_benign_user_model(self, rng):
        web = Web()
        platforms = {
            "twitter": TwitterPlatform(rng),
            "facebook": FacebookPlatform(rng),
        }
        users = BenignUserModel(web, platforms, rng)
        site = users.post_benign_site(now=10)
        assert site.metadata["is_phishing"] is False
        assert len(users.posted) == 1


class TestGroundTruth:
    def test_balanced_classes(self, ground_truth):
        assert ground_truth.n_phishing == len(ground_truth) // 2

    def test_variants_recorded(self, ground_truth):
        phishing_variants = [v for v in ground_truth.variants if v is not None]
        assert len(phishing_variants) == ground_truth.n_phishing
        assert "credential" in phishing_variants

    def test_deterministic(self):
        a = build_ground_truth(n_per_class=10, seed=4)
        b = build_ground_truth(n_per_class=10, seed=4)
        assert [str(p.url) for p in a.pages] == [str(p.url) for p in b.pages]

    def test_split_arrays(self, ground_truth):
        from repro.core.features import FWB_FEATURE_NAMES

        X, y = ground_truth.split_arrays(FWB_FEATURE_NAMES)
        assert X.shape == (len(ground_truth), 20)
        assert y.shape == (len(ground_truth),)


class TestHistoricalScenario:
    def test_totals_match_d1(self):
        quarters = HistoricalScenario(seed=2).generate()
        assert sum(quarters.twitter) == 16300
        assert sum(quarters.facebook) == 8900

    def test_rising_trend(self):
        quarters = HistoricalScenario(seed=2).generate()
        totals = quarters.totals
        # Later quarters dominate earlier ones (quarter-over-quarter growth).
        assert sum(totals[-3:]) > 3 * sum(totals[:3])

    def test_newer_services_absent_early_present_late(self):
        quarters = HistoricalScenario(seed=2).generate()
        early = quarters.by_fwb[0]
        late = quarters.by_fwb[-1]
        assert early["weebly"] > 0
        # hpage adopted at quarter 9: negligible early, non-trivial later.
        assert early.get("hpage", 0) <= 2
        assert late["hpage"] >= 1

    def test_dominant_services_shift(self):
        quarters = HistoricalScenario(seed=2).generate()
        early_dominant = set(quarters.dominant_services(0))
        late_dominant = set(quarters.dominant_services(len(quarters.labels) - 1))
        assert late_dominant - early_dominant  # new services enter the 80% mass

    def test_labels(self):
        quarters = HistoricalScenario(seed=2).generate()
        assert quarters.labels[0] == "2020Q1"
        assert len(quarters.labels) == len(quarters.twitter)

    def test_adoption_table_covers_all_services(self):
        web = Web()
        assert set(ADOPTION_QUARTER) == set(web.fwb_providers)


class TestCampaignWorld:
    def test_run_produces_both_populations(self, campaign_result):
        assert campaign_result.detections > 0
        assert len(campaign_result.fwb_timelines) > 10
        assert len(campaign_result.self_hosted_timelines) > 10

    def test_deterministic_given_seed(self):
        config = SimulationConfig(seed=31, duration_days=1, target_fwb_phishing=40)
        a = CampaignWorld(config, train_samples_per_class=40).run()
        b = CampaignWorld(config, train_samples_per_class=40).run()
        assert [t.url for t in a.timelines] == [t.url for t in b.timelines]
        assert [t.site_removal_offset for t in a.timelines] == [
            t.site_removal_offset for t in b.timelines
        ]

    def test_blocklist_gap_emerges(self, campaign_result):
        """Table 3's headline gap holds in any seeded campaign."""
        fwb = campaign_result.fwb_timelines
        self_hosted = campaign_result.self_hosted_timelines
        gsb_fwb = np.mean([t.blocklist_offsets["gsb"] is not None for t in fwb])
        gsb_self = np.mean(
            [t.blocklist_offsets["gsb"] is not None for t in self_hosted]
        )
        assert gsb_self > gsb_fwb + 0.25
