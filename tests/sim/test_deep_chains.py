"""Multi-hop two-step chains (the §5.5 escalation)."""

import pytest

from repro.core.evasive import EvasiveVector, classify_evasive
from repro.sim import AttackerModel, attacker as attacker_module
from repro.simnet import Browser, Web
from repro.simnet.url import parse_url
from repro.social import FacebookPlatform, TwitterPlatform


@pytest.fixture()
def deep_world(rng, monkeypatch):
    monkeypatch.setattr(attacker_module, "FWB_TARGET_SHARE", 1.0)
    monkeypatch.setattr(attacker_module, "DEEP_CHAIN_RATE", 1.0)
    web = Web()
    platforms = {
        "twitter": TwitterPlatform(rng),
        "facebook": FacebookPlatform(rng),
    }
    attacker = AttackerModel(web, platforms, rng)
    return web, attacker


def _find_two_step(attacker, n=200):
    for i in range(n):
        attack = attacker.launch_fwb_attack(now=10 * i)
        if attack.site.metadata["variant"] == "two_step":
            return attack
    pytest.fail("no two-step attack generated")


class TestDeepChains:
    def test_chain_reaches_credentials_within_three_hops(self, deep_world):
        web, attacker = deep_world
        attack = _find_two_step(attacker)
        browser = Browser(web)
        chain = browser.follow_workflow(attack.site.root_url, now=10 ** 6,
                                        max_hops=4)
        assert len(chain) >= 2
        final = chain[-1]
        assert final.document.password_inputs() or final.document.credential_inputs()

    def test_relay_page_is_marked_linked_only(self, deep_world):
        web, attacker = deep_world
        attack = _find_two_step(attacker)
        relay_url = parse_url(attack.site.metadata["target_url"])
        relay = web.site_for(relay_url)
        assert relay is not None
        assert relay.metadata.get("linked_only") is True
        assert relay.metadata.get("chain_depth") == 1

    def test_entry_page_still_classified_two_step(self, deep_world):
        web, attacker = deep_world
        attack = _find_two_step(attacker)
        browser = Browser(web)
        snapshot = browser.snapshot(attack.site.root_url, now=10 ** 6)
        assert classify_evasive(snapshot, browser, 10 ** 6) is EvasiveVector.TWO_STEP

    def test_phishintention_survives_deep_chains(self, deep_world, ground_truth):
        """The dynamic analyzer follows the relay and finds the credential
        page — the capability the paper credits for its top recall."""
        from repro.baselines import PhishIntentionDetector
        from repro.core.preprocess import Preprocessor

        web, attacker = deep_world
        attack = _find_two_step(attacker)
        detector = PhishIntentionDetector(Browser(web), random_state=2,
                                          max_hops=4)
        detector.fit_pages(ground_truth.pages, ground_truth.labels)
        page = Preprocessor(web).process(attack.site.root_url, now=10 ** 6)
        assert detector.predict_page(page) == 1

    def test_depth_bounded(self, deep_world):
        web, attacker = deep_world
        # Even at DEEP_CHAIN_RATE = 1.0 recursion stops after one relay.
        for _ in range(40):
            attacker.launch_fwb_attack(now=int(attacker.rng.integers(10 ** 6)))
        depths = [
            site.metadata.get("chain_depth", 0)
            for site in web.iter_sites()
            if site.metadata.get("linked_only")
        ]
        assert depths and max(depths) <= 2
