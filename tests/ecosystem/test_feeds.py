"""Blocklist feed-sharing network and the sharing policy experiment."""

import pytest

from repro.ecosystem import IntelService, default_blocklists
from repro.ecosystem.feeds import (
    DEFAULT_FEED_LINKS,
    FeedLink,
    FeedNetwork,
    sharing_experiment,
)
from repro.simnet import Browser, Web
from repro.sitegen import PhishingKitGenerator, PhishingSiteGenerator

WEEK = 7 * 24 * 60


@pytest.fixture()
def observed_world(rng):
    web = Web()
    intel = IntelService(web, Browser(web))
    blocklists = default_blocklists(intel, seed=5)
    kit_gen = PhishingKitGenerator()
    phish_gen = PhishingSiteGenerator()
    providers = list(web.fwb_providers.values())
    self_urls = []
    fwb_urls = []
    for i in range(60):
        self_urls.append(kit_gen.create_site(web.self_hosting, 0, rng).root_url)
        fwb_urls.append(phish_gen.create_site(providers[i % 17], 0, rng).root_url)
    for blocklist in blocklists.values():
        for url in self_urls + fwb_urls:
            blocklist.observe(url, 0)
    return web, blocklists, self_urls, fwb_urls


class TestFeedNetwork:
    def test_unknown_blocklist_rejected(self, observed_world):
        _web, blocklists, _s, _f = observed_world
        with pytest.raises(KeyError):
            FeedNetwork(blocklists, [FeedLink("phishtank", "nonexistent")])

    def test_sharing_only_adds_coverage(self, observed_world):
        _web, blocklists, self_urls, fwb_urls = observed_world
        network = FeedNetwork(blocklists, DEFAULT_FEED_LINKS)
        for url in self_urls + fwb_urls:
            native = blocklists["gsb"].listing_time(url)
            effective = network.effective_listing_time("gsb", url)
            if native is not None:
                assert effective is not None and effective <= native

    def test_propagation_lag_applied(self, observed_world):
        _web, blocklists, self_urls, _f = observed_world
        network = FeedNetwork(
            blocklists, [FeedLink("gsb", "phishtank", propagation_minutes=500)]
        )
        # Find a URL GSB lists but PhishTank natively misses.
        for url in self_urls:
            gsb_time = blocklists["gsb"].listing_time(url)
            pt_time = blocklists["phishtank"].listing_time(url)
            if gsb_time is not None and pt_time is None:
                effective = network.effective_listing_time("phishtank", url)
                assert effective == gsb_time + 500
                assert not network.effective_contains("phishtank", url, gsb_time)
                assert network.effective_contains("phishtank", url, effective)
                return
        pytest.fail("no GSB-only URL found")

    def test_non_subscriber_unaffected(self, observed_world):
        _web, blocklists, self_urls, _f = observed_world
        network = FeedNetwork(blocklists, DEFAULT_FEED_LINKS)
        for url in self_urls[:10]:
            assert network.effective_listing_time(
                "openphish", url
            ) == blocklists["openphish"].listing_time(url)


class TestSharingExperiment:
    def test_sharing_helps_subscribers_on_self_hosted(self, observed_world):
        _web, blocklists, self_urls, _f = observed_world
        results = sharing_experiment(blocklists, self_urls, WEEK)
        assert results["ecrimex"]["with_sharing"] >= results["ecrimex"]["native"]
        assert results["gsb"]["with_sharing"] >= results["gsb"]["native"]
        # Publishers themselves are unchanged.
        assert results["phishtank"]["with_sharing"] == pytest.approx(
            results["phishtank"]["native"]
        )

    def test_sharing_barely_moves_fwb_coverage(self, observed_world):
        """The policy finding: distribution cannot fix a discovery gap —
        the community lists have almost no FWB listings to share."""
        _web, blocklists, _s, fwb_urls = observed_world
        results = sharing_experiment(blocklists, fwb_urls, WEEK)
        uplift = results["gsb"]["with_sharing"] - results["gsb"]["native"]
        assert uplift < 0.10
