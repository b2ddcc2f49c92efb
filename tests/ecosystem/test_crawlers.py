"""CT-log and search-index discovery crawlers (§3 blind-spot mechanism)."""

import pytest

from repro.ecosystem.crawlers import (
    CTLogMonitor,
    SearchIndexCrawler,
    measure_discovery,
)
from repro.simnet import Web
from repro.sitegen import PhishingKitGenerator, PhishingSiteGenerator


@pytest.fixture()
def populated_world(rng):
    web = Web()
    phishing_generator = PhishingSiteGenerator()
    kit_generator = PhishingKitGenerator(https_rate=1.0)
    providers = list(web.fwb_providers.values())
    fwb_hosts = [
        phishing_generator.create_site(providers[i % 17], now=10, rng=rng).host
        for i in range(25)
    ]
    self_hosts = [
        kit_generator.create_site(web.self_hosting, now=10, rng=rng).host
        for _ in range(25)
    ]
    return web, fwb_hosts, self_hosts


class TestCTLogMonitor:
    def test_discovers_brandy_dv_certificates(self, populated_world):
        web, _fwb, self_hosts = populated_world
        monitor = CTLogMonitor(web.ct_log)
        events = monitor.poll(now=100)
        found = {event.host for event in events}
        # Most kit domains embed a brand or action token in the host.
        assert len(found & set(self_hosts)) >= len(self_hosts) * 0.5

    def test_never_sees_fwb_hosts(self, populated_world):
        """The paper's core finding: shared certificates hide FWB attacks."""
        web, fwb_hosts, _self = populated_world
        monitor = CTLogMonitor(web.ct_log)
        events = monitor.poll(now=100)
        found = {event.host for event in events}
        assert not found & set(fwb_hosts)

    def test_poll_is_incremental(self, populated_world, rng):
        web, _fwb, _self = populated_world
        monitor = CTLogMonitor(web.ct_log)
        first = monitor.poll(now=100)
        second = monitor.poll(now=200)  # nothing new logged
        assert first and not second
        # New certificate after the cursor is picked up.
        web.ca.issue_dv("paypaul-verify-new.xyz", now=150)
        third = monitor.poll(now=300)
        assert any(e.host == "paypaul-verify-new.xyz" for e in third)

    def test_event_channel_and_token(self, populated_world):
        web, _fwb, _self = populated_world
        events = CTLogMonitor(web.ct_log).poll(now=100)
        assert all(e.channel == "ct" for e in events)
        assert all(e.matched_token for e in events)


class TestSearchIndexCrawler:
    def test_finds_indexed_brandy_host(self, web):
        from repro.simnet.url import parse_url

        url = parse_url("https://paypaul-login.badhost.xyz/")
        web.search_index.record_incoming_link(url)
        web.search_index.submit(
            url, "<html><title>PayPaul login</title></html>", now=0
        )
        crawler = SearchIndexCrawler(web.search_index)
        events = crawler.poll(now=10)
        assert any(e.host == "paypaul-login.badhost.xyz" for e in events)

    def test_skips_brand_own_domain(self, web):
        from repro.simnet.url import parse_url

        url = parse_url("https://login.paypaul.com/")
        web.search_index.record_incoming_link(url)
        web.search_index.submit(url, "<html><title>PayPaul</title></html>", now=0)
        events = SearchIndexCrawler(web.search_index).poll(now=10)
        assert not any(e.host == "login.paypaul.com" for e in events)

    def test_unindexed_fwb_attacks_invisible(self, populated_world):
        """FWB pages never enter the index (no links / noindex), so the
        search channel finds none of them."""
        web, fwb_hosts, _self = populated_world
        events = SearchIndexCrawler(web.search_index).poll(now=100)
        assert not {e.host for e in events} & set(fwb_hosts)


class TestDiscoveryReport:
    def test_gap_measured(self, populated_world):
        web, fwb_hosts, self_hosts = populated_world
        report = measure_discovery(web, fwb_hosts, self_hosts, now=100)
        assert report.fwb_discovery_rate == 0.0
        assert report.self_hosted_discovery_rate > 0.4
        assert report.n_fwb_attacks == 25

    def test_empty_populations(self, web):
        report = measure_discovery(web, [], [], now=0)
        assert report.fwb_discovery_rate == 0.0
        assert report.self_hosted_discovery_rate == 0.0
