"""Blocklists and abuse-desk/registrar takedown behaviour."""

import numpy as np
import pytest

from repro.ecosystem import (
    IntelService,
    RegistrarDesk,
    ReportOutcome,
    default_blocklists,
)
from repro.ecosystem.blocklists import BLOCKLIST_NAMES
from repro.ecosystem.takedown import AbuseDesk
from repro.simnet import Browser
from repro.sitegen import PhishingKitGenerator, PhishingSiteGenerator


@pytest.fixture()
def ecosystem(web):
    browser = Browser(web)
    intel = IntelService(web, browser)
    return web, intel, default_blocklists(intel, seed=3)


WEEK = 7 * 24 * 60


class TestBlocklists:
    def test_four_blocklists(self, ecosystem):
        _web, _intel, blocklists = ecosystem
        assert set(blocklists) == set(BLOCKLIST_NAMES)

    def test_observe_is_idempotent(self, ecosystem, kit_generator, rng):
        web, _intel, blocklists = ecosystem
        site = kit_generator.create_site(web.self_hosting, 0, rng)
        gsb = blocklists["gsb"]
        gsb.observe(site.root_url, 10)
        first = gsb.listing_time(site.root_url)
        gsb.observe(site.root_url, 9999)
        assert gsb.listing_time(site.root_url) == first

    def test_contains_respects_listing_time(self, ecosystem, kit_generator, rng):
        web, _intel, blocklists = ecosystem
        gsb = blocklists["gsb"]
        listed = None
        for i in range(20):
            site = kit_generator.create_site(web.self_hosting, 0, rng)
            gsb.observe(site.root_url, 0)
            when = gsb.listing_time(site.root_url)
            if when is not None:
                listed = (site.root_url, when)
                break
        assert listed is not None, "GSB should list most kit URLs"
        url, when = listed
        assert not gsb.contains(url, when - 1)
        assert gsb.contains(url, when)

    def test_gsb_covers_self_hosted_better_than_fwb(self, ecosystem, rng):
        web, _intel, blocklists = ecosystem
        phish_gen = PhishingSiteGenerator()
        kit_gen = PhishingKitGenerator()
        providers = list(web.fwb_providers.values())
        gsb = blocklists["gsb"]
        fwb_hits = self_hits = 0
        n = 40
        for i in range(n):
            fwb_site = phish_gen.create_site(providers[i % 17], 0, rng)
            kit_site = kit_gen.create_site(web.self_hosting, 0, rng)
            gsb.observe(fwb_site.root_url, 0)
            gsb.observe(kit_site.root_url, 0)
            when = gsb.listing_time(fwb_site.root_url)
            fwb_hits += when is not None and when <= WEEK
            when = gsb.listing_time(kit_site.root_url)
            self_hits += when is not None and when <= WEEK
        assert self_hits > 2 * max(fwb_hits, 1)

    def test_benign_pages_rarely_listed(self, ecosystem, benign_generator, rng):
        web, _intel, blocklists = ecosystem
        provider = web.fwb_providers["weebly"]
        listed = 0
        for _ in range(30):
            site = benign_generator.create_fwb_site(provider, 0, rng)
            for blocklist in blocklists.values():
                blocklist.observe(site.root_url, 0)
                if blocklist.listing_time(site.root_url) is not None:
                    listed += 1
        assert listed <= 6  # 30 sites x 4 lists = 120 chances

    def test_entries_recorded(self, ecosystem, kit_generator, rng):
        web, _intel, blocklists = ecosystem
        gsb = blocklists["gsb"]
        listed = []
        for _ in range(10):
            site = kit_generator.create_site(web.self_hosting, 0, rng)
            gsb.observe(site.root_url, 0)
            listed_at = gsb.listing_time(site.root_url)
            if listed_at is not None:
                listed.append(listed_at)
        assert all(listed_at >= 2 for listed_at in listed)
        assert len(listed) >= 1


class TestAbuseDesk:
    def _desk(self, web, name, rng):
        return AbuseDesk(web.fwb_providers[name], web, rng)

    def test_responsive_desk_removes_quickly(self, web, phishing_generator, rng):
        desk = self._desk(web, "weebly", rng)
        outcomes = []
        for _ in range(60):
            site = phishing_generator.create_site(web.fwb_providers["weebly"], 0, rng)
            ticket = desk.receive_report(site.root_url, now=10)
            outcomes.append(ticket)
        removal_rate = np.mean([t.removal_at is not None for t in outcomes])
        assert 0.4 < removal_rate < 0.8  # policy says 58.6%

    def test_silent_desk_never_responds(self, web, phishing_generator, rng):
        desk = self._desk(web, "wordpress", rng)
        for _ in range(30):
            site = phishing_generator.create_site(web.fwb_providers["wordpress"], 0, rng)
            ticket = desk.receive_report(site.root_url, now=10)
            assert ticket.outcome is ReportOutcome.NO_RESPONSE

    def test_report_idempotent(self, web, phishing_generator, rng):
        desk = self._desk(web, "weebly", rng)
        site = phishing_generator.create_site(web.fwb_providers["weebly"], 0, rng)
        a = desk.receive_report(site.root_url, now=10)
        b = desk.receive_report(site.root_url, now=99)
        assert a is b

    def test_apply_takedowns_removes_site(self, web, phishing_generator, rng):
        desk = self._desk(web, "weebly", rng)
        removed_any = False
        for _ in range(30):
            site = phishing_generator.create_site(web.fwb_providers["weebly"], 0, rng)
            ticket = desk.receive_report(site.root_url, now=0)
            if ticket.removal_at is not None:
                desk.apply_takedowns(ticket.removal_at + 1)
                assert not web.is_active(site.root_url, ticket.removal_at + 2)
                removed_any = True
                break
        assert removed_any


class TestRegistrarDesk:
    def test_kit_domains_usually_taken_down(self, web, kit_generator, rng):
        intel = IntelService(web, Browser(web))
        desk = RegistrarDesk(web.self_hosting, web, intel, seed=7)
        decided = 0
        for _ in range(40):
            site = kit_generator.create_site(web.self_hosting, 0, rng)
            desk.observe(site.root_url, now=0)
            if desk.removal_time(site.root_url) is not None:
                decided += 1
        assert decided >= 25  # ~77% in the paper

    def test_benign_domains_mostly_spared(self, web, benign_generator, rng):
        intel = IntelService(web, Browser(web))
        desk = RegistrarDesk(web.self_hosting, web, intel, seed=7)
        removed = 0
        for _ in range(30):
            site = benign_generator.create_self_hosted_site(web.self_hosting, 0, rng)
            desk.observe(site.root_url, now=0)
            removed += desk.removal_time(site.root_url) is not None
        assert removed <= 8

    def test_apply_takedowns(self, web, kit_generator, rng):
        intel = IntelService(web, Browser(web))
        desk = RegistrarDesk(web.self_hosting, web, intel, seed=7)
        for _ in range(20):
            site = kit_generator.create_site(web.self_hosting, 0, rng)
            desk.observe(site.root_url, now=0)
            when = desk.removal_time(site.root_url)
            if when is not None:
                desk.apply_takedowns(when + 1)
                assert not web.is_active(site.root_url, when + 2)
                return
        pytest.fail("no takedown scheduled in 20 kit sites")
