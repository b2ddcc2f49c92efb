"""Detection-engine fleet and the VirusTotal aggregator."""

import numpy as np
import pytest

from repro.config import SeedBank
from repro.ecosystem import IntelService, VirusTotal, default_engine_fleet
from repro.ecosystem.intel import UrlIntel
from repro.simnet import Browser, Web
from repro.simnet.url import parse_url


@pytest.fixture(scope="module")
def fleet():
    return default_engine_fleet(SeedBank(5))


def _intel(url_text: str, **overrides) -> UrlIntel:
    intel = UrlIntel(url=parse_url(url_text), reachable=True)
    for key, value in overrides.items():
        setattr(intel, key, value)
    return intel


HOT = dict(
    domain_age_days=2.0, cheap_tld=True, has_credential_form=True,
    brand_title_mismatch=True, kit_markup=True, in_ct_log=True,
    sensitive_url_words=3,
)
COLD = dict(domain_age_days=12 * 365.0, com_tld=True, is_fwb=True,
            fwb_name="weebly", fwb_scrutiny=1.9)


class TestEngines:
    def test_fleet_size_is_76(self, fleet):
        assert len(fleet) == 76

    def test_verdicts_deterministic_per_url(self, fleet):
        intel = _intel("https://scam-login.xyz/", **HOT)
        engine = fleet[0]
        assert engine.evaluate(intel, 100) == engine.evaluate(intel, 100)

    def test_engines_disagree(self, fleet):
        intel = _intel("https://scam-login.xyz/", **HOT)
        verdicts = {engine.evaluate(intel, 0)[0] for engine in fleet}
        assert verdicts == {True, False}

    def test_hot_detected_more_than_cold(self, fleet):
        hot_hits = cold_hits = 0
        for i in range(20):
            hot = _intel(f"https://scam{i}-login.xyz/", **HOT)
            cold = _intel(f"https://innocuous{i}.weebly.com/", **COLD)
            hot_hits += sum(engine.evaluate(hot, 0)[0] for engine in fleet)
            cold_hits += sum(engine.evaluate(cold, 0)[0] for engine in fleet)
        assert hot_hits > 3 * max(cold_hits, 1)

    def test_detection_time_after_first_seen(self, fleet):
        intel = _intel("https://scam-now.xyz/", **HOT)
        for engine in fleet:
            detects, when = engine.evaluate(intel, first_seen=1000)
            if detects:
                assert when > 1000

    def test_reproducible_across_fleets(self):
        a = default_engine_fleet(SeedBank(5))
        b = default_engine_fleet(SeedBank(5))
        intel = _intel("https://stable.xyz/", **HOT)
        assert [e.evaluate(intel, 0) for e in a] == [e.evaluate(intel, 0) for e in b]


class TestVirusTotal:
    @pytest.fixture()
    def vt_world(self, fleet):
        web = Web()
        intel_service = IntelService(web, Browser(web))
        return web, VirusTotal(fleet, intel_service)

    def test_detections_accumulate_over_time(self, vt_world, kit_generator, rng):
        web, vt = vt_world
        site = kit_generator.create_site(web.self_hosting, now=0, rng=rng)
        early = vt.scan(site.root_url, now=10).positives
        late = vt.scan(site.root_url, now=7 * 24 * 60).positives
        assert late >= early
        assert late > 0

    def test_scan_reports_engine_names(self, vt_world, kit_generator, rng):
        web, vt = vt_world
        site = kit_generator.create_site(web.self_hosting, now=0, rng=rng)
        report = vt.scan(site.root_url, now=7 * 24 * 60)
        assert report.positives == len(report.engines)
        assert report.total_engines == 76
        assert 0.0 <= report.detection_ratio <= 1.0

    def test_first_seen_anchors_latencies(self, vt_world, kit_generator, rng):
        """Engines date their latency from VT's first sight of the URL."""
        web, vt = vt_world
        site = kit_generator.create_site(web.self_hosting, now=0, rng=rng)
        vt.scan(site.root_url, now=5000)  # first seen late
        assert str(site.root_url) in vt._first_seen
        assert vt._first_seen[str(site.root_url)] == 5000

    def test_fwb_vs_self_hosted_gap(self, vt_world, rng):
        """Figure 7's headline: FWB attacks accrue far fewer detections."""
        from repro.sitegen import PhishingKitGenerator, PhishingSiteGenerator

        web, vt = vt_world
        phish_gen = PhishingSiteGenerator()
        kit_gen = PhishingKitGenerator()
        week = 7 * 24 * 60
        fwb_counts, self_counts = [], []
        providers = list(web.fwb_providers.values())
        for i in range(30):
            provider = providers[i % len(providers)]
            fwb_site = phish_gen.create_site(provider, now=0, rng=rng)
            self_site = kit_gen.create_site(web.self_hosting, now=0, rng=rng)
            # First scan at t=0 anchors first-seen; re-scan a week later.
            vt.scan(fwb_site.root_url, 0)
            vt.scan(self_site.root_url, 0)
            fwb_counts.append(vt.scan(fwb_site.root_url, week).positives)
            self_counts.append(vt.scan(self_site.root_url, week).positives)
        assert np.median(self_counts) >= np.median(fwb_counts) + 3
