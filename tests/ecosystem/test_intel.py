"""Intel gathering and the suspicion score's evasion semantics."""

import numpy as np
import pytest

from repro.ecosystem.intel import (
    DEFAULT_WEIGHTS,
    IntelService,
    UrlIntel,
    gather_intel,
    suspicion_score,
)
from repro.simnet import Browser
from repro.simnet.url import parse_url
from repro.sitegen import (
    LegitimateSiteGenerator,
    PhishingKitGenerator,
    PhishingSiteGenerator,
)
from repro.sitegen.phishing import PhishingMixture, PhishingVariant


@pytest.fixture()
def world(web):
    return web, Browser(web)


class TestGatherIntel:
    def test_fwb_credential_page(self, world, phishing_generator, rng):
        web, browser = world
        provider = web.fwb_providers["weebly"]
        spec = phishing_generator.sample_spec(
            provider.service, rng, variant=PhishingVariant.CREDENTIAL
        )
        spec.cloaked = False
        spec.obfuscate_banner = True
        site = phishing_generator.create_site(provider, 0, rng, spec=spec)
        intel = gather_intel(web, browser, site.root_url, now=100)
        assert intel.reachable
        assert intel.is_fwb and intel.fwb_name == "weebly"
        assert intel.has_credential_form
        assert intel.hidden_elements  # the obfuscated banner
        assert not intel.in_ct_log
        assert intel.domain_age_days > 5 * 365
        assert intel.com_tld and not intel.cheap_tld

    def test_self_hosted_kit_page(self, world, kit_generator, rng):
        web, browser = world
        site = kit_generator.create_site(web.self_hosting, now=50, rng=rng)
        intel = gather_intel(web, browser, site.root_url, now=100)
        assert intel.kit_markup
        assert intel.domain_age_days < 1
        assert not intel.is_fwb
        if site.root_url.scheme == "https":
            assert intel.in_ct_log

    def test_unreachable_url(self, world):
        web, browser = world
        intel = gather_intel(
            web, browser, parse_url("https://nowhere.example.org/"), now=0
        )
        assert not intel.reachable
        assert suspicion_score(intel) == 0.0

    def test_driveby_intel(self, world, phishing_generator, rng):
        web, browser = world
        provider = web.fwb_providers["sharepoint"]
        spec = phishing_generator.sample_spec(
            provider.service, rng, variant=PhishingVariant.DRIVEBY
        )
        site = phishing_generator.create_site(provider, 0, rng, spec=spec)
        intel = gather_intel(web, browser, site.root_url, now=10)
        assert intel.malicious_download
        assert intel.download_detections >= 4

    def test_two_step_linkout_detected(self, world, phishing_generator, rng):
        web, browser = world
        provider = web.fwb_providers["google_sites"]
        spec = phishing_generator.sample_spec(
            provider.service, rng, variant=PhishingVariant.TWO_STEP,
            target_url="https://external.example.xyz/login",
        )
        site = phishing_generator.create_site(provider, 0, rng, spec=spec)
        intel = gather_intel(web, browser, site.root_url, now=10)
        assert intel.linkout_button
        assert not intel.has_credential_form


class TestSuspicionScore:
    def test_populations_ordered(self, world, rng):
        """self-hosted phishing >> FWB credential phishing >> benign."""
        web, browser = world
        phish_gen = PhishingSiteGenerator(
            mixture=PhishingMixture(cloak_rate=0.0)
        )
        benign_gen = LegitimateSiteGenerator()
        kit_gen = PhishingKitGenerator()
        provider = web.fwb_providers["weebly"]

        def score(site):
            return suspicion_score(gather_intel(web, browser, site.root_url, 500))

        kits = [score(kit_gen.create_site(web.self_hosting, 0, rng)) for _ in range(10)]
        fwb = [score(phish_gen.create_site(provider, 0, rng)) for _ in range(10)]
        benign = [score(benign_gen.create_fwb_site(provider, 0, rng)) for _ in range(10)]
        assert np.median(kits) > np.median(fwb) + 0.3
        assert np.median(fwb) > np.median(benign)

    def test_score_bounded(self):
        intel = UrlIntel(url=parse_url("https://a.example.com/"), reachable=True)
        for field in ("has_credential_form", "brand_title_mismatch", "kit_markup",
                      "malicious_download", "cheap_tld", "in_ct_log"):
            setattr(intel, field, True)
        intel.sensitive_url_words = 10
        intel.domain_age_days = 1
        assert 0.0 <= suspicion_score(intel) <= 1.0

    def test_old_domain_reduces_score(self):
        base = UrlIntel(url=parse_url("https://a.example.com/"), reachable=True,
                        has_credential_form=True)
        young = UrlIntel(**{**base.__dict__, "domain_age_days": 10.0})
        old = UrlIntel(**{**base.__dict__, "domain_age_days": 10 * 365.0})
        assert suspicion_score(young) > suspicion_score(old)

    def test_custom_weights(self):
        intel = UrlIntel(url=parse_url("https://a.example.com/"), reachable=True,
                         has_credential_form=True)
        zeroed = {key: 0.0 for key in DEFAULT_WEIGHTS}
        assert suspicion_score(intel, zeroed) == pytest.approx(
            1.0 - np.exp(-1.35 * 0.05)
        )


class TestIntelService:
    def test_caching_within_bucket(self, world):
        web, browser = world
        site = web.fwb_providers["weebly"].create_site("cached", "u", 0)
        site.add_page("/", "<html><body>x</body></html>")
        service = IntelService(web, browser)
        a = service.intel_for(site.root_url, now=10)
        b = service.intel_for(site.root_url, now=20)  # same day bucket
        assert a is b
        c = service.intel_for(site.root_url, now=10 + 24 * 60)
        assert c is not a
