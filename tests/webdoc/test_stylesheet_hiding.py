"""Stylesheet-based element hiding (the stealthier banner obfuscation)."""

import pytest

from repro.core.features import FeatureExtractor
from repro.simnet.fwb import fwb_by_name
from repro.simnet.url import parse_url
from repro.sitegen.templates import ContentBlock, PageSpec, TemplateLibrary
from repro.webdoc import parse_html

SHEET_HIDDEN = """
<html><head><style>
.fwb-banner { display: none }
#secret { visibility: hidden; color: red }
</style></head><body>
<div class="fwb-banner">Powered by Weebly</div>
<p id="secret">hidden text</p>
<p id="visible">shown</p>
</body></html>
"""


class TestStylesheetHiding:
    def test_hidden_selectors_extracted(self):
        document = parse_html(SHEET_HIDDEN)
        assert set(document.stylesheet_hidden_selectors()) == {"fwb-banner", "secret"}

    def test_is_element_hidden_by_class_and_id(self):
        document = parse_html(SHEET_HIDDEN)
        banner = document.find(predicate=lambda e: "fwb-banner" in e.classes)
        secret = document.find(predicate=lambda e: e.id == "secret")
        visible = document.find(predicate=lambda e: e.id == "visible")
        assert document.is_element_hidden(banner)
        assert document.is_element_hidden(secret)
        assert not document.is_element_hidden(visible)

    def test_has_hidden_elements(self):
        assert parse_html(SHEET_HIDDEN).has_hidden_elements()
        assert not parse_html("<body><p>plain</p></body>").has_hidden_elements()

    def test_inline_hiding_still_detected(self):
        markup = '<body><div style="display:none">x</div></body>'
        assert parse_html(markup).has_hidden_elements()


class TestGeneratorIntegration:
    @pytest.mark.parametrize("style", ["inline", "stylesheet"])
    def test_both_obfuscation_styles_detected_by_extractor(self, style, rng):
        service = fwb_by_name("weebly")
        spec = PageSpec(
            title="Acme - Sign In",
            blocks=[ContentBlock("heading", text="Acme")],
            obfuscate_banner=True,
            obfuscation_style=style,
        )
        markup = TemplateLibrary().render(service, spec, rng)
        url = parse_url("https://acme-login.weebly.com/")
        features = FeatureExtractor().extract(url, markup)
        assert features.values["obfuscated_fwb_banner"] == 1.0, style

    def test_unobfuscated_banner_not_flagged(self, rng):
        service = fwb_by_name("weebly")
        spec = PageSpec(
            title="Sunny Bakery",
            blocks=[ContentBlock("heading", text="Sunny Bakery")],
            obfuscate_banner=False,
        )
        markup = TemplateLibrary().render(service, spec, rng)
        url = parse_url("https://sunny-bakery.weebly.com/")
        features = FeatureExtractor().extract(url, markup)
        assert features.values["obfuscated_fwb_banner"] == 0.0

    def test_phishing_generator_emits_both_styles(self, web, rng):
        from repro.sitegen import PhishingSiteGenerator
        from repro.sitegen.phishing import PhishingMixture

        generator = PhishingSiteGenerator(
            mixture=PhishingMixture(banner_obfuscation_rate=1.0)
        )
        provider = web.fwb_providers["weebly"]
        styles = set()
        for _ in range(40):
            spec = generator.sample_spec(provider.service, rng)
            styles.add(spec.obfuscation_style)
        assert styles == {"inline", "stylesheet"}


class TestBareHiddenAttribute:
    """``<div hidden>`` hides an element exactly like ``hidden="hidden"``."""

    BANNER = (
        '<html><body><div class="fwb-banner" {attr}>'
        "Powered by Weebly</div><p>Sign in</p></body></html>"
    )

    @pytest.mark.parametrize("attr", ["hidden", 'hidden=""', 'hidden="hidden"'])
    def test_extractor_flags_hidden_banner(self, attr):
        url = parse_url("https://acme-login.weebly.com/")
        features = FeatureExtractor().extract(url, self.BANNER.format(attr=attr))
        assert features.values["obfuscated_fwb_banner"] == 1.0

    def test_visible_banner_not_flagged(self):
        url = parse_url("https://acme-login.weebly.com/")
        features = FeatureExtractor().extract(url, self.BANNER.format(attr=""))
        assert features.values["obfuscated_fwb_banner"] == 0.0

    def test_intel_sees_hidden_elements(self, web):
        from repro.ecosystem.intel import gather_intel
        from repro.simnet import Browser

        site = web.fwb_providers["weebly"].create_site("bare-hidden", "u", 0)
        site.add_page("/", self.BANNER.format(attr="hidden"))
        intel = gather_intel(web, Browser(web), site.root_url, now=5)
        assert intel.reachable
        assert intel.hidden_elements
