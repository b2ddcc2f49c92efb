"""Site generators: templates, benign sites, phishing sites, kits."""

import pytest

from repro.sitegen import (
    ContentBlock,
    PageSpec,
    PhishingSiteGenerator,
    PhishingVariant,
    TemplateLibrary,
)
from repro.sitegen.phishing import PhishingMixture
from repro.simnet.fwb import fwb_by_name
from repro.webdoc import parse_html


@pytest.fixture()
def templates():
    return TemplateLibrary()


class TestTemplates:
    def test_templated_render_contains_banner(self, templates, rng):
        service = fwb_by_name("weebly")
        spec = PageSpec(title="T", blocks=[ContentBlock("heading", text="H")])
        markup = templates.render(service, spec, rng)
        doc = parse_html(markup)
        assert "Powered by Weebly" in markup
        assert doc.title == "T"

    def test_banner_obfuscation(self, templates, rng):
        service = fwb_by_name("weebly")
        spec = PageSpec(title="T", blocks=[], obfuscate_banner=True)
        doc = parse_html(templates.render(service, spec, rng))
        banner = doc.find(predicate=lambda e: "fwb-banner" in e.classes)
        assert banner is not None and banner.is_hidden()

    def test_noindex_meta(self, templates, rng):
        service = fwb_by_name("wix")
        spec = PageSpec(title="T", blocks=[], noindex=True)
        assert parse_html(templates.render(service, spec, rng)).has_noindex()

    def test_bare_render_for_github(self, templates, rng):
        service = fwb_by_name("github_io")
        spec = PageSpec(title="T", blocks=[ContentBlock("paragraph", text="p")])
        markup = templates.render(service, spec, rng)
        assert "fwb-banner" not in markup
        assert "wsite-section" not in markup

    def test_form_block_renders_fields(self, templates, rng):
        spec = PageSpec(
            title="T",
            blocks=[ContentBlock("form", fields=["email", "password", "ssn"])],
        )
        doc = parse_html(templates.render(fwb_by_name("weebly"), spec, rng))
        types = [i.get("type") for i in doc.inputs()]
        assert "password" in types and "email" in types

    def test_same_service_shares_boilerplate(self, templates, rng):
        service = fwb_by_name("weebly")
        a = templates.render(
            service, PageSpec(title="A", blocks=[ContentBlock("paragraph", text="x")]), rng
        )
        b = templates.render(
            service, PageSpec(title="B", blocks=[ContentBlock("paragraph", text="y")]), rng
        )
        assert "wsite-section-wrap" in a and "wsite-section-wrap" in b


class TestBenignGenerator:
    def test_site_metadata(self, web, benign_generator, rng):
        site = benign_generator.create_fwb_site(web.fwb_providers["weebly"], 0, rng)
        assert site.metadata["is_phishing"] is False
        assert site.metadata["brand"] is None
        assert "/" in site.pages and "/about" in site.pages

    def test_archetype_distribution_includes_members(self, web, benign_generator, rng):
        archetypes = {
            benign_generator.create_fwb_site(
                web.fwb_providers["weebly"], 0, rng
            ).metadata["archetype"]
            for _ in range(60)
        }
        assert "members" in archetypes and "business" in archetypes

    def test_self_hosted_benign_has_age(self, web, benign_generator, rng):
        site = benign_generator.create_self_hosted_site(web.self_hosting, 1000, rng)
        record = web.whois.lookup(site.root_url, now=1000)
        assert record.age_days >= 180

    def test_populate_web(self, web, benign_generator, rng):
        sites = benign_generator.populate_web(web, per_fwb=2, now=0, rng=rng)
        assert len(sites) == 2 * 17


class TestPhishingGenerator:
    def test_credential_site_structure(self, web, rng):
        gen = PhishingSiteGenerator()
        provider = web.fwb_providers["weebly"]
        spec = gen.sample_spec(provider.service, rng,
                               variant=PhishingVariant.CREDENTIAL)
        spec.cloaked = False
        site = gen.create_site(provider, 0, rng, spec=spec)
        doc = parse_html(site.pages["/"])
        assert doc.password_inputs() or len(doc.credential_inputs()) >= 2
        assert site.metadata["is_phishing"] is True
        assert site.metadata["has_credential_form"] is True

    def test_two_step_has_button_no_credentials(self, web, rng):
        gen = PhishingSiteGenerator()
        provider = web.fwb_providers["google_sites"]
        spec = gen.sample_spec(
            provider.service, rng, variant=PhishingVariant.TWO_STEP,
            target_url="https://evil.example.xyz/login",
        )
        site = gen.create_site(provider, 0, rng, spec=spec)
        doc = parse_html(site.pages["/"])
        assert not doc.password_inputs()
        hrefs = [a.get("href") for a in doc.links()]
        assert "https://evil.example.xyz/login" in hrefs

    def test_iframe_variant_embeds_external(self, web, rng):
        gen = PhishingSiteGenerator()
        provider = web.fwb_providers["blogspot"]
        spec = gen.sample_spec(
            provider.service, rng, variant=PhishingVariant.IFRAME,
            target_url="https://evil.example.xyz/frame",
        )
        site = gen.create_site(provider, 0, rng, spec=spec)
        doc = parse_html(site.pages["/"])
        assert doc.iframes()[0].get("src") == "https://evil.example.xyz/frame"

    def test_driveby_attaches_malicious_file(self, web, rng):
        gen = PhishingSiteGenerator()
        provider = web.fwb_providers["sharepoint"]
        spec = gen.sample_spec(provider.service, rng,
                               variant=PhishingVariant.DRIVEBY)
        site = gen.create_site(provider, 0, rng, spec=spec)
        assert "/invoice.zip" in site.files
        assert site.files["/invoice.zip"].vt_detections >= 4

    def test_no_credential_service_degrades_to_two_step(self, web, rng):
        gen = PhishingSiteGenerator(mixture=PhishingMixture(cloak_rate=0.0))
        service = web.fwb_providers["sharepoint"].service
        variants = {gen.sample_variant(service, rng) for _ in range(100)}
        assert PhishingVariant.CREDENTIAL not in variants

    def test_mixture_rates_respected(self, web, rng):
        gen = PhishingSiteGenerator(
            mixture=PhishingMixture(noindex_rate=1.0, banner_obfuscation_rate=1.0)
        )
        provider = web.fwb_providers["weebly"]
        site = gen.create_site(provider, 0, rng)
        assert site.metadata["noindex"] is True
        doc = parse_html(site.pages["/"])
        assert doc.has_noindex()

    def test_cloaked_pages_use_benign_names(self, web, rng):
        gen = PhishingSiteGenerator(mixture=PhishingMixture(cloak_rate=1.0))
        provider = web.fwb_providers["weebly"]
        spec = gen.sample_spec(provider.service, rng,
                               variant=PhishingVariant.CREDENTIAL)
        assert spec.cloaked
        site = gen.create_site(provider, 0, rng, spec=spec)
        assert "Member Login" in parse_html(site.pages["/"]).title


class TestKitGenerator:
    def test_kit_site_fresh_domain_and_form(self, web, kit_generator, rng):
        site = kit_generator.create_site(web.self_hosting, now=500, rng=rng)
        record = web.whois.lookup(site.root_url, now=500)
        assert record.age_minutes == 0
        doc = parse_html(site.pages["/"])
        assert doc.password_inputs()
        assert site.metadata["variant"] == "credential"

    def test_https_mix(self, web, kit_generator, rng):
        schemes = [
            kit_generator.create_site(web.self_hosting, now=i, rng=rng).root_url.scheme
            for i in range(60)
        ]
        assert "https" in schemes and "http" in schemes

    def test_create_many(self, web, kit_generator, rng):
        sites = kit_generator.create_many(web.self_hosting, 5, now=0, rng=rng)
        assert len(sites) == 5
        assert len({s.host for s in sites}) == 5
