"""Edge-case coverage across modules: error paths and boundary behaviour."""

import pytest

from repro.errors import ConfigError, FetchError, ReportingError
from repro.simnet import Browser
from repro.simnet.hosting import FileAsset, HostedSite, SiteStatus
from repro.simnet.url import parse_url
from repro.sitegen.templates import ContentBlock, PageSpec, TemplateLibrary


class TestHostingEdges:
    def test_page_path_must_be_absolute(self):
        site = HostedSite(
            root_url=parse_url("https://x.example.com/"), created_at=0, owner="u"
        )
        with pytest.raises(FetchError):
            site.add_page("relative", "<html></html>")
        with pytest.raises(FetchError):
            site.add_file("relative.zip", FileAsset("f", malicious=False))

    def test_abandoned_status(self):
        site = HostedSite(
            root_url=parse_url("https://x.example.com/"), created_at=0, owner="u"
        )
        site.remove(10, status=SiteStatus.ABANDONED)
        assert site.status is SiteStatus.ABANDONED
        assert not site.is_active(20)


class TestTemplateEdges:
    def test_unknown_block_kind_rejected(self, rng):
        library = TemplateLibrary()
        from repro.simnet.fwb import fwb_by_name

        spec = PageSpec(title="T", blocks=[ContentBlock("hologram")])
        with pytest.raises(ConfigError):
            library.render(fwb_by_name("weebly"), spec, rng)

    def test_unknown_service_gets_default_template(self, rng):
        library = TemplateLibrary()
        template = library.template_for("not-a-service")
        assert template.wrapper_class == "site-wrap"

    def test_override_injection(self, rng):
        from repro.sitegen.templates import _ServiceTemplate

        custom = _ServiceTemplate(1, "custom-wrap", "Custom banner", "custom")
        library = TemplateLibrary(overrides={"weebly": custom})
        assert library.template_for("weebly").wrapper_class == "custom-wrap"


class TestBrowserEdges:
    def test_relative_hrefs_resolved(self, web):
        site = web.fwb_providers["weebly"].create_site("rel", "u", 0)
        site.add_page("/", '<a class="btn" href="next">go</a>')
        site.add_page("/next", "<p>second</p>")
        browser = Browser(web)
        snapshot = browser.snapshot(site.root_url, 5)
        # Relative link is same-host: not an outbound link.
        assert snapshot.outbound_links == []

    def test_anchor_and_js_links_ignored(self, web):
        site = web.fwb_providers["weebly"].create_site("anch", "u", 0)
        site.add_page(
            "/",
            '<a href="#top">top</a><a href="javascript:void(0)">x</a>'
            '<a href="mailto:a@b.c">mail</a>',
        )
        snapshot = Browser(web).snapshot(site.root_url, 5)
        assert snapshot.outbound_links == []
        assert snapshot.downloads == []

    def test_malformed_href_skipped(self, web):
        site = web.fwb_providers["weebly"].create_site("bad", "u", 0)
        site.add_page("/", '<a class="btn" href="https://">broken</a>')
        snapshot = Browser(web).snapshot(site.root_url, 5)
        assert snapshot.outbound_links == []

    def test_bare_file_url_snapshot(self, web):
        site = web.fwb_providers["weebly"].create_site("filesite", "u", 0)
        site.add_file("/x.zip", FileAsset("x.zip", malicious=True, vt_detections=7))
        snapshot = Browser(web).snapshot(
            site.root_url.with_path("/x.zip"), 5
        )
        assert snapshot.markup == ""
        assert [a.filename for a in snapshot.downloads] == ["x.zip"]


class TestReportingEdges:
    def test_missing_abuse_desk_raises(self, web, rng, phishing_generator):
        from repro.core.reporting import ReportingModule
        from repro.core.streaming import StreamObservation
        from repro.social import TwitterPlatform

        twitter = TwitterPlatform(rng)
        reporting = ReportingModule({})
        site = phishing_generator.create_site(web.fwb_providers["weebly"], 0, rng)
        post = twitter.publish_url(site.root_url, "a", 0, phishing=True)
        observation = StreamObservation(site.root_url, post, "twitter", 0, "weebly")
        with pytest.raises(ReportingError):
            reporting.report(observation, now=0)

    def test_self_hosted_report_skips_desk(self, web, rng, kit_generator):
        from repro.core.reporting import ReportingModule
        from repro.core.streaming import StreamObservation
        from repro.social import TwitterPlatform

        twitter = TwitterPlatform(rng)
        reporting = ReportingModule({})
        site = kit_generator.create_site(web.self_hosting, 0, rng)
        post = twitter.publish_url(site.root_url, "a", 0, phishing=True)
        observation = StreamObservation(site.root_url, post, "twitter", 0, None)
        report = reporting.report(observation, now=0)
        assert report.fwb_outcome is None


class TestEvasiveThreshold:
    def test_driveby_requires_malware_threshold(self, web, rng):
        """Files below the 4-detection bar do not make a page a drive-by."""
        from repro.core.evasive import classify_evasive

        site = web.fwb_providers["sharepoint"].create_site("greyware", "u", 0)
        site.add_page(
            "/", '<a href="/tool.zip" download>tool</a>'
        )
        site.add_file("/tool.zip", FileAsset("tool.zip", malicious=False,
                                             vt_detections=3))
        browser = Browser(web)
        snapshot = browser.snapshot(site.root_url, 5)
        assert classify_evasive(snapshot, browser) is None
