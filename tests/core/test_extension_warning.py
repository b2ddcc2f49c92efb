"""Extension warning page and user-override mechanics."""

import pytest

from repro.core.extension import FreePhishExtension, NavigationVerdict
from repro.simnet.url import parse_url
from repro.webdoc import parse_html


@pytest.fixture()
def extension(campaign_world_and_result):
    world, _result = campaign_world_and_result
    ext = FreePhishExtension(world.web, world.classifier)
    ext.update_feed(world.framework.detected_urls())
    return world, ext


class TestWarningPage:
    def test_warning_page_names_url_and_source(self, extension):
        _world, ext = extension
        url = parse_url("https://scam-page.weebly.com/")
        markup = ext.warning_page(url, NavigationVerdict.BLOCKED_FEED)
        assert str(url) in markup
        assert "detection feed" in markup
        document = parse_html(markup)
        assert "phishing" in document.title.lower()

    def test_warning_page_classifier_source(self, extension):
        _world, ext = extension
        url = parse_url("https://scam-page.weebly.com/")
        markup = ext.warning_page(url, NavigationVerdict.BLOCKED_CLASSIFIER)
        assert "on-device analysis" in markup

    def test_warning_page_has_proceed_link(self, extension):
        _world, ext = extension
        markup = ext.warning_page(
            parse_url("https://x.weebly.com/"), NavigationVerdict.BLOCKED_FEED
        )
        document = parse_html(markup)
        proceed = document.find(predicate=lambda e: e.id == "proceed-anyway")
        assert proceed is not None


class TestUserOverride:
    def test_allow_anyway_unblocks(self, extension):
        world, ext = extension
        fwb_urls = [
            r.observation.url for r in world.framework.detections
            if r.observation.is_fwb
        ]
        assert fwb_urls
        url = fwb_urls[0]
        assert ext.check(url, now=10 ** 7).name.startswith("BLOCKED")
        ext.allow_anyway(url)
        assert ext.check(url, now=10 ** 7) is NavigationVerdict.ALLOWED
        assert ext.stats["overridden"] == 1

    def test_override_is_per_url(self, extension):
        world, ext = extension
        fwb_urls = [
            r.observation.url for r in world.framework.detections
            if r.observation.is_fwb
        ]
        if len(fwb_urls) < 2:
            pytest.skip("need two detections")
        ext.allow_anyway(fwb_urls[0])
        assert ext.check(fwb_urls[1], now=10 ** 7).name.startswith("BLOCKED")

    def test_override_matches_every_spelling_of_the_url(self, extension):
        _world, ext = extension
        ext.update_feed(["https://Scam.Weebly.com"])
        ext.allow_anyway("https://Scam.Weebly.com")
        verdict = ext.check(parse_url("https://scam.weebly.com/"), 0)
        assert verdict is NavigationVerdict.ALLOWED
