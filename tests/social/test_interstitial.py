"""Twitter's click-through warning interstitial (Figure 10)."""

import pytest

from repro.simnet.url import parse_url
from repro.social import TwitterPlatform
from repro.webdoc import parse_html


@pytest.fixture()
def twitter(rng):
    return TwitterPlatform(rng)


class TestInterstitial:
    def test_unflagged_url_has_no_warning(self, twitter):
        assert twitter.interstitial_for(parse_url("https://ok.example.com/")) is None

    def test_flagged_url_gets_warning_page(self, twitter):
        url = parse_url("https://scam.weebly.com/")
        twitter.flag_url(url)
        markup = twitter.interstitial_for(url)
        assert markup is not None and str(url) in markup
        document = parse_html(markup)
        assert "unsafe" in document.title.lower()
        assert document.find(predicate=lambda e: e.id == "continue") is not None

    def test_moderation_removal_flags_urls(self, twitter):
        """When Twitter removes a post, the URL inside becomes flagged."""
        url = parse_url("https://malicious-page.weebly.com/")
        post = twitter.publish_url(url, "attacker", now=0, phishing=True)
        twitter._pending_removals.append((post.post_id, 50, False))
        twitter.apply_moderation(100)
        assert twitter.is_flagged(url)
        assert twitter.interstitial_for(url) is not None

    def test_user_deletion_does_not_flag(self, twitter):
        url = parse_url("https://self-deleted.weebly.com/")
        post = twitter.publish_url(url, "user", now=0, phishing=False)
        twitter._pending_removals.append((post.post_id, 50, True))  # by user
        twitter.apply_moderation(100)
        assert not twitter.is_flagged(url)
