"""Social platform mechanics: posts, moderation, APIs."""

import numpy as np
import pytest

from repro.errors import ConfigError, StreamError
from repro.simnet.url import parse_url
from repro.social import (
    CrowdTangleAPI,
    FacebookPlatform,
    ModerationModel,
    Post,
    PostStatus,
    TwitterAPI,
    TwitterPlatform,
)
from repro.social import moderation
from repro.social.posts import compose_post_text


@pytest.fixture()
def twitter(rng):
    return TwitterPlatform(rng)


@pytest.fixture()
def facebook(rng):
    return FacebookPlatform(rng)


class TestPosts:
    def test_url_extraction_from_text(self):
        post = Post("twitter", "t-1", "a", "see https://x.weebly.com/page now", 0)
        assert [str(u) for u in post.urls] == ["https://x.weebly.com/page"]

    def test_compose_post_text_embeds_url(self, rng):
        url = parse_url("https://scam.weebly.com/")
        text = compose_post_text(url, phishing=True, rng=rng)
        assert str(url) in text

    def test_liveness_transitions(self):
        post = Post("twitter", "t-2", "a", "text", created_at=0)
        assert post.is_live(100)
        post.remove(50)
        assert post.status is PostStatus.REMOVED_BY_PLATFORM
        assert post.is_live(40) and not post.is_live(60)

    def test_user_deletion_status(self):
        post = Post("twitter", "t-3", "a", "text", created_at=0)
        post.remove(10, by_user=True)
        assert post.status is PostStatus.DELETED_BY_USER

    def test_remove_idempotent(self):
        post = Post("twitter", "t-4", "a", "text", created_at=0)
        post.remove(10)
        post.remove(99)
        assert post.removed_at == 10


class TestModerationModel:
    def test_high_suspicion_removed_more_often_and_faster(self):
        model = ModerationModel(base_removal_rate=0.9,
                                median_delay_minutes=100.0)
        rng = np.random.default_rng(0)
        high = [model.decide(0.95, rng) for _ in range(400)]
        low = [model.decide(0.10, rng) for _ in range(400)]
        high_rate = np.mean([d.will_remove for d in high])
        low_rate = np.mean([d.will_remove for d in low])
        assert high_rate > 3 * low_rate
        high_delays = [d.delay_minutes for d in high if d.will_remove]
        low_delays = [d.delay_minutes for d in low if d.will_remove]
        assert np.median(high_delays) < np.median(low_delays)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ModerationModel(base_removal_rate=1.2)
        with pytest.raises(ConfigError):
            ModerationModel(median_delay_minutes=0)

    def test_suspicion_floor(self, monkeypatch):
        monkeypatch.setattr(moderation, "SUSPICION_FLOOR", 0.5)
        model = ModerationModel(base_removal_rate=1.0)
        rng = np.random.default_rng(1)
        decisions = [model.decide(0.0, rng) for _ in range(200)]
        assert np.mean([d.will_remove for d in decisions]) > 0.3


class TestPlatform:
    def test_publish_and_query_window(self, twitter):
        twitter.publish("a", "u", now=5)
        twitter.publish("b", "u", now=15)
        window = twitter.posts_between(0, 10)
        assert [p.text for p in window] == ["a"]
        with pytest.raises(StreamError):
            twitter.posts_between(10, 5)

    def test_empty_platform_window(self, twitter):
        assert twitter.posts_between(0, 10) == []
        assert twitter.posts_between(7, 7) == []

    def test_window_is_half_open(self, twitter):
        for now in (0, 10, 10, 20, 30):
            twitter.publish(str(now), "u", now=now)
        assert [p.text for p in twitter.posts_between(10, 20)] == ["10", "10"]
        assert [p.text for p in twitter.posts_between(0, 10)] == ["0"]
        assert [p.text for p in twitter.posts_between(10, 10)] == []
        assert [p.text for p in twitter.posts_between(20, 31)] == ["20", "30"]
        assert [p.text for p in twitter.posts_between(31, 100)] == []
        assert [p.text for p in twitter.posts_between(-5, 1)] == ["0"]

    def test_out_of_order_publish_keeps_publish_order(self, twitter):
        for text, now in (("a", 10), ("b", 30), ("c", 20), ("d", 25), ("e", 5)):
            twitter.publish(text, "u", now=now)
        assert [p.text for p in twitter.posts_between(10, 26)] == ["a", "c", "d"]
        assert [p.text for p in twitter.posts_between(0, 100)] == ["a", "b", "c", "d", "e"]
        assert [p.text for p in twitter.posts_between(5, 10)] == ["e"]
        # Posts published later stay visible to the fallback.
        twitter.publish("f", "u", now=21)
        assert [p.text for p in twitter.posts_between(20, 22)] == ["c", "f"]

    def test_window_matches_linear_filter(self, twitter, rng):
        times = sorted(int(t) for t in rng.integers(0, 500, size=200))
        for i, now in enumerate(times):
            twitter.publish(f"p{i}", "u", now=now)
        for start, end in ((0, 500), (17, 17), (100, 250), (499, 600), (3, 4)):
            expected = [p for p in twitter.all_posts() if start <= p.created_at < end]
            assert twitter.posts_between(start, end) == expected

    def test_scan_schedules_removal(self, twitter):
        post = twitter.publish_url(
            parse_url("https://scam.xyz.example.com/"), "attacker", 0, phishing=True
        )
        # Maximal suspicion: removal should be scheduled for most posts.
        removed = 0
        for i in range(50):
            p = twitter.publish("x https://scam%d.example.com/" % i, "a", 0)
            twitter.scan(p, suspicion=1.0, now=0)
        twitter.apply_moderation(10 ** 9)
        removed = sum(
            1 for p in twitter.all_posts() if p.status is not PostStatus.LIVE
        )
        assert removed >= 35

    def test_moderation_applies_lazily(self, twitter):
        post = twitter.publish("x", "a", now=0)
        twitter._pending_removals.append((post.post_id, 100, False))
        assert twitter.is_post_live(post.post_id, 50)
        assert not twitter.is_post_live(post.post_id, 150)


class TestAPIs:
    def test_twitter_api_surface(self, twitter):
        post = twitter.publish("hello https://a.weebly.com/", "u", now=3)
        api = TwitterAPI(twitter)
        assert [p.post_id for p in api.search_recent(0, 10)] == [post.post_id]
        assert api.search_recent(4, 10) == []

    def test_crowdtangle_api_surface(self, facebook):
        post = facebook.publish("hello", "u", now=3)
        api = CrowdTangleAPI(facebook)
        assert [p.post_id for p in api.posts(0, 10)] == [post.post_id]
        assert api.posts(4, 10) == []

    def test_post_ids_unique_per_platform(self, twitter, facebook):
        ids = {twitter.publish("x", "u", 0).post_id for _ in range(5)}
        ids |= {facebook.publish("x", "u", 0).post_id for _ in range(5)}
        assert len(ids) == 10
