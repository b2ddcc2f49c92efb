"""Analysis module timelines, framework orchestration, extension guard."""

from repro.core.extension import FreePhishExtension, NavigationVerdict
from repro.core.monitor import VT_SAMPLE_OFFSETS, UrlTimeline, _round_up_to_poll


class TestPollRounding:
    def test_rounds_up_to_grid(self):
        assert _round_up_to_poll(7, 10) == 10
        assert _round_up_to_poll(10, 10) == 10
        assert _round_up_to_poll(11, 10) == 20
        assert _round_up_to_poll(0, 10) == 10
        assert _round_up_to_poll(None, 10) is None


class TestTimelines:
    def test_campaign_timelines_have_expected_structure(self, campaign_result):
        timelines = campaign_result.timelines
        assert timelines, "campaign produced no tracked URLs"
        for timeline in timelines[:20]:
            assert set(timeline.blocklist_offsets) == {
                "gsb", "phishtank", "openphish", "ecrimex",
            }
            assert len(timeline.vt_samples) == len(VT_SAMPLE_OFFSETS)
            offsets = [o for o, _p in timeline.vt_samples]
            assert offsets == sorted(offsets)
            counts = [p for _o, p in timeline.vt_samples]
            assert counts == sorted(counts)  # detections only accumulate

    def test_offsets_on_poll_grid(self, campaign_result):
        for timeline in campaign_result.timelines:
            for offset in timeline.blocklist_offsets.values():
                if offset is not None:
                    assert offset % 10 == 0 and offset > 0
            if timeline.post_removal_offset is not None:
                assert timeline.post_removal_offset % 10 == 0

    def test_both_populations_tracked(self, campaign_result):
        assert campaign_result.fwb_timelines
        assert campaign_result.self_hosted_timelines
        assert all(t.fwb_name for t in campaign_result.fwb_timelines)
        assert all(t.fwb_name is None for t in campaign_result.self_hosted_timelines)

    def test_vt_at_lookup(self):
        timeline = UrlTimeline(
            url="https://x.weebly.com/", platform="twitter",
            fwb_name="weebly", first_seen=0,
            vt_samples=[(180, 1), (1440, 3), (2880, 5)],
        )
        assert timeline.vt_at(100) == 0
        assert timeline.vt_at(180) == 1
        assert timeline.vt_at(2000) == 3
        assert timeline.vt_final() == 5

    def test_tracked_urls_are_truth_phishing(self, campaign_result):
        """The classifier-filtered dataset should be almost all phishing."""
        wrong = [t for t in campaign_result.timelines if not t.is_phishing_truth]
        assert len(wrong) <= 0.05 * len(campaign_result.timelines)


class TestFrameworkStats:
    def test_detection_counts_consistent(self, campaign_world_and_result):
        world, result = campaign_world_and_result
        counters = world.instr.metrics.snapshot()["counters"]
        assert result.detections == len(world.framework.detections)
        assert counters["framework.detections"] == result.detections
        assert counters["framework.reports_filed"] == result.detections
        assert result.observations == world.framework.observations
        assert counters["framework.observations"] == result.observations
        assert result.observations >= result.detections

    def test_detected_urls_unique(self, campaign_world_and_result):
        world, _result = campaign_world_and_result
        urls = world.framework.detected_urls()
        assert len(urls) == len(set(urls))


class TestExtension:
    def test_blocks_feed_urls_without_fetch(self, campaign_world_and_result):
        world, _result = campaign_world_and_result
        extension = FreePhishExtension(world.web, world.classifier)
        detected = world.framework.detected_urls()
        fwb_detected = [
            u for u, r in zip(detected, world.framework.detections)
            if r.observation.is_fwb
        ]
        assert fwb_detected
        extension.update_feed(fwb_detected[:3])
        from repro.simnet.url import parse_url

        verdict = extension.check(parse_url(fwb_detected[0]), now=10 ** 6)
        assert verdict is NavigationVerdict.BLOCKED_FEED

    def test_classifier_blocks_fresh_fwb_phishing(
        self, campaign_world_and_result, rng
    ):
        world, _result = campaign_world_and_result
        extension = FreePhishExtension(world.web, world.classifier)
        site = world.attacker.phishing_generator.create_site(
            world.web.fwb_providers["weebly"], now=10 ** 6, rng=rng
        )
        result = extension.navigate(site.root_url, now=10 ** 6 + 5)
        # Most fresh credential pages should be blocked by the local model.
        assert result.verdict in (
            NavigationVerdict.BLOCKED_CLASSIFIER, NavigationVerdict.ALLOWED,
        )
        assert extension.stats["checked"] >= 1

    def test_benign_navigation_allowed(self, campaign_world_and_result, rng):
        world, _result = campaign_world_and_result
        extension = FreePhishExtension(world.web, world.classifier)
        site = world.benign_users.generator.create_fwb_site(
            world.web.fwb_providers["wix"], now=10 ** 6, rng=rng
        )
        result = extension.navigate(site.root_url, now=10 ** 6 + 5)
        assert result.verdict is NavigationVerdict.ALLOWED
        assert result.fetch is not None and result.fetch.ok

    def test_unreachable(self, campaign_world_and_result):
        world, _result = campaign_world_and_result
        extension = FreePhishExtension(world.web, world.classifier)
        from repro.simnet.url import parse_url

        result = extension.navigate(parse_url("https://gone.example.net/"), 0)
        assert result.verdict is NavigationVerdict.UNREACHABLE

    def test_verdict_cached(self, campaign_world_and_result, rng):
        world, _result = campaign_world_and_result
        extension = FreePhishExtension(world.web, world.classifier)
        site = world.benign_users.generator.create_fwb_site(
            world.web.fwb_providers["weebly"], now=10 ** 6, rng=rng
        )
        extension.check(site.root_url, now=10 ** 6 + 1)
        # Site removed afterwards; cached ALLOWED verdict still returned.
        world.web.take_down(site.root_url, now=10 ** 6 + 2)
        assert extension.check(site.root_url, 10 ** 6 + 3) is NavigationVerdict.ALLOWED
