"""CampaignWorld internals: arrival rates, housekeeping, bookkeeping,
retention."""

import gc
import weakref

import pytest

from repro.config import TAKEDOWN_WINDOW_MINUTES, SimulationConfig
from repro.sim import CampaignWorld
from repro.webdoc import Document


@pytest.fixture(scope="module")
def world_and_result(campaign_world_and_result):
    return campaign_world_and_result


class TestArrivalRate:
    def test_rate_matches_target(self):
        config = SimulationConfig(seed=1, duration_days=10,
                                  target_fwb_phishing=1440)
        world = CampaignWorld(config, train_samples_per_class=10)
        # 10 days = 1440 ticks of 10 minutes -> exactly 1 arrival per tick.
        assert world._arrivals_per_tick() == pytest.approx(1.0)

    def test_poisson_totals_near_target(self, world_and_result):
        world, result = world_and_result
        target = world.config.target_fwb_phishing
        fwb_launched = sum(1 for a in world.attacker.launched if a.is_fwb)
        assert 0.5 * target < fwb_launched < 1.8 * target


class TestBookkeeping:
    def test_truth_covers_all_stream_urls(self, world_and_result):
        world, result = world_and_result
        for timeline in result.timelines:
            assert timeline.url in world.truth

    def test_benign_sites_recorded_as_benign(self, world_and_result):
        world, _result = world_and_result
        benign_urls = [str(site.root_url) for site, _pid in world.benign_users.posted]
        assert benign_urls
        assert all(world.truth[u] is False for u in benign_urls)

    def test_housekeeping_idempotent(self, world_and_result):
        world, _result = world_and_result
        horizon = world.config.duration_minutes + TAKEDOWN_WINDOW_MINUTES
        removed_before = sum(
            1 for site in world.web.iter_sites() if site.removed_at is not None
        )
        world._housekeeping(horizon + 10_000)
        removed_after = sum(
            1 for site in world.web.iter_sites() if site.removed_at is not None
        )
        assert removed_after == removed_before

    def test_ground_truth_trained_once(self, world_and_result):
        world, result = world_and_result
        assert world._ground_truth_size == 2 * world.train_samples_per_class
        assert result.ground_truth_size == world._ground_truth_size

    def test_linked_only_sites_not_tracked(self, world_and_result):
        """Two-step targets exist on the web but never enter the dataset
        directly (the paper: the linked page is not shared on social)."""
        world, result = world_and_result
        tracked = {t.url for t in result.timelines}
        for site in world.web.iter_sites():
            if site.metadata.get("linked_only"):
                assert str(site.root_url) not in tracked


class TestRetention:
    def test_only_the_page_store_keeps_documents(self, monkeypatch):
        """A finished campaign keeps parsed documents only in the page
        store's LRU: detections and the training corpus hold none."""
        import repro.core.preprocess as preprocess_module

        monkeypatch.setattr(preprocess_module, "PAGE_CACHE_SIZE", 16)
        # Documents other fixtures keep alive are not the campaign's.
        gc.collect()
        before = {
            id(obj): weakref.ref(obj)
            for obj in gc.get_objects() if isinstance(obj, Document)
        }
        world = CampaignWorld(
            SimulationConfig(seed=5, duration_days=1, target_fwb_phishing=40),
            train_samples_per_class=20,
        )
        result = world.run()
        assert result.detections > 0
        gc.collect()
        alive = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Document)
            and (id(obj) not in before or before[id(obj)]() is not obj)
        ]
        assert len(alive) <= 16
