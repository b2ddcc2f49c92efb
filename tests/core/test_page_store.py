"""The :class:`Preprocessor` page store: one parse per page version.

The store memoizes only what a page version's ``snapshot_key`` determines
(its parsed document and its features). Everything that can change while
the markup stays the same — fetch time, certificate, iframe contents,
downloads, outbound links — is read afresh on every call, so a store hit
after a target takedown sees the takedown. Intel reads pages through the
same store, so the framework and the ecosystem parse each version once.
"""

import numpy as np
import pytest

import repro.core.preprocess as preprocess_module
from repro.config import SimulationConfig
from repro.core import Preprocessor
from repro.core.classifier import FreePhishClassifier
from repro.ecosystem.intel import gather_intel
from repro.errors import FetchError
from repro.ml import RandomForestClassifier
from repro.obs import Instrumentation
from repro.serve import VerdictService
from repro.sim import CampaignWorld, build_ground_truth
from repro.simnet import Browser
from repro.sitegen.phishing import PhishingVariant

BEFORE, TAKEDOWN, AFTER = 10, 100, 500


@pytest.fixture()
def corpus():
    """A fresh ground-truth corpus (the tests take its sites down)."""
    return build_ground_truth(n_per_class=40, seed=3)


def _page(corpus, variant):
    return next(
        page for page, v in zip(corpus.pages, corpus.variants) if v == variant
    )


def _take_down_targets(corpus):
    """Remove every iframe/link-out target site and every drive-by payload;
    the pages that point at them keep their markup."""
    web = corpus.web
    for site in web.self_hosting.iter_sites():
        if site.metadata.get("linked_only"):
            site.remove(TAKEDOWN)
    for page in corpus.pages:
        web.site_for(page.url).files.clear()


def _fields(snapshot):
    return (
        snapshot.url, snapshot.fetched_at, snapshot.markup,
        snapshot.document.to_html(), snapshot.certificate,
        snapshot.iframe_contents, snapshot.downloads, snapshot.outbound_links,
    )


class TestFreshAssembly:
    def test_iframe_takedown_is_seen_on_a_store_hit(self, corpus):
        pre = Preprocessor(corpus.web)
        url = _page(corpus, "iframe").url
        first = pre.process(url, BEFORE)
        assert first.snapshot.iframe_contents[0][1]  # the framed page's markup
        _take_down_targets(corpus)
        later = pre.process(url, AFTER)
        assert later.snapshot.fetched_at == AFTER
        assert [markup for _src, markup in later.snapshot.iframe_contents] == [""]
        # Same page version: the parse, its facts and the features are shared.
        assert later.snapshot.document is first.snapshot.document
        assert later.snapshot.facts is first.snapshot.facts
        assert later.features is first.features

    def test_download_takedown_is_seen_on_a_store_hit(self, corpus):
        pre = Preprocessor(corpus.web)
        url = _page(corpus, "driveby").url
        first = pre.process(url, BEFORE)
        assert len(first.snapshot.downloads) == 1
        _take_down_targets(corpus)
        later = pre.process(url, AFTER)
        assert later.snapshot.fetched_at == AFTER
        assert later.snapshot.downloads == []
        assert later.snapshot.document is first.snapshot.document
        assert later.features is first.features

    def test_bare_file_download_bypasses_the_store(self, web, rng,
                                                   phishing_generator):
        provider = web.fwb_providers["weebly"]
        spec = phishing_generator.sample_spec(
            provider.service, rng, variant=PhishingVariant.DRIVEBY
        )
        site = phishing_generator.create_site(provider, 0, rng, spec=spec)
        pre = Preprocessor(web)
        file_url = site.root_url.with_path("/invoice.zip")
        page = pre.process(file_url, BEFORE)
        assert page.snapshot.markup == ""
        assert [asset.filename for asset in page.snapshot.downloads] == ["invoice.zip"]
        assert pre.cache_len == 0
        assert _fields(pre.snapshot(file_url, BEFORE)) == _fields(
            Browser(web).snapshot(file_url, BEFORE)
        )


class TestParityWithBrowser:
    def test_store_snapshots_and_intel_match_a_browser(self, corpus):
        web = corpus.web
        instr = Instrumentation()
        pre, browser = Preprocessor(web, instrumentation=instr), Browser(web)
        urls = [page.url for page in corpus.pages]

        def assert_parity(now):
            for url in urls:
                assert _fields(pre.snapshot(url, now)) == _fields(
                    browser.snapshot(url, now)
                ), url
                assert gather_intel(web, pre, url, now) == gather_intel(
                    web, browser, url, now
                ), url

        assert_parity(BEFORE)
        _take_down_targets(corpus)
        assert_parity(AFTER)
        # One parse per page; every later load was a store hit.
        counters = instr.metrics.snapshot()["counters"]
        assert counters["preprocess.cache.miss"] == len(urls)
        assert counters["preprocess.cache.hit"] == 3 * len(urls)

    def test_unreachable_raises_like_a_browser(self, corpus):
        web = corpus.web
        target = next(
            site for site in web.self_hosting.iter_sites()
            if site.metadata.get("linked_only")
        )
        target.remove(TAKEDOWN)
        with pytest.raises(FetchError) as from_browser:
            Browser(web).snapshot(target.root_url, AFTER)
        with pytest.raises(FetchError) as from_store:
            Preprocessor(web).snapshot(target.root_url, AFTER)
        assert type(from_store.value) is type(from_browser.value)
        assert str(from_store.value) == str(from_browser.value)


def test_campaign_parses_each_page_version_once(parse_calls):
    config = SimulationConfig(seed=5, duration_days=1, target_fwb_phishing=30)
    world = CampaignWorld(config, train_samples_per_class=30)
    world.run()
    assert len(parse_calls) > 100
    assert len(parse_calls) == len(set(parse_calls))
    assert world.intel.pages is world.preprocessor


class TestCapacity:
    """``PAGE_CACHE_SIZE`` covers the reuse these traffic shapes have: an
    unbounded store would parse no fewer pages."""

    UNBOUNDED = 10**9

    @staticmethod
    def _campaign_counters():
        config = SimulationConfig(seed=5, duration_days=1, target_fwb_phishing=100)
        world = CampaignWorld(config, train_samples_per_class=20)
        world.run()
        return world.instr.metrics.counters()

    def test_campaign_day_loses_no_reuse(self, monkeypatch):
        bounded = self._campaign_counters()
        # The day loads more page versions than the store holds.
        assert bounded["preprocess.cache.evicted"] > 0
        assert bounded["preprocess.cache.hit"] > 0
        monkeypatch.setattr(preprocess_module, "PAGE_CACHE_SIZE", self.UNBOUNDED)
        unbounded = self._campaign_counters()
        assert bounded["preprocess.cache.miss"] == unbounded["preprocess.cache.miss"]

    @pytest.fixture(scope="class")
    def catalogue(self):
        """200 ground-truth URLs, a model and a day of Zipf 1.1 requests
        (20 every five minutes); allowed verdicts expire from the verdict
        cache within the day, so the page store is read again."""
        corpus = build_ground_truth(n_per_class=100, seed=3)
        classifier = FreePhishClassifier(
            model=RandomForestClassifier(n_estimators=10, random_state=0)
        )
        classifier.fit_pages(corpus.pages, corpus.labels)
        urls = [page.url for page in corpus.pages]
        weights = np.arange(1, len(urls) + 1, dtype=float) ** -1.1
        rng = np.random.default_rng(0)
        requests = rng.choice(len(urls), size=(288, 20), p=weights / weights.sum())
        return corpus.web, classifier, urls, requests

    @staticmethod
    def _replay_counters(catalogue):
        web, classifier, urls, requests = catalogue
        instr = Instrumentation()
        service = VerdictService(web, classifier, instrumentation=instr)
        for step, row in enumerate(requests):
            for index in row:
                service.submit(urls[index], 5 * step)
            service.pump(5 * step)
        service.drain(5 * len(requests))
        return instr.metrics.counters()

    def test_catalogue_replay_loses_no_reuse(self, catalogue, monkeypatch):
        bounded = self._replay_counters(catalogue)
        assert bounded["preprocess.cache.hit"] > 0
        monkeypatch.setattr(preprocess_module, "PAGE_CACHE_SIZE", self.UNBOUNDED)
        unbounded = self._replay_counters(catalogue)
        assert bounded["preprocess.cache.miss"] == unbounded["preprocess.cache.miss"]

    def test_catalogue_replay_has_reuse_a_small_store_loses(
        self, catalogue, monkeypatch
    ):
        """The replay can tell capacities apart: 16 entries miss more."""
        default = self._replay_counters(catalogue)
        monkeypatch.setattr(preprocess_module, "PAGE_CACHE_SIZE", 16)
        small = self._replay_counters(catalogue)
        assert small["preprocess.cache.miss"] > default["preprocess.cache.miss"]
