"""Snapshot-keyed feature/page caches and the batched classify hand-off.

Covers the hot-path additions of the performance pass:

* :func:`snapshot_key` — the sanctioned cache-key producer (RP304);
* the :class:`Preprocessor` page store, the only page memo
  (hit/miss/evicted counters, LRU bound and recency);
* :meth:`FreePhishClassifier.classify_pages` — one ``predict_proba`` per
  batch, bit-identical to the per-page path;
* the lazily rendered :class:`PageSnapshot` visual signature.
"""

import numpy as np
import pytest

from repro.core import FreePhishClassifier, Preprocessor
from repro.core import preprocess as preprocess_module
from repro.core.features import (
    FeatureExtractor,
    snapshot_key,
)
from repro.ml import RandomForestClassifier
from repro.obs import Instrumentation
from repro.simnet.url import parse_url
from repro.webdoc import VisualSignature

URL_A = parse_url("https://login-secure.weebly.com/")
URL_B = parse_url("https://other-site.weebly.com/")
MARKUP = "<html><head><title>hi</title></head><body><a href='/'>x</a></body></html>"


class TestSnapshotKey:
    def test_deterministic(self):
        assert snapshot_key(URL_A, MARKUP) == snapshot_key(URL_A, MARKUP)

    def test_prefixed_hex_digest(self):
        key = snapshot_key(URL_A, MARKUP)
        assert key.startswith("snap:")
        assert len(key) == len("snap:") + 64

    def test_markup_changes_key(self):
        assert snapshot_key(URL_A, MARKUP) != snapshot_key(URL_A, MARKUP + " ")

    def test_url_changes_key(self):
        assert snapshot_key(URL_A, MARKUP) != snapshot_key(URL_B, MARKUP)

    def test_accepts_plain_string_url(self):
        assert snapshot_key(str(URL_A), MARKUP) == snapshot_key(URL_A, MARKUP)


class TestFeatureExtractor:
    def test_repeat_extraction_recomputes_equal_features(self):
        extractor = FeatureExtractor()
        first = extractor.extract(URL_A, MARKUP)
        second = extractor.extract(URL_A, MARKUP)
        assert second is not first
        assert np.array_equal(first.fwb_vector, second.fwb_vector)


@pytest.fixture()
def live_urls(web, benign_generator, rng):
    provider = web.fwb_providers["wix"]
    return [
        benign_generator.create_fwb_site(provider, 0, rng).root_url
        for _ in range(4)
    ]


class TestPreprocessorCache:
    def _counters(self, instr):
        counters = instr.metrics.snapshot()["counters"]
        return (
            counters.get("preprocess.cache.hit", 0),
            counters.get("preprocess.cache.miss", 0),
            counters.get("preprocess.cache.evicted", 0),
        )

    def test_reobservation_hits(self, web, live_urls):
        instr = Instrumentation()
        pre = Preprocessor(web, instrumentation=instr)
        first = pre.process(live_urls[0], now=0)
        second = pre.process(live_urls[0], now=30)
        # The version's facts and features are shared; the snapshot is new.
        assert second.snapshot.facts is first.snapshot.facts
        assert second.features is first.features
        assert second.snapshot.fetched_at == 30
        assert self._counters(instr) == (1, 1, 0)

    def test_cache_bound_and_evictions(self, web, live_urls, monkeypatch):
        monkeypatch.setattr(preprocess_module, "PAGE_CACHE_SIZE", 2)
        instr = Instrumentation()
        pre = Preprocessor(web, instrumentation=instr)
        for url in live_urls[:3]:
            pre.process(url, now=0)
        assert pre.cache_len == 2
        assert self._counters(instr) == (0, 3, 1)

    def test_lru_recency_order(self, web, live_urls, monkeypatch):
        monkeypatch.setattr(preprocess_module, "PAGE_CACHE_SIZE", 2)
        instr = Instrumentation()
        pre = Preprocessor(web, instrumentation=instr)
        url_a, url_b, url_c = live_urls[:3]
        a = pre.process(url_a, now=0)
        b = pre.process(url_b, now=0)
        # Touch A so B is the eviction victim when C arrives.
        assert pre.process(url_a, now=5).features is a.features
        pre.process(url_c, now=5)
        still_cached = pre.process(url_a, now=10)  # A survived
        assert still_cached.features is a.features
        assert still_cached.snapshot.facts is a.snapshot.facts
        assert still_cached.snapshot.fetched_at == 10
        reloaded = pre.process(url_b, now=10)  # B was evicted
        assert reloaded.features is not b.features
        assert reloaded.snapshot.facts is not b.snapshot.facts
        assert self._counters(instr) == (2, 4, 2)

    def test_unreachable_returns_none_without_caching(self, web):
        instr = Instrumentation()
        pre = Preprocessor(web, instrumentation=instr)
        ghost = parse_url("https://ghost.weebly.com/")
        assert pre.process(ghost, now=0) is None
        assert pre.cache_len == 0
        assert self._counters(instr) == (0, 0, 0)

    def test_cached_page_features_identical(self, web, live_urls):
        pre = Preprocessor(web)
        first = pre.process(live_urls[1], now=0)
        fresh = Preprocessor(web).process(live_urls[1], now=30)
        assert np.array_equal(first.fwb_vector, fresh.fwb_vector)


class TestBatchedClassify:
    @pytest.fixture()
    def fitted(self, ground_truth):
        classifier = FreePhishClassifier(
            model=RandomForestClassifier(n_estimators=15, random_state=11)
        )
        classifier.fit_pages(ground_truth.pages, ground_truth.labels)
        return classifier

    def test_batch_matches_per_page(self, fitted, ground_truth):
        pages = ground_truth.pages[:24]
        batched = fitted.classify_pages(pages)
        for page, prediction in zip(pages, batched):
            single = fitted.classify_page(page)
            assert prediction.probability == single.probability
            assert prediction.label == single.label

    def test_single_page_batch(self, fitted, ground_truth):
        page = ground_truth.pages[0]
        [prediction] = fitted.classify_pages([page])
        assert prediction.probability == fitted.classify_page(page).probability

    def test_empty_batch(self, fitted):
        assert fitted.classify_pages([]) == []

    def test_runtime_amortized(self, fitted, ground_truth):
        batched = fitted.classify_pages(ground_truth.pages[:8])
        runtimes = {prediction.runtime_seconds for prediction in batched}
        assert len(runtimes) == 1  # one timed call, split across the batch


class _StubStreaming:
    """Replays one fixed observation list every poll."""

    def __init__(self, observations):
        self._observations = observations

    def poll(self, now):
        return list(self._observations)


class _StubReporting:
    def __init__(self):
        self.reported = []

    def report(self, observation, now):
        self.reported.append((str(observation.url), now))


class _StubAnalysis:
    def __init__(self):
        self.tracked = []

    def track(self, observation):
        self.tracked.append(str(observation.url))


class TestFrameworkBatching:
    def _observations(self, web, phishing_generator, benign_generator, rng):
        from repro.core.streaming import StreamObservation
        from repro.social.posts import Post

        provider = web.fwb_providers["weebly"]
        sites = [phishing_generator.create_site(provider, 0, rng) for _ in range(3)]
        sites += [benign_generator.create_fwb_site(provider, 0, rng) for _ in range(3)]
        observations = []
        for i, site in enumerate(sites):
            post = Post(
                platform="twitter", post_id=f"p{i}", author=f"u{i}",
                text=str(site.root_url), created_at=0,
            )
            observations.append(
                StreamObservation(
                    url=site.root_url, post=post, platform="twitter",
                    observed_at=0, fwb_name="weebly",
                )
            )
        return observations

    def test_step_matches_sequential_classification(
        self, web, phishing_generator, benign_generator, rng, ground_truth
    ):
        """One batched tick must flag exactly the pages the per-page
        classifier flags, with identical probabilities, in arrival order."""
        from repro.core import FreePhish

        observations = self._observations(
            web, phishing_generator, benign_generator, rng
        )
        classifier = FreePhishClassifier(
            model=RandomForestClassifier(n_estimators=15, random_state=11)
        )
        classifier.fit_pages(ground_truth.pages, ground_truth.labels)
        reporting = _StubReporting()
        analysis = _StubAnalysis()
        framework = FreePhish(
            _StubStreaming(observations), Preprocessor(web), classifier,
            reporting, analysis,
        )
        fresh = framework.step(now=10)

        expected = []
        reference = Preprocessor(web)
        for observation in observations:
            page = reference.process(observation.url, 10)
            prediction = classifier.classify_page(page)
            if prediction.label == 1:
                expected.append((str(observation.url), prediction.probability))
        assert [(str(r.observation.url), r.probability) for r in fresh] == expected
        assert reporting.reported == [(url, 10) for url, _ in expected]
        assert analysis.tracked == [url for url, _ in expected]
        assert len(framework.detections) == len(expected)
        assert framework.observations == len(observations)

    def test_batch_counters(
        self, web, phishing_generator, benign_generator, rng, ground_truth
    ):
        from repro.core import FreePhish

        observations = self._observations(
            web, phishing_generator, benign_generator, rng
        )
        classifier = FreePhishClassifier(
            model=RandomForestClassifier(n_estimators=15, random_state=11)
        )
        classifier.fit_pages(ground_truth.pages, ground_truth.labels)
        instr = Instrumentation()
        framework = FreePhish(
            _StubStreaming(observations), Preprocessor(web), classifier,
            _StubReporting(), _StubAnalysis(), instrumentation=instr,
        )
        framework.step(now=10)
        counters = instr.metrics.snapshot()["counters"]
        assert counters["classify.batch.calls"] == 1
        assert counters["classify.batch.rows"] == len(observations)


class TestLazySignature:
    def test_signature_rendered_on_demand(self, web, browser, live_urls):
        snapshot = browser.snapshot(live_urls[0], now=0)
        assert snapshot._signature is None  # not rendered at snapshot time
        signature = snapshot.signature
        assert isinstance(signature, VisualSignature)
        assert snapshot.signature is signature  # memoized
