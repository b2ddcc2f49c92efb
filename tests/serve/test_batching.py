"""Micro-batcher: flush triggers, dedupe, skip-and-report, determinism."""

import pytest

from repro.core.extension import NavigationVerdict
from repro.core.preprocess import Preprocessor
from repro.errors import ConfigError
from repro.obs.instrument import Instrumentation
from repro.serve.batching import MicroBatcher
from repro.simnet.url import parse_url


@pytest.fixture()
def batcher(web, trained_classifier):
    return MicroBatcher(
        Preprocessor(web), trained_classifier, max_batch_size=4, max_wait_minutes=2
    )


def _sites(web, generator, rng, n, provider="weebly"):
    return [
        generator.create_site(web.fwb_providers[provider], 0, rng).root_url
        for _ in range(n)
    ]


class TestTriggers:
    def test_flushes_when_batch_full(self, batcher, web, phishing_generator, rng):
        for url in _sites(web, phishing_generator, rng, 4):
            batcher.submit(url, now=0)
        assert batcher.due(now=0)

    def test_flushes_at_deadline(self, batcher, web, phishing_generator, rng):
        batcher.submit(_sites(web, phishing_generator, rng, 1)[0], now=0)
        assert not batcher.due(now=1)
        assert batcher.due(now=2)

    def test_empty_queue_never_due(self, batcher):
        assert not batcher.due(now=100)
        assert batcher.flush(now=100) == []

    def test_invalid_config_rejected(self, web, trained_classifier):
        with pytest.raises(ConfigError):
            MicroBatcher(Preprocessor(web), trained_classifier, max_batch_size=0)


class TestScoring:
    def test_flush_preserves_arrival_order(
        self, batcher, web, phishing_generator, rng
    ):
        urls = _sites(web, phishing_generator, rng, 3)
        for url in urls:
            batcher.submit(url, now=0)
        results = batcher.flush(now=1)
        assert [str(r.url) for r in results] == [str(u) for u in urls]
        assert all(r.queued_minutes == 1 for r in results)

    def test_duplicate_urls_scored_once(self, web, trained_classifier,
                                        phishing_generator, rng):
        instr = Instrumentation()
        batcher = MicroBatcher(
            Preprocessor(web), trained_classifier,
            max_batch_size=8, instrumentation=instr,
        )
        url = _sites(web, phishing_generator, rng, 1)[0]
        for _ in range(3):
            batcher.submit(url, now=0)
        results = batcher.flush(now=0)
        assert len(results) == 3
        assert len({r.verdict for r in results}) == 1
        counters = instr.metrics.snapshot()["counters"]
        assert counters["serve.batch.dedup_saved"] == 2

    def test_unreachable_url_does_not_abort_batch(
        self, batcher, web, phishing_generator, rng
    ):
        live = _sites(web, phishing_generator, rng, 2)
        batcher.submit(live[0], now=0)
        batcher.submit(parse_url("https://ghost.weebly.com/"), now=0)
        batcher.submit(live[1], now=0)
        results = batcher.flush(now=0)
        assert [r.verdict is NavigationVerdict.UNREACHABLE for r in results] == [
            False, True, False,
        ]
        assert results[1].probability is None

    def test_score_single_matches_batched_verdict(
        self, batcher, web, phishing_generator, rng
    ):
        url = _sites(web, phishing_generator, rng, 1)[0]
        single = batcher.score_single(url, now=0)
        batcher.submit(url, now=0)
        (batched,) = batcher.flush(now=0)
        assert single.verdict is batched.verdict
        assert single.probability == batched.probability
        page = batcher.preprocessor.process(url, now=0)
        (expected,) = batcher.classifier.classify_pages([page])
        assert batched.probability == expected.probability


class TestDeterminism:
    def test_same_inputs_same_flush(self, web, trained_classifier,
                                    phishing_generator, rng):
        urls = _sites(web, phishing_generator, rng, 4)

        def run():
            batcher = MicroBatcher(
                Preprocessor(web), trained_classifier, max_batch_size=4
            )
            for url in urls:
                batcher.submit(url, now=3)
            return [
                (r.key, r.verdict.value, r.probability)
                for r in batcher.flush(now=3)
            ]

        assert run() == run()
