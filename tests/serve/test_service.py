"""VerdictService: layering, provenance tags, overload, invalidation hooks."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.classifier import FreePhishClassifier
from repro.core.extension import NavigationVerdict
from repro.ml import RandomForestClassifier
from repro.obs.instrument import Instrumentation
from repro.serve.admission import FastPathModel
from repro.serve.service import ServedFrom, VerdictService
from repro.sim import build_ground_truth
from repro.simnet.url import parse_url

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def service(web, trained_classifier):
    return VerdictService(web, trained_classifier)


def _phish(web, phishing_generator, rng, n=1, provider="weebly"):
    urls = [
        phishing_generator.create_site(web.fwb_providers[provider], 0, rng).root_url
        for _ in range(n)
    ]
    return urls if n > 1 else urls[0]


class TestLayering:
    def test_feed_takes_precedence_and_caches(self, service, web,
                                              benign_generator, rng):
        # Even a page the classifier would allow is blocked once fed.
        site = benign_generator.create_fwb_site(web.fwb_providers["wix"], 0, rng)
        service.update_feed([str(site.root_url)])
        served = service.check(site.root_url, now=5)
        assert served.verdict is NavigationVerdict.BLOCKED_FEED
        assert served.served_from is ServedFrom.FEED
        assert service.check(site.root_url, now=6).served_from is (
            ServedFrom.CACHE_EXACT
        )

    def test_non_fwb_allowed_without_model(self, service):
        served = service.check(parse_url("https://news.example.org/story"), now=0)
        assert served.verdict is NavigationVerdict.ALLOWED
        assert served.served_from is ServedFrom.NON_FWB

    def test_model_path_tags_and_caches(self, service, web,
                                        phishing_generator, rng):
        url = _phish(web, phishing_generator, rng)
        served = service.check(url, now=0)
        assert served.served_from is ServedFrom.MODEL
        assert served.probability is not None
        again = service.check(url, now=1)
        assert again.served_from in (ServedFrom.CACHE_EXACT,
                                     ServedFrom.CACHE_NEGATIVE)
        assert again.verdict is served.verdict

    def test_unreachable_not_cached(self, service):
        url = parse_url("https://ghost.weebly.com/")
        first = service.check(url, now=0)
        assert first.verdict is NavigationVerdict.UNREACHABLE
        assert first.served_from is ServedFrom.MODEL
        assert service.cache.lookup(url, now=0) is None


class TestBatchedPath:
    def test_submit_pump_delivers_model_verdicts(self, web, trained_classifier,
                                                 phishing_generator, rng):
        service = VerdictService(
            web, trained_classifier, max_batch_size=4, max_wait_minutes=1
        )
        urls = _phish(web, phishing_generator, rng, n=4)
        assert all(service.submit(url, now=0) is None for url in urls)
        served = service.pump(now=0)  # batch full -> flushes immediately
        assert len(served) == 4
        assert all(v.served_from is ServedFrom.MODEL for v in served)

    def test_deadline_flush_via_pump(self, web, trained_classifier,
                                     phishing_generator, rng):
        service = VerdictService(
            web, trained_classifier, max_batch_size=100, max_wait_minutes=2
        )
        url = _phish(web, phishing_generator, rng)
        service.submit(url, now=0)
        assert service.pump(now=1) == []
        (served,) = service.pump(now=2)
        assert served.queued_minutes == 2

    def test_front_line_submissions_resolve_immediately(self, web,
                                                        trained_classifier):
        service = VerdictService(web, trained_classifier)
        served = service.submit(parse_url("https://plain.example.com/"), now=0)
        assert served is not None and served.served_from is ServedFrom.NON_FWB

    def test_front_line_verdicts_are_not_shared(self, web, trained_classifier):
        service = VerdictService(web, trained_classifier)
        url = parse_url("https://plain.example.com/")
        first = service.submit(url, now=0)
        second = service.submit(url, now=1)
        assert second.served_from is ServedFrom.CACHE_NEGATIVE
        again = service.submit(url, now=2)
        assert again is not second and again == second
        assert first.url is url and second.url is url and again.url is url

    def test_repeated_hits_count_in_every_counter(self, web, trained_classifier,
                                                  phishing_generator, rng):
        instr = Instrumentation()
        service = VerdictService(web, trained_classifier, instrumentation=instr)
        url = _phish(web, phishing_generator, rng)
        service.update_feed([url])
        assert service.submit(url, now=0).served_from is ServedFrom.FEED
        hits = 9
        for now in range(1, hits + 1):
            assert service.submit(url, now).served_from is ServedFrom.CACHE_EXACT
        counters = instr.metrics.snapshot()["counters"]
        assert counters["serve.cache.hit.exact"] == hits
        assert counters["serve.served.cache_exact"] == hits
        assert counters["serve.served.feed"] == 1
        assert counters["serve.requests"] == hits + 1


class TestOverload:
    def test_sheds_to_degraded_instead_of_erroring(self, web, trained_classifier,
                                                   phishing_generator, rng):
        instr = Instrumentation()
        service = VerdictService(
            web, trained_classifier,
            max_queue_depth=4, max_batches_per_tick=0,  # model starved
            instrumentation=instr,
        )
        urls = _phish(web, phishing_generator, rng, n=10)
        for url in urls:
            assert service.submit(url, now=0) is None
        served = service.pump(now=0)
        degraded = [v for v in served if v.degraded]
        assert len(degraded) == 6  # 10 arrivals - 4 queue slots
        assert all(
            v.served_from is ServedFrom.MODEL_DEGRADED for v in degraded
        )
        # Unfitted fast path fails open rather than guessing.
        assert all(v.verdict is NavigationVerdict.ALLOWED for v in degraded)
        counters = instr.metrics.snapshot()["counters"]
        assert counters["serve.served.model_degraded"] == 6
        assert counters["serve.admission.degraded"] == 6
        # The queued four still get full-model verdicts at drain.
        finished = service.drain(now=1)
        assert len(finished) == 4
        assert all(v.served_from is ServedFrom.MODEL for v in finished)


class TestInvalidationHooks:
    def test_feed_ingest_purges_cached_allow(self, service, web,
                                             benign_generator, rng):
        site = benign_generator.create_fwb_site(web.fwb_providers["wix"], 0, rng)
        assert service.check(site.root_url, 0).verdict is NavigationVerdict.ALLOWED
        stale = service.update_feed([str(site.root_url)])
        assert stale == 1
        assert service.check(site.root_url, 1).verdict is (
            NavigationVerdict.BLOCKED_FEED
        )

    def test_takedown_purges_cached_block(self, service, web,
                                          phishing_generator, rng):
        url = _phish(web, phishing_generator, rng)
        service.update_feed([str(url)])
        service.check(url, 0)  # populate exact + domain tiers
        assert service.on_takedown(url) > 0
        assert service.cache.lookup(url, now=1) is None


def _served_telemetry():
    """Replay 20 minutes of seeded traffic through submit/pump/drain.

    A four-slot queue drained one batch per minute overflows, so both the
    admitted and the degraded fast path serve requests.
    """
    seed = 11
    dataset = build_ground_truth(n_per_class=10, seed=seed)
    classifier = FreePhishClassifier(
        model=RandomForestClassifier(n_estimators=10, random_state=seed)
    )
    classifier.fit_pages(dataset.pages, dataset.labels)
    population = [page.url for page in dataset.pages]
    fast_path = FastPathModel().fit_urls(population, dataset.labels)
    instr = Instrumentation()
    service = VerdictService(
        dataset.web, classifier, fast_path=fast_path,
        max_queue_depth=4, max_batches_per_tick=1, instrumentation=instr,
    )
    rng = np.random.default_rng(seed)
    minutes = 20
    for minute in range(minutes):
        instr.set_time(minute)
        for index in rng.integers(len(population), size=12):
            service.submit(population[index], minute)
        service.pump(minute)
    service.drain(minutes)
    return json.dumps(
        instr.telemetry(include_events=False), sort_keys=True, indent=2
    )


def _load_validator():
    path = REPO_ROOT / "scripts" / "validate_telemetry.py"
    spec = importlib.util.spec_from_file_location("validate_telemetry", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def served_telemetry():
    return _served_telemetry()


class TestDeterminism:
    def test_same_seed_serve_runs_byte_identical_telemetry(
        self, served_telemetry
    ):
        assert _served_telemetry() == served_telemetry

    def test_served_telemetry_passes_validators(self, served_telemetry):
        document = json.loads(served_telemetry)
        assert document["metrics"]["counters"]["serve.admission.degraded"] > 0
        validator = _load_validator()
        schema = json.loads(
            (REPO_ROOT / "docs" / "telemetry.schema.json").read_text()
        )
        assert validator.validate(document, schema) == []
        assert validator.serve_consistency(document) == []
        assert validator.cache_consistency(document) == []

    def test_validator_rejects_a_v1_spans_section(self, served_telemetry):
        document = json.loads(served_telemetry)
        document["spans"] = {"started": 0, "finished": 0}
        schema = json.loads(
            (REPO_ROOT / "docs" / "telemetry.schema.json").read_text()
        )
        assert _load_validator().validate(document, schema) == [
            "$: unexpected key 'spans'"
        ]
