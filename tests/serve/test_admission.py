"""Admission policy and the URL-only degraded fast path."""

import numpy as np
import pytest

from repro.core.extension import NavigationVerdict
from repro.core.features import URL_FEATURE_NAMES, FeatureExtractor
from repro.errors import ConfigError
from repro.ml import RandomForestClassifier
from repro.obs.instrument import Instrumentation
from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    FastPathModel,
)


class TestAdmissionController:
    def test_admits_under_limit_degrades_at_limit(self):
        controller = AdmissionController(max_queue_depth=2)
        assert controller.admit(0) is AdmissionDecision.ADMIT
        assert controller.admit(1) is AdmissionDecision.ADMIT
        assert controller.admit(2) is AdmissionDecision.DEGRADE
        assert controller.admit(5) is AdmissionDecision.DEGRADE

    def test_decisions_counted_and_depth_gauged(self):
        instr = Instrumentation()
        controller = AdmissionController(max_queue_depth=1, instrumentation=instr)
        controller.admit(0)
        controller.admit(7)
        snapshot = instr.metrics.snapshot()
        assert snapshot["counters"]["serve.admission.admitted"] == 1
        assert snapshot["counters"]["serve.admission.degraded"] == 1
        assert snapshot["gauges"]["serve.queue.depth"] == 7

    def test_invalid_depth_rejected(self):
        with pytest.raises(ConfigError):
            AdmissionController(max_queue_depth=0)


class TestFastPathModel:
    def test_fails_open_until_fitted(self, ground_truth):
        model = FastPathModel()
        urls = [page.url for page in ground_truth.pages[:5]]
        assert not model.fitted
        assert model.verdicts(urls) == [NavigationVerdict.ALLOWED] * 5

    def test_fitted_model_separates_classes_roughly(self, ground_truth):
        urls = [page.url for page in ground_truth.pages]
        model = FastPathModel().fit_urls(urls, ground_truth.labels)
        verdicts = model.verdicts(urls)
        blocked = [
            verdict is NavigationVerdict.BLOCKED_CLASSIFIER for verdict in verdicts
        ]
        phishing_hits = sum(
            hit for hit, label in zip(blocked, ground_truth.labels) if label == 1
        )
        benign_hits = sum(
            hit for hit, label in zip(blocked, ground_truth.labels) if label == 0
        )
        # URL-only features are weaker than the full set, but on training
        # data the fast path must block phishing far more often than benign.
        assert phishing_hits > ground_truth.n_phishing * 0.6
        assert benign_hits < (len(ground_truth) - ground_truth.n_phishing) * 0.4

    def test_empty_batch(self):
        assert FastPathModel().verdicts([]) == []

    def test_fixed_model_matches_explicit_forest(self, ground_truth):
        # serve_cold's degraded verdicts depend on these exact settings.
        urls = [page.url for page in ground_truth.pages]
        model = FastPathModel().fit_urls(urls, ground_truth.labels)
        extractor = FeatureExtractor()
        matrix = np.vstack([
            extractor.extract_url_only(url).vector(URL_FEATURE_NAMES)
            for url in urls
        ])
        reference = RandomForestClassifier(
            n_estimators=20, max_depth=8, random_state=13
        ).fit(matrix, np.asarray(ground_truth.labels))
        expected = [
            NavigationVerdict.BLOCKED_CLASSIFIER if probability >= 0.5
            else NavigationVerdict.ALLOWED
            for probability in reference.predict_proba(matrix)[:, 1]
        ]
        assert model.verdicts(urls) == expected
