"""The four Table-2 comparison detectors."""

import numpy as np
import pytest

from repro.baselines import (
    BaseStackModelDetector,
    PhishIntentionDetector,
    URLNetDetector,
    VisualPhishNetDetector,
)
from repro.core import FreePhishClassifier
from repro.errors import NotFittedError
from repro.ml import StackModel, train_test_split
from repro.simnet import Browser
from repro.webdoc import parse_html


@pytest.fixture(scope="module")
def split(ground_truth):
    indices = np.arange(len(ground_truth.pages))
    tr, te, ytr, yte = train_test_split(
        indices.reshape(-1, 1), ground_truth.labels, test_size=0.3, random_state=5
    )
    train_pages = [ground_truth.pages[int(i)] for i in tr.ravel()]
    test_pages = [ground_truth.pages[int(i)] for i in te.ravel()]
    return train_pages, ytr, test_pages, yte


def _accuracy(detector, test_pages, yte):
    predictions = np.array([detector.predict_page(p) for p in test_pages])
    return float(np.mean(predictions == yte))


class TestURLNet:
    def test_learns_strong_lexical_signal(self):
        """On URLs with a clean token signal the CNN learns the boundary."""
        rng = np.random.default_rng(0)
        words = ["sunny", "maple", "corner", "happy", "blue", "craft"]
        benign = [
            f"https://{words[i % 6]}{i}.example.com/" for i in range(120)
        ]
        phish = [
            f"https://{words[i % 6]}{i}-login-verify.example.com/"
            for i in range(120)
        ]
        urls = benign + phish
        labels = np.array([0] * 120 + [1] * 120)
        order = rng.permutation(len(urls))
        urls = [urls[i] for i in order]
        labels = labels[order]
        detector = URLNetDetector(epochs=30, random_state=1)
        detector.fit_urls(urls[:180], labels[:180])
        probs = detector.predict_proba_urls(urls[180:])
        accuracy = np.mean((probs >= 0.5) == labels[180:])
        assert accuracy > 0.85

    def test_encoding_fixed_length(self):
        from repro.baselines.urlnet import encode_url

        encoded = encode_url("https://example.com/", max_len=30)
        assert encoded.shape == (30,)
        assert encode_url("x" * 500, max_len=30).shape == (30,)

    def test_unfitted_raises(self, split):
        _tr, _ytr, test_pages, _yte = split
        with pytest.raises(NotFittedError):
            URLNetDetector().predict_page(test_pages[0])

    def test_probabilities_bounded(self, split):
        train_pages, ytr, test_pages, _ = split
        detector = URLNetDetector(epochs=3, random_state=1)
        detector.fit_pages(train_pages, ytr)
        probs = detector.predict_proba_urls([str(p.url) for p in test_pages])
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_training_reduces_loss(self):
        """More epochs fit a clean lexical boundary better."""
        urls = [f"https://benign{i}.example.com/" for i in range(60)]
        urls += [f"https://verify-login{i}.example.com/" for i in range(60)]
        labels = np.array([0] * 60 + [1] * 60)
        few = URLNetDetector(epochs=1, random_state=1).fit_urls(urls, labels)
        many = URLNetDetector(epochs=30, random_state=1).fit_urls(urls, labels)
        acc_few = np.mean((few.predict_proba_urls(urls) >= 0.5) == labels)
        acc_many = np.mean((many.predict_proba_urls(urls) >= 0.5) == labels)
        assert acc_many >= acc_few
        assert acc_many > 0.9


class TestVisualPhishNet:
    def test_gallery_covers_catalog(self):
        detector = VisualPhishNetDetector()
        detector.build_gallery()
        assert len(detector._gallery) == 109

    def test_fit_and_reasonable_accuracy(self, split):
        train_pages, ytr, test_pages, yte = split
        detector = VisualPhishNetDetector(random_state=2)
        detector.fit_pages(train_pages, ytr)
        accuracy = _accuracy(detector, test_pages, yte)
        assert accuracy > 0.6

    def test_brand_own_domain_not_flagged(self, split, web, rng):
        """A page visually matching a brand but on its real domain is fine."""
        train_pages, ytr, _te, _yte = split
        detector = VisualPhishNetDetector(random_state=2)
        detector.fit_pages(train_pages, ytr)
        from repro.baselines.visualphishnet import _brand_login_markup
        from repro.core.preprocess import Preprocessor
        from repro.sitegen.templates import TemplateLibrary

        brand = detector.catalog.by_slug("paypaul")
        markup = _brand_login_markup(brand, TemplateLibrary(), rng)
        # Host the page at whatever brand the matcher deems nearest, so the
        # own-domain exemption is what decides the verdict.
        from repro.webdoc import render_signature

        slug, legit_domain, _dist = detector._nearest_brand(
            render_signature(markup)
        )
        site = web.self_hosting.create_site(
            legit_domain, owner=slug, now=0, registered_at=-10 ** 7
        )
        site.add_page("/", markup)
        page = Preprocessor(web).process(site.root_url, 5)
        assert detector.predict_page(page) == 0

    def test_unfitted_raises(self, split):
        with pytest.raises(NotFittedError):
            VisualPhishNetDetector().predict_page(split[2][0])


class TestPhishIntention:
    def test_high_accuracy_including_evasive(self, split, ground_truth):
        train_pages, ytr, test_pages, yte = split
        detector = PhishIntentionDetector(Browser(ground_truth.web), random_state=2)
        detector.fit_pages(train_pages, ytr)
        accuracy = _accuracy(detector, test_pages, yte)
        assert accuracy > 0.9

    def test_dynamic_phase_catches_two_step(self, ground_truth):
        """Pages whose credentials live one hop away are still flagged."""
        two_step_indices = [
            i for i, v in enumerate(ground_truth.variants) if v == "two_step"
        ]
        if not two_step_indices:
            pytest.skip("no two-step samples in this ground truth draw")
        detector = PhishIntentionDetector(Browser(ground_truth.web), random_state=2)
        detector.fit_pages(ground_truth.pages, ground_truth.labels)
        caught = sum(
            detector.predict_page(ground_truth.pages[i]) for i in two_step_indices
        )
        assert caught >= len(two_step_indices) * 0.6

    def test_credential_interface_reads_snapshot_documents(self, ground_truth, parse_calls):
        """Phase 2 parses only iframe markup; page and hop documents are reused."""
        detector = PhishIntentionDetector(Browser(ground_truth.web), random_state=2)
        browser = Browser(ground_truth.web)

        def reparsing_reference(page, now):
            snapshot = page.snapshot
            framed = [markup for _src, markup in snapshot.iframe_contents]
            chain = browser.follow_workflow(page.url, now, max_hops=detector.max_hops)
            for markup in [snapshot.markup] + framed:
                document = parse_html(markup)
                if document.password_inputs() or len(document.credential_inputs()) >= 2:
                    return True
            if any(a.malicious for a in snapshot.downloads):
                return True
            for hop in chain[1:]:
                document = parse_html(hop.markup)
                if document.password_inputs() or len(document.credential_inputs()) >= 2:
                    return True
                if any(a.malicious for a in hop.downloads):
                    return True
            return False

        two_step = [
            page for page, variant in zip(ground_truth.pages, ground_truth.variants)
            if variant == "two_step"
        ]
        assert two_step
        for page in ground_truth.pages:
            assert detector._credential_interface(page, 10) == reparsing_reference(page, 10)
        for page in two_step:
            del parse_calls[:]
            chain = browser.follow_workflow(page.url, 10, max_hops=detector.max_hops)
            workflow_parses = len(parse_calls)
            del parse_calls[:]
            assert detector._credential_interface(page, 10)
            assert len(parse_calls) == workflow_parses == len(chain)


class TestBaseStackModel:
    def test_uses_base_features(self, split):
        train_pages, ytr, test_pages, yte = split
        detector = BaseStackModelDetector(n_estimators=15, random_state=3)
        detector.fit_pages(train_pages, ytr)
        accuracy = _accuracy(detector, test_pages, yte)
        assert accuracy > 0.8

    def test_batch_prediction_matches_single(self, split):
        train_pages, ytr, test_pages, _ = split
        detector = BaseStackModelDetector(n_estimators=10, random_state=3)
        detector.fit_pages(train_pages, ytr)
        batch = detector.predict_pages(test_pages[:10])
        singles = [detector.predict_page(p) for p in test_pages[:10]]
        assert batch.tolist() == singles

    def test_unfitted_raises(self, split):
        with pytest.raises(NotFittedError):
            BaseStackModelDetector().predict_page(split[2][0])


@pytest.mark.parametrize("detector_cls,view", [
    (BaseStackModelDetector, "base_vector"),
    (FreePhishClassifier, "fwb_vector"),
])
def test_detector_is_a_stack_model_on_its_feature_view(split, detector_cls, view):
    train_pages, ytr, test_pages, _ = split
    detector = detector_cls(n_estimators=8, n_splits=3, random_state=3)
    detector.fit_pages(train_pages, ytr)
    direct = StackModel(n_estimators=8, n_splits=3, random_state=3).fit(
        np.vstack([getattr(page, view) for page in train_pages]), ytr
    )
    X = np.vstack([getattr(page, view) for page in test_pages])
    assert np.array_equal(detector.predict_pages(test_pages), direct.predict(X))
    assert [detector.predict_page(page) for page in test_pages[:5]] == (
        direct.predict(X[:5]).tolist()
    )
    probabilities = [p.probability for p in detector.classify_pages(test_pages)]
    assert probabilities == direct.predict_proba(X)[:, 1].tolist()
