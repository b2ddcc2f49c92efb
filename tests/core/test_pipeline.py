"""Preprocessor, classifier, streaming, reporting, and framework wiring."""

import numpy as np
import pytest

from repro.core import (
    FreePhishClassifier,
    Preprocessor,
    StreamingModule,
)
from repro.core.extension import NavigationVerdict
from repro.core.reporting import ReportingModule
from repro.ecosystem.takedown import AbuseDesk
from repro.errors import NotFittedError, StreamError
from repro.ml import RandomForestClassifier
from repro.serve.batching import MicroBatcher
from repro.simnet.url import parse_url
from repro.social import (
    CrowdTangleAPI,
    FacebookPlatform,
    TwitterAPI,
    TwitterPlatform,
)


class TestPreprocessor:
    def test_process_returns_features_and_snapshot(self, web, phishing_generator, rng):
        pre = Preprocessor(web)
        site = phishing_generator.create_site(web.fwb_providers["weebly"], 0, rng)
        page = pre.process(site.root_url, now=10)
        assert page is not None
        assert page.fwb_name == "weebly"
        assert page.fwb_vector.shape == (20,)

    def test_unreachable_returns_none(self, web):
        pre = Preprocessor(web)
        assert pre.process(parse_url("https://ghost.example.org/"), 0) is None

    @staticmethod
    def _flush(pre, classifier, urls, now):
        """Score ``urls`` as one serving batch."""
        batcher = MicroBatcher(pre, classifier, max_batch_size=len(urls))
        for url in urls:
            batcher.submit(url, now)
        return batcher.flush(now)

    def test_batch_and_matrix(self, web, benign_generator, rng,
                              trained_classifier):
        pre = Preprocessor(web)
        urls = [
            benign_generator.create_fwb_site(web.fwb_providers["wix"], 0, rng).root_url
            for _ in range(3)
        ]
        verdicts = self._flush(pre, trained_classifier, urls, now=5)
        assert [v.url for v in verdicts] == urls
        assert all(v.probability is not None for v in verdicts)
        pages = [pre.process(url, now=5) for url in urls]
        assert np.vstack([page.fwb_vector for page in pages]).shape == (3, 20)

    def test_batch_skips_and_reports_unreachable(self, web, benign_generator,
                                                 rng, trained_classifier):
        pre = Preprocessor(web)
        live = [
            benign_generator.create_fwb_site(web.fwb_providers["wix"], 0, rng).root_url
            for _ in range(2)
        ]
        ghost = parse_url("https://ghost.weebly.com/")
        verdicts = self._flush(pre, trained_classifier, [live[0], ghost, live[1]], now=5)
        # The dead URL is reported, not raised, and does not abort the batch.
        assert [str(v.url) for v in verdicts] == [str(live[0]), str(ghost), str(live[1])]
        assert [v.verdict is NavigationVerdict.UNREACHABLE for v in verdicts] == [
            False, True, False,
        ]
        assert [v.probability is None for v in verdicts] == [False, True, False]

    def test_batch_reports_mid_batch_takedown(self, web, phishing_generator,
                                              rng, trained_classifier):
        pre = Preprocessor(web)
        sites = [
            phishing_generator.create_site(web.fwb_providers["weebly"], 0, rng)
            for _ in range(3)
        ]
        web.take_down(sites[1].root_url, now=3)
        verdicts = self._flush(pre, trained_classifier, [s.root_url for s in sites], now=5)
        assert [v.verdict is NavigationVerdict.UNREACHABLE for v in verdicts] == [
            False, True, False,
        ]
        assert str(verdicts[1].url) == str(sites[1].root_url)


class TestClassifier:
    def test_fit_predict_on_ground_truth(self, ground_truth):
        clf = FreePhishClassifier(
            model=RandomForestClassifier(n_estimators=20, random_state=0)
        )
        clf.fit_pages(ground_truth.pages, ground_truth.labels)
        X, y = ground_truth.split_arrays(clf.feature_names)
        summary = clf.evaluate(X, y)
        assert summary.accuracy > 0.9  # training-set sanity

    def test_classify_page_times_inference(self, ground_truth):
        clf = FreePhishClassifier(
            model=RandomForestClassifier(n_estimators=10, random_state=0)
        )
        clf.fit_pages(ground_truth.pages, ground_truth.labels)
        prediction = clf.classify_page(ground_truth.pages[0])
        assert prediction.label in (0, 1)
        assert 0.0 <= prediction.probability <= 1.0
        assert prediction.runtime_seconds > 0

    def test_unfitted_raises(self, ground_truth):
        clf = FreePhishClassifier()
        with pytest.raises(NotFittedError):
            clf.classify_page(ground_truth.pages[0])


def _stream_setup(web, rng):
    twitter = TwitterPlatform(rng)
    facebook = FacebookPlatform(rng)
    streaming = StreamingModule(
        web, TwitterAPI(twitter), CrowdTangleAPI(facebook)
    )
    return twitter, facebook, streaming


class TestStreaming:
    def test_poll_collects_both_platforms(self, web, rng):
        twitter, facebook, streaming = _stream_setup(web, rng)
        twitter.publish("see https://a.weebly.com/x", "u", now=5)
        facebook.publish("see https://b.wixsite.com/y", "u", now=7)
        observations = streaming.poll(now=10)
        assert {o.platform for o in observations} == {"twitter", "facebook"}
        assert all(o.is_fwb for o in observations)

    def test_deduplication_across_polls(self, web, rng):
        twitter, _fb, streaming = _stream_setup(web, rng)
        twitter.publish("https://a.weebly.com/x", "u", now=5)
        first = streaming.poll(now=10)
        twitter.publish("again https://a.weebly.com/x", "u", now=15)
        second = streaming.poll(now=20)
        assert len(first) == 1 and len(second) == 0

    def test_non_fwb_urls_flagged(self, web, rng):
        twitter, _fb, streaming = _stream_setup(web, rng)
        twitter.publish("https://random-kit.xyz/login", "u", now=5)
        (obs,) = streaming.poll(now=10)
        assert not obs.is_fwb and obs.fwb_name is None

    def test_backwards_poll_rejected(self, web, rng):
        _t, _f, streaming = _stream_setup(web, rng)
        streaming.poll(now=100)
        with pytest.raises(StreamError):
            streaming.poll(now=50)


class TestReporting:
    def test_report_reaches_abuse_desk(self, web, phishing_generator, rng):
        twitter = TwitterPlatform(rng)
        desk = AbuseDesk(web.fwb_providers["weebly"], web, rng)
        reporting = ReportingModule({"weebly": desk})
        site = phishing_generator.create_site(web.fwb_providers["weebly"], 0, rng)
        post = twitter.publish_url(site.root_url, "attacker", 5, phishing=True)

        from repro.core.streaming import StreamObservation

        obs = StreamObservation(
            url=site.root_url, post=post, platform="twitter",
            observed_at=10, fwb_name="weebly",
        )
        report = reporting.report(obs, now=10)
        assert report.fwb_outcome is not None
        assert str(site.root_url) in desk.tickets
        assert len(reporting.reports) == 1

    def test_response_rates_aggregation(self, web, phishing_generator, rng):
        twitter = TwitterPlatform(rng)
        desks = {
            "weebly": AbuseDesk(web.fwb_providers["weebly"], web, rng),
            "wordpress": AbuseDesk(web.fwb_providers["wordpress"], web, rng),
        }
        reporting = ReportingModule(desks)
        from repro.core.streaming import StreamObservation

        for fwb in ("weebly", "wordpress"):
            for _ in range(10):
                site = phishing_generator.create_site(web.fwb_providers[fwb], 0, rng)
                post = twitter.publish_url(site.root_url, "a", 0, phishing=True)
                obs = StreamObservation(site.root_url, post, "twitter", 0, fwb)
                reporting.report(obs, now=0)
        rates = reporting.response_rates_by_fwb()
        assert rates["wordpress"]["no_response"] == 1.0
        assert rates["weebly"]["no_response"] < 1.0
