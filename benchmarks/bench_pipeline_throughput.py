"""Framework throughput micro-benchmarks.

The paper's model-selection argument (§4.2) is about *runtime efficiency*
at stream scale: "a slower classification model can exponentially hamper
the framework's overall performance." These benches measure the per-URL
cost of the production pipeline stages so regressions in the hot path are
caught: snapshot+feature extraction, classifier inference, and the full
streaming step.
"""

import numpy as np
import pytest
from conftest import emit

from repro.config import SimulationConfig
from repro.core.preprocess import Preprocessor
from repro.obs import NULL_INSTRUMENTATION
from repro.sim import CampaignWorld


@pytest.fixture(scope="module")
def pipeline_world(bench_campaign):
    world, _result = bench_campaign
    rng = np.random.default_rng(123)
    provider = world.web.fwb_providers["weebly"]
    site = world.attacker.phishing_generator.create_site(
        provider, now=10 ** 7, rng=rng
    )
    return world, site


def test_snapshot_and_feature_extraction_rate(benchmark, pipeline_world):
    world, site = pipeline_world
    preprocessor = Preprocessor(world.web)

    page = benchmark(preprocessor.process, site.root_url, 10 ** 7 + 5)
    assert page is not None
    emit(
        "Throughput — preprocessing",
        f"snapshot + 20-feature extraction: "
        f"{1.0 / benchmark.stats['mean']:.0f} URLs/s",
    )


def test_classifier_inference_rate(benchmark, pipeline_world):
    world, site = pipeline_world
    preprocessor = Preprocessor(world.web)
    page = preprocessor.process(site.root_url, 10 ** 7 + 5)

    prediction = benchmark(world.classifier.classify_page, page)
    assert prediction.label in (0, 1)
    emit(
        "Throughput — classification",
        f"classifier inference: {1.0 / benchmark.stats['mean']:.0f} URLs/s",
    )


def test_campaign_run_null_instrumentation(benchmark):
    """End-to-end campaign with observability opted out entirely.

    The null Instrumentation collapses every metric/event hook to a
    shared no-op singleton; this bench pins the uninstrumented pipeline's
    runtime so instrumentation overhead regressions are caught.
    """
    config = SimulationConfig(seed=11, duration_days=1, target_fwb_phishing=120)

    def setup():
        world = CampaignWorld(
            config,
            train_samples_per_class=80,
            instrumentation=NULL_INSTRUMENTATION,
        )
        world.train_classifier()
        return (world,), {}

    def run(world):
        return world.run()

    result = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert result.timelines
    emit(
        "Throughput — null-instrumentation campaign",
        f"1-day campaign resolved {len(result.timelines)} timelines in "
        f"{benchmark.stats['mean']:.2f}s (instrumentation opted out)",
    )


def test_stream_poll_cost(benchmark, bench_campaign):
    """An idle 10-minute poll over the whole campaign's post history."""
    world, _result = bench_campaign

    def poll():
        # Reset the cursor so each round scans the same window.
        world.streaming._cursor = 0
        world.streaming._seen_urls.clear()
        return world.streaming.poll(now=world.config.duration_minutes)

    observations = benchmark.pedantic(poll, rounds=3, iterations=1)
    emit(
        "Throughput — streaming poll",
        f"full-history poll returned {len(observations)} observations",
    )
    assert observations
