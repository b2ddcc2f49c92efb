"""Shared fixtures.

Expensive artefacts (populated worlds, ground-truth corpora, campaign
results) are session-scoped so the suite stays fast while many tests can
assert against realistic data.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.classifier import FreePhishClassifier
from repro.ml import RandomForestClassifier
from repro.sim import CampaignWorld, build_ground_truth
from repro.simnet import Browser, Web
from repro.sitegen import (
    LegitimateSiteGenerator,
    PhishingKitGenerator,
    PhishingSiteGenerator,
)
from repro.webdoc import parse_html


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture()
def web() -> Web:
    return Web()


@pytest.fixture()
def browser(web: Web) -> Browser:
    return Browser(web)


@pytest.fixture()
def phishing_generator() -> PhishingSiteGenerator:
    return PhishingSiteGenerator()


@pytest.fixture()
def benign_generator() -> LegitimateSiteGenerator:
    return LegitimateSiteGenerator()


@pytest.fixture()
def kit_generator() -> PhishingKitGenerator:
    return PhishingKitGenerator()


@pytest.fixture(scope="session")
def ground_truth():
    """A small but realistic featurized ground-truth corpus."""
    return build_ground_truth(n_per_class=80, seed=3)


@pytest.fixture(scope="session")
def trained_classifier(ground_truth):
    """A FreePhish classifier fitted on the shared ground-truth corpus.

    Read-only across the suite; services and batchers built on top each
    own their cache/batcher state.
    """
    classifier = FreePhishClassifier(
        model=RandomForestClassifier(n_estimators=20, random_state=0)
    )
    classifier.fit_pages(ground_truth.pages, ground_truth.labels)
    return classifier


@pytest.fixture(scope="session")
def campaign_result():
    """A short end-to-end measurement campaign (shared across tests)."""
    config = SimulationConfig(seed=9, duration_days=2, target_fwb_phishing=120)
    world = CampaignWorld(config, train_samples_per_class=80)
    return world.run()


@pytest.fixture(scope="session")
def campaign_world_and_result():
    config = SimulationConfig(seed=17, duration_days=1, target_fwb_phishing=60)
    world = CampaignWorld(config, train_samples_per_class=60)
    result = world.run()
    return world, result


@pytest.fixture()
def parse_calls(monkeypatch):
    """Count ``parse_html`` calls made through any loaded ``repro`` module."""
    calls = []

    def counting(markup):
        calls.append(markup)
        return parse_html(markup)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "parse_html", None) is parse_html:
            monkeypatch.setattr(module, "parse_html", counting)
    return calls
