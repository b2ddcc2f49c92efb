"""Shared benchmark fixtures.

The benchmark campaign is larger than the unit-test campaign (a scaled-down
replica of the paper's six-month run) and is built once per session; every
table/figure bench reads from it. Rendered tables are printed so a
``pytest benchmarks/ --benchmark-only -s`` run reads like the paper's
evaluation section.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.obs import Instrumentation
from repro.sim import CampaignWorld, build_ground_truth

#: Scale factor note: the paper observed 31,405 FWB URLs over ~180 days.
#: The bench campaign keeps the same arrival shape at 1/40 scale.
BENCH_SEED = 20231024
BENCH_DAYS = 8
BENCH_TARGET = 1400

@pytest.fixture(scope="session")
def bench_campaign():
    config = SimulationConfig(
        seed=BENCH_SEED, duration_days=BENCH_DAYS, target_fwb_phishing=BENCH_TARGET
    )
    world = CampaignWorld(
        config,
        train_samples_per_class=200,
        instrumentation=Instrumentation(),
    )
    result = world.run()
    return world, result


@pytest.fixture(scope="session")
def bench_ground_truth():
    return build_ground_truth(n_per_class=320, seed=7)


def emit(title: str, body: str) -> None:
    """Print a result block (visible with ``-s`` / in captured output)."""
    bar = "=" * len(title)
    print(f"\n{title}\n{bar}\n{body}\n")
