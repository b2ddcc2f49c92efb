"""Classifier hot-path bench: flattened batch inference vs per-row walk.

The performance pass compiled every tree ensemble into a
:class:`~repro.ml.flat.FlatForest` (parallel numpy arrays, vectorized
level-order descent) and batched the framework's per-tick classification
into one matrix. This bench pins both claims and writes the measured
timings to ``bench-out/BENCH_classify.json`` (git-ignored, host-specific):

* **speedup** — scoring a 4k-row feature matrix through the flat path must
  be ≥ 5x faster than the per-row reference walk it replaced (one
  ``predict_proba`` call per row, the pre-batching hot path);
* **equivalence** — the two paths must agree **bit-for-bit**
  (``np.array_equal``, not ``allclose``); a flat compiler that drifts by
  one ULP is a wrong compiler, not a fast one.

Run directly (no pytest-benchmark required)::

    PYTHONPATH=src:benchmarks pytest benchmarks/bench_classify_throughput.py -s
"""

import json
import time
from pathlib import Path

import numpy as np
from conftest import emit

from repro.config import SeedBank
from repro.ml import RandomForestClassifier, StackModel
from repro.sim import build_ground_truth

REPO_ROOT = Path(__file__).resolve().parents[1]

BENCH_SCHEMA = "repro.ml/bench_classify.v1"
BENCH_SEED = 20231024
N_ROWS = 4096
MIN_SPEEDUP = 5.0

#: The two production models: the paper's StackModel detector and the
#: light Random Forest the campaign simulations swap in (§4 permits).
MODELS = (
    ("stack", lambda seed: StackModel(n_estimators=30, n_splits=3, random_state=seed)),
    ("rf", lambda seed: RandomForestClassifier(
        n_estimators=40, max_depth=10, random_state=seed
    )),
)


def _query_matrix(X: np.ndarray, seeds: SeedBank) -> np.ndarray:
    """A 4k-row matrix resampled from the ground-truth feature rows."""
    rng = seeds.child("bench.classify.query")
    rows = rng.integers(0, X.shape[0], size=N_ROWS)
    return np.ascontiguousarray(X[rows])


def _time_best_of(clock, fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = clock()
        result = fn()
        best = min(best, clock() - start)
    return best, result


def test_flat_batch_beats_per_row_reference():
    seeds = SeedBank(BENCH_SEED)
    dataset = build_ground_truth(
        n_per_class=160, seed=seeds.child_seed("bench.classify.groundtruth")
    )
    X_train = np.vstack([page.fwb_vector for page in dataset.pages])
    y_train = np.asarray(dataset.labels)
    Q = _query_matrix(X_train, seeds)
    clock = time.perf_counter

    model_sections = {}
    lines = []
    for name, factory in MODELS:
        model = factory(seeds.child_seed(f"bench.classify.{name}"))
        model.fit(X_train, y_train)
        model.predict_proba(Q[:8])  # warm up: compile the flat forests
        model.predict_proba_reference(Q[:8])

        flat_s, flat_proba = _time_best_of(
            clock, lambda m=model: m.predict_proba(Q)
        )
        # The pre-batching hot path: one model call per URL. Timed once —
        # it is the slow side, and one pass is already thousands of calls.
        start = clock()
        rowwise = np.vstack(
            [model.predict_proba_reference(row[None, :]) for row in Q]
        )
        rowwise_s = clock() - start

        identical = np.array_equal(flat_proba, rowwise)
        assert identical, f"{name}: flat batch diverges from per-row reference"
        speedup = rowwise_s / flat_s if flat_s > 0 else float("inf")
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: flat batch only {speedup:.1f}x over per-row reference "
            f"(bar: {MIN_SPEEDUP:.0f}x)"
        )

        model_sections[name] = {
            "n_rows": N_ROWS,
            "flat_batch_seconds": flat_s,
            "flat_rows_per_s": N_ROWS / flat_s,
            "per_row_reference_seconds": rowwise_s,
            "per_row_rows_per_s": N_ROWS / rowwise_s,
            "speedup": speedup,
            "bitwise_identical": identical,
        }
        lines.append(
            f"{name}: {N_ROWS / flat_s:,.0f} rows/s flat vs "
            f"{N_ROWS / rowwise_s:,.0f} rows/s per-row "
            f"({speedup:.1f}x, bitwise identical)"
        )

    payload = {
        "schema": BENCH_SCHEMA,
        "config": {
            "seed": BENCH_SEED,
            "n_rows": N_ROWS,
            "n_train": int(X_train.shape[0]),
            "min_speedup": MIN_SPEEDUP,
        },
        "models": model_sections,
    }
    out = REPO_ROOT / "bench-out" / "BENCH_classify.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    emit(
        "Throughput — flat batched classification",
        "\n".join(lines + [f"wrote {out.relative_to(REPO_ROOT)}"]),
    )
