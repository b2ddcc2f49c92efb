"""Table 2: phishing-detection model comparison.

Paper: accuracy URLNet 0.68 < VisualPhishNet 0.76 < base StackModel 0.88 <
PhishIntention 0.96 ≈ Our Model 0.97; median runtime URLNet < StackModel <
Our Model < VisualPhishNet < PhishIntention. Absolute runtimes differ (the
substrate replaces deep-vision inference), but both orderings must hold.
"""

from conftest import emit

from repro.analysis import build_table2
from repro.analysis.report import render_table2


def _rows(bench_ground_truth):
    ds = bench_ground_truth
    return build_table2(ds.pages, ds.labels, ds.web, n_estimators=30, seed=7)


def test_table2_model_comparison(benchmark, bench_ground_truth):
    rows = benchmark.pedantic(_rows, args=(bench_ground_truth,), rounds=1, iterations=1)
    emit("Table 2 — model comparison on the FWB ground truth", render_table2(rows))

    accuracy = {row.model: row.accuracy for row in rows}
    runtime = {row.model: row.median_runtime_seconds for row in rows}

    # Accuracy ordering (paper's Table 2).
    assert accuracy["URLNet"] < accuracy["VisualPhishNet"]
    assert accuracy["VisualPhishNet"] < accuracy["Base StackModel"]
    assert accuracy["Base StackModel"] < accuracy["Our Model"]
    assert accuracy["PhishIntention"] > 0.9
    assert accuracy["Our Model"] > 0.93

    # Feature augmentation delivers a real gain over the base model.
    # (with a 192-sample test split, one sample is ~0.5 accuracy points;
    # the architecture-controlled version of this claim is asserted more
    # tightly in bench_ablation_features.py)
    assert accuracy["Our Model"] - accuracy["Base StackModel"] >= 0.01

    # Runtime cost profile (paper: URLNet fastest, PhishIntention slowest).
    assert runtime["URLNet"] < runtime["Base StackModel"]
    assert runtime["Base StackModel"] <= runtime["Our Model"] * 1.5
    assert runtime["Our Model"] < runtime["VisualPhishNet"]
    assert runtime["VisualPhishNet"] < runtime["PhishIntention"]
