"""XGBoost-style internals: regularized gain, gamma pruning, child weight."""

import numpy as np
import pytest

from repro.ml import xgb
from repro.ml.boosting import second_order_gain


def _split_problem(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = (X[:, 0] > 0).astype(float)
    p = np.full(n, 0.5)
    grad = p - y
    hess = p * (1 - p)
    return X, grad, hess


class TestSecondOrderGain:
    def test_matches_formula(self):
        # G_L = -2, H_L = 1, G = 1, H = 3, lambda = 1:
        # 1/2 [4/2 + 9/3 - 1/4] = 2.375
        gain = second_order_gain(np.array([-2.0]), np.array([1.0]), 1.0, 3.0)
        assert gain[0] == pytest.approx(2.375)


class TestXGBTree:
    def test_finds_true_split_feature(self, monkeypatch):
        X, grad, hess = _split_problem()
        monkeypatch.setattr(xgb, "MAX_DEPTH", 1)
        root = xgb._grow(X, grad, hess)
        assert not root.is_leaf
        assert root.feature == 0
        assert abs(root.threshold) < 0.15

    def test_gamma_prunes_weak_splits(self, monkeypatch):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(200, 2))
        grad = rng.normal(scale=0.01, size=200)  # almost no signal
        hess = np.full(200, 0.25)
        monkeypatch.setattr(xgb, "MAX_DEPTH", 3)
        monkeypatch.setattr(xgb, "GAMMA", 10.0)
        assert xgb._grow(X, grad, hess).is_leaf  # nothing clears the gamma bar

    def test_leaf_value_is_newton_step(self, monkeypatch):
        X = np.zeros((10, 1))
        grad = np.full(10, 2.0)
        hess = np.full(10, 1.0)
        monkeypatch.setattr(xgb, "MAX_DEPTH", 0)
        # -G / (H + lambda) = -20 / (10 + 1)
        assert xgb._grow(X, grad, hess).value == pytest.approx(-20 / 11)

    def test_min_child_weight_blocks_tiny_children(self, monkeypatch):
        X = np.array([[0.0]] * 99 + [[10.0]])
        y = np.array([0.0] * 99 + [1.0])
        p = np.full(100, 0.5)
        grad, hess = p - y, p * (1 - p)
        monkeypatch.setattr(xgb, "MAX_DEPTH", 2)
        monkeypatch.setattr(xgb, "MIN_CHILD_WEIGHT", 5.0)
        # The lone outlier row carries hessian 0.25 < 5.0: unsplittable.
        assert xgb._grow(X, grad, hess).is_leaf

