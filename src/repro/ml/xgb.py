"""XGBoost-style boosting: second-order gradients with L2 regularization.

Differences from classic GBDT that this implementation reproduces:

* split gain uses both gradient and hessian statistics,
  ``gain = 1/2 [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ``
  (:func:`~repro.ml.boosting.second_order_gain`);
* leaf values are the regularized Newton step ``−G/(H+λ)``
  (:func:`~repro.ml.boosting.newton_value`);
* ``GAMMA`` prunes splits whose gain does not clear the threshold.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import TrainingError
from .boosting import (
    LEARNING_RATE,
    BoostedTrees,
    log_odds_prior,
    newton_value,
    second_order_gain,
)
from .flat import FlatForest, sigmoid
from .tree import _Node, predict_tree

#: Depth of every tree (root is depth 0).
MAX_DEPTH = 4
#: Minimum hessian sum on each side of a split.
MIN_CHILD_WEIGHT = 1.0
#: Minimum split gain γ.
GAMMA = 0.0


def _grow(X: np.ndarray, grad: np.ndarray, hess: np.ndarray, depth: int = 0) -> _Node:
    """Exact greedy growth of one regularized tree on (gradient, hessian)."""
    g_total = grad.sum()
    h_total = hess.sum()
    node = _Node(value=newton_value(g_total, h_total))
    if depth >= MAX_DEPTH or X.shape[0] < 2:
        return node

    best_gain = GAMMA
    best = None
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        sorted_col = X[order, feature]
        g = np.cumsum(grad[order])[:-1]
        h = np.cumsum(hess[order])[:-1]
        valid = sorted_col[:-1] < sorted_col[1:]
        valid &= h >= MIN_CHILD_WEIGHT
        valid &= (h_total - h) >= MIN_CHILD_WEIGHT
        if not valid.any():
            continue
        gain = np.where(valid, second_order_gain(g, h, g_total, h_total), -np.inf)
        idx = int(np.argmax(gain))
        if gain[idx] > best_gain:
            best_gain = float(gain[idx])
            threshold = (sorted_col[idx] + sorted_col[idx + 1]) / 2.0
            best = (feature, float(threshold))
    if best is None:
        return node
    node.feature, node.threshold = best
    mask = X[:, node.feature] <= node.threshold
    node.left = _grow(X[mask], grad[mask], hess[mask], depth + 1)
    node.right = _grow(X[~mask], grad[~mask], hess[~mask], depth + 1)
    return node


class XGBoostClassifier(BoostedTrees):
    """Binary classifier with XGBoost-style regularized boosting."""

    def __init__(self, n_estimators: int = 100) -> None:
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self._trees: List[_Node] = []
        self._base_score = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "XGBoostClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape[0] != X.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if not np.isin(np.unique(y), (0.0, 1.0)).all():
            raise TrainingError("XGBoostClassifier expects binary 0/1 labels")
        self._base_score = log_odds_prior(y)
        raw = np.full(y.shape[0], self._base_score)
        self._trees = []
        self._flat = None
        for _ in range(self.n_estimators):
            probabilities = sigmoid(raw)
            root = _grow(X, probabilities - y, probabilities * (1.0 - probabilities))
            raw = raw + LEARNING_RATE * predict_tree(root, X)
            self._trees.append(root)
        self._flat = FlatForest.from_trees(self._trees, n_features=X.shape[1])
        return self
