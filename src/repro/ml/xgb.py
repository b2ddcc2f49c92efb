"""XGBoost-style boosting: second-order gradients with L2 regularization.

Differences from classic GBDT that this implementation reproduces:

* split gain uses both gradient and hessian statistics,
  ``gain = 1/2 [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ``;
* leaf values are the regularized Newton step ``−G/(H+λ)``;
* ``gamma`` prunes splits whose gain does not clear the threshold;
* column subsampling per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import TrainingError
from .boosting import BoostedTrees
from .flat import FlatForest, sigmoid


@dataclass
class _XGBNode:
    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_XGBNode"] = None
    right: Optional["_XGBNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _XGBTree:
    """One regularized tree grown on (gradient, hessian) statistics."""

    def __init__(
        self,
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        gamma: float,
        colsample: float,
        rng: np.random.Generator,
    ) -> None:
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.colsample = colsample
        self.rng = rng
        self.root: Optional[_XGBNode] = None

    def fit(self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> None:
        n_features = X.shape[1]
        n_cols = max(1, int(round(self.colsample * n_features)))
        columns = (
            np.arange(n_features)
            if n_cols >= n_features
            else self.rng.choice(n_features, size=n_cols, replace=False)
        )
        self.root = self._grow(X, grad, hess, depth=0, columns=columns)

    def _leaf_value(self, grad_sum: float, hess_sum: float) -> float:
        return -grad_sum / (hess_sum + self.reg_lambda)

    def _grow(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        depth: int,
        columns: np.ndarray,
    ) -> _XGBNode:
        g_total = grad.sum()
        h_total = hess.sum()
        node = _XGBNode(value=self._leaf_value(g_total, h_total))
        if depth >= self.max_depth or X.shape[0] < 2:
            return node

        parent_score = g_total ** 2 / (h_total + self.reg_lambda)
        best_gain = self.gamma
        best = None
        for feature in columns:
            order = np.argsort(X[:, feature], kind="stable")
            sorted_col = X[order, feature]
            g = np.cumsum(grad[order])[:-1]
            h = np.cumsum(hess[order])[:-1]
            valid = sorted_col[:-1] < sorted_col[1:]
            valid &= h >= self.min_child_weight
            valid &= (h_total - h) >= self.min_child_weight
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = 0.5 * (
                    g ** 2 / (h + self.reg_lambda)
                    + (g_total - g) ** 2 / (h_total - h + self.reg_lambda)
                    - parent_score
                )
            gain = np.where(valid, gain, -np.inf)
            idx = int(np.argmax(gain))
            if gain[idx] > best_gain:
                best_gain = float(gain[idx])
                threshold = (sorted_col[idx] + sorted_col[idx + 1]) / 2.0
                best = (int(feature), float(threshold))
        if best is None:
            return node
        feature, threshold = best
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], grad[mask], hess[mask], depth + 1, columns)
        node.right = self._grow(X[~mask], grad[~mask], hess[~mask], depth + 1, columns)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=np.float64)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, indices = stack.pop()
            if node is None or indices.size == 0:
                continue
            if node.is_leaf:
                out[indices] = node.value
                continue
            mask = X[indices, node.feature] <= node.threshold
            stack.append((node.left, indices[mask]))
            stack.append((node.right, indices[~mask]))
        return out


class XGBoostClassifier(BoostedTrees):
    """Binary classifier with XGBoost-style regularized boosting."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        if not 0.0 < learning_rate <= 1.0:
            raise TrainingError("learning_rate must lie in (0, 1]")
        if not 0.0 < subsample <= 1.0 or not 0.0 < colsample_bytree <= 1.0:
            raise TrainingError("subsample/colsample_bytree must lie in (0, 1]")
        if reg_lambda < 0 or gamma < 0:
            raise TrainingError("reg_lambda and gamma cannot be negative")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.random_state = random_state
        self._trees: List[_XGBTree] = []
        self._base_score = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "XGBoostClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape[0] != X.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if not np.isin(np.unique(y), (0.0, 1.0)).all():
            raise TrainingError("XGBoostClassifier expects binary 0/1 labels")
        rng = np.random.default_rng(self.random_state)

        positive = min(max(float(y.mean()), 1e-6), 1 - 1e-6)
        self._base_score = float(np.log(positive / (1.0 - positive)))
        raw = np.full(y.shape[0], self._base_score)
        self._trees = []
        self._flat = None
        n = y.shape[0]
        sample_size = max(1, int(round(self.subsample * n)))

        for _ in range(self.n_estimators):
            probabilities = sigmoid(raw)
            grad = probabilities - y
            hess = probabilities * (1.0 - probabilities)
            if self.subsample < 1.0:
                indices = rng.choice(n, size=sample_size, replace=False)
            else:
                indices = np.arange(n)
            tree = _XGBTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
                colsample=self.colsample_bytree,
                rng=rng,
            )
            tree.fit(X[indices], grad[indices], hess[indices])
            raw = raw + self.learning_rate * tree.predict(X)
            self._trees.append(tree)
        self._flat = FlatForest.from_trees(
            [tree.root for tree in self._trees], n_features=X.shape[1]
        )
        return self
