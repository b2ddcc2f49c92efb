"""CART decision trees (regression and classification), pure numpy.

:class:`_Node` is the tree form of every ensemble in this package, and
:func:`predict_tree` is the one per-row reference walk over it. The three
growth algorithms differ — CART SSE here, exact greedy second-order in
:mod:`repro.ml.xgb`, histogram leaf-wise in :mod:`repro.ml.lgbm` — but all
produce ``_Node`` trees.

The regression tree is the base learner of GBDT and, through the
classifier, of the random forest. Splits are exact greedy — each feature
column is sorted once per node and the SSE-minimizing threshold found via
cumulative sums — which is fast enough for the study's workloads
(thousands of samples, ~20 features).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import NotFittedError, TrainingError


@dataclass
class _Node:
    """One tree node; leaves carry ``value``, internal nodes route rows
    with ``x[feature] <= threshold`` to ``left``, the rest to ``right``."""

    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def predict_tree(root: _Node, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of ``X``: the per-row reference walk.

    Routes index partitions down the tree iteratively (no per-row
    recursion). A NaN feature value compares false and routes right.
    :class:`~repro.ml.flat.FlatForest` is bit-identical to this walk.
    """
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, indices = stack.pop()
        if indices.size == 0:
            continue
        if node.is_leaf:
            out[indices] = node.value
            continue
        mask = X[indices, node.feature] <= node.threshold
        stack.append((node.left, indices[mask]))
        stack.append((node.right, indices[~mask]))
    return out


def _validate_xy(X: np.ndarray, y: np.ndarray) -> None:
    if X.ndim != 2:
        raise TrainingError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise TrainingError(f"y shape {y.shape} incompatible with X shape {X.shape}")
    if X.shape[0] == 0:
        raise TrainingError("cannot fit on an empty dataset")


def _best_split_sse(
    X: np.ndarray,
    residual: np.ndarray,
    feature_indices: np.ndarray,
):
    """Best (feature, threshold, gain) minimizing child SSE.

    Returns ``None`` when no valid split improves on the parent.
    """
    n = residual.shape[0]
    total_sum = residual.sum()
    total_sq = (residual ** 2).sum()
    parent_sse = total_sq - total_sum ** 2 / n
    best = None
    best_gain = 1e-12
    for feature in feature_indices:
        column = X[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_col = column[order]
        sorted_res = residual[order]
        csum = np.cumsum(sorted_res)
        csq = np.cumsum(sorted_res ** 2)
        # Candidate split positions: between distinct consecutive values.
        left_counts = np.arange(1, n)
        valid = sorted_col[:-1] < sorted_col[1:]
        if not valid.any():
            continue
        left_sum = csum[:-1]
        left_sq = csq[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        right_counts = n - left_counts
        with np.errstate(invalid="ignore", divide="ignore"):
            sse = (
                left_sq - left_sum ** 2 / left_counts
                + right_sq - right_sum ** 2 / right_counts
            )
        sse = np.where(valid, sse, np.inf)
        idx = int(np.argmin(sse))
        gain = parent_sse - sse[idx]
        if gain > best_gain:
            best_gain = gain
            threshold = (sorted_col[idx] + sorted_col[idx + 1]) / 2.0
            best = (int(feature), float(threshold), float(gain))
    return best


class DecisionTreeRegressor:
    """Least-squares CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root is depth 0).
    max_features:
        If set, the number of features considered per split (sampled with
        the tree's RNG) — used by random forests.
    """

    def __init__(
        self,
        max_depth: int = 4,
        max_features: Optional[int] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if max_depth < 0:
            raise TrainingError("max_depth cannot be negative")
        self.max_depth = max_depth
        self.max_features = max_features
        self.random_state = random_state
        self._root: Optional[_Node] = None
        self._n_features = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        _validate_xy(X, y)
        self._n_features = X.shape[1]
        # Only feature sampling draws from the generator; GBDT's trees
        # sample no features and so seed none.
        rng = (
            np.random.default_rng(self.random_state)
            if self.max_features is not None
            else None
        )
        self._root = self._grow(X, y, depth=0, rng=rng)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int,
              rng: Optional[np.random.Generator]) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or np.all(y == y[0]):
            return node
        n_features = X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            feature_indices = rng.choice(
                n_features, size=self.max_features, replace=False
            )
        else:
            feature_indices = np.arange(n_features)
        split = _best_split_sse(X, y, feature_indices)
        if split is None:
            return node
        feature, threshold, _gain = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise TrainingError(
                f"expected {self._n_features} features, got shape {X.shape}"
            )
        return predict_tree(self._root, X)


class DecisionTreeClassifier:
    """Binary CART classifier built on the regression tree.

    Fitting a least-squares tree to 0/1 labels yields leaf values equal to
    the positive-class fraction — a probability estimate (Gini-equivalent
    splits for binary targets).
    """

    def __init__(
        self,
        max_depth: int = 6,
        max_features: Optional[int] = None,
        random_state: Optional[int] = None,
    ) -> None:
        self._tree = DecisionTreeRegressor(
            max_depth=max_depth,
            max_features=max_features,
            random_state=random_state,
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        y = np.asarray(y)
        unique = np.unique(y)
        if not np.isin(unique, (0, 1)).all():
            raise TrainingError("DecisionTreeClassifier expects binary 0/1 labels")
        self._tree.fit(X, y.astype(np.float64))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = np.clip(self._tree.predict(X), 0.0, 1.0)
        return np.column_stack([1.0 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self._tree.predict(X) >= 0.5).astype(np.int64)
