"""LightGBM-style boosting: histogram binning + leaf-wise tree growth.

The two signature LightGBM techniques reproduced here:

* **Histogram binning** — each feature is quantized once into at most
  ``MAX_BINS`` buckets; split search then scans bin boundaries instead of
  sorted raw values, making each split O(bins) after an O(n) histogram
  build.
* **Leaf-wise (best-first) growth** — instead of expanding level by level,
  the tree repeatedly splits the leaf with the highest gain until
  ``NUM_LEAVES`` is reached, yielding deeper, more asymmetric trees for the
  same leaf budget.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

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

#: Leaf budget of every tree.
NUM_LEAVES = 15
#: Histogram buckets per feature.
MAX_BINS = 64
#: Minimum training rows on each side of a split.
MIN_DATA_IN_LEAF = 5
#: Minimum split gain.
MIN_GAIN = 0.0

#: A candidate split: (gain, feature, bin, left rows, right rows).
_Split = Tuple[float, int, int, np.ndarray, np.ndarray]


class _Binner:
    """Quantile-based feature binning shared by all trees of the ensemble."""

    def __init__(self, max_bins: int) -> None:
        self.max_bins = max_bins
        self.bin_edges: List[np.ndarray] = []

    def fit(self, X: np.ndarray) -> "_Binner":
        self.bin_edges = []
        for j in range(X.shape[1]):
            column = X[:, j]
            quantiles = np.quantile(
                column, np.linspace(0, 1, self.max_bins + 1)[1:-1]
            )
            edges = np.unique(quantiles)
            self.bin_edges.append(edges)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        binned = np.empty(X.shape, dtype=np.int32)
        for j, edges in enumerate(self.bin_edges):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return binned


def _best_split(
    binned: np.ndarray, grad: np.ndarray, hess: np.ndarray, indices: np.ndarray
) -> Optional[_Split]:
    """Best (gain, feature, bin, left_idx, right_idx) for one leaf."""
    g_total = grad[indices].sum()
    h_total = hess[indices].sum()
    best = None
    best_gain = MIN_GAIN
    sub = binned[indices]
    for feature in range(binned.shape[1]):
        column = sub[:, feature]
        n_bins = int(column.max()) + 1 if column.size else 1
        if n_bins < 2:
            continue
        g_hist = np.bincount(column, weights=grad[indices], minlength=n_bins)
        h_hist = np.bincount(column, weights=hess[indices], minlength=n_bins)
        c_hist = np.bincount(column, minlength=n_bins)
        g_left = np.cumsum(g_hist)[:-1]
        h_left = np.cumsum(h_hist)[:-1]
        c_left = np.cumsum(c_hist)[:-1]
        valid = (c_left >= MIN_DATA_IN_LEAF) & (
            (indices.size - c_left) >= MIN_DATA_IN_LEAF
        )
        if not valid.any():
            continue
        gain = np.where(
            valid, second_order_gain(g_left, h_left, g_total, h_total), -np.inf
        )
        idx = int(np.argmax(gain))
        if gain[idx] > best_gain:
            mask = column <= idx
            best_gain = float(gain[idx])
            best = (best_gain, feature, idx, indices[mask], indices[~mask])
    return best


def _grow(binned: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> _Node:
    """Leaf-wise growth of one tree over pre-binned features.

    Internal nodes split on ``binned[:, feature] <= threshold``, the
    threshold being a bin index stored as a float (exact in float64). The
    training rows of each leaf live only in its heap entry.
    """
    root = _Node(value=newton_value(grad.sum(), hess.sum()))
    # Max-heap of candidate splits, keyed by -gain; tie-break by counter.
    heap: List[Tuple[float, int, _Node, _Split]] = []
    counter = 0

    def push(node: _Node, indices: np.ndarray) -> None:
        nonlocal counter
        split = _best_split(binned, grad, hess, indices)
        if split is not None:
            heapq.heappush(heap, (-split[0], counter, node, split))
            counter += 1

    push(root, np.arange(binned.shape[0]))
    n_leaves = 1
    while heap and n_leaves < NUM_LEAVES:
        _neg_gain, _tie, node, split = heapq.heappop(heap)
        _gain, node.feature, bin_idx, left_idx, right_idx = split
        node.threshold = float(bin_idx)
        node.left = _Node(value=newton_value(grad[left_idx].sum(), hess[left_idx].sum()))
        node.right = _Node(
            value=newton_value(grad[right_idx].sum(), hess[right_idx].sum())
        )
        n_leaves += 1
        push(node.left, left_idx)
        push(node.right, right_idx)
    return root


class LightGBMClassifier(BoostedTrees):
    """Binary classifier with histogram-binned, leaf-wise boosting."""

    def __init__(self, n_estimators: int = 100) -> None:
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self._binner: Optional[_Binner] = None
        self._trees: List[_Node] = []
        self._base_score = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LightGBMClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape[0] != X.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if not np.isin(np.unique(y), (0.0, 1.0)).all():
            raise TrainingError("LightGBMClassifier expects binary 0/1 labels")

        self._binner = _Binner(MAX_BINS).fit(X)
        binned = self._binner.transform(X)
        self._base_score = log_odds_prior(y)
        raw = np.full(y.shape[0], self._base_score)
        self._trees = []
        self._flat = None
        for _ in range(self.n_estimators):
            probabilities = sigmoid(raw)
            root = _grow(binned, probabilities - y, probabilities * (1.0 - probabilities))
            raw = raw + LEARNING_RATE * predict_tree(root, binned)
            self._trees.append(root)
        self._flat = FlatForest.from_trees(self._trees, n_features=X.shape[1])
        return self

    def _tree_inputs(self, X: np.ndarray) -> np.ndarray:
        """Trees split on bin indices, so their inputs are binned."""
        inputs = super()._tree_inputs(X)  # checked before the binner reads it
        return self._binner.transform(inputs)
