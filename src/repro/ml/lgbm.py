"""LightGBM-style boosting: histogram binning + leaf-wise tree growth.

The two signature LightGBM techniques reproduced here:

* **Histogram binning** — each feature is quantized once into at most
  ``max_bins`` buckets; split search then scans bin boundaries instead of
  sorted raw values, making each split O(bins) after an O(n) histogram
  build.
* **Leaf-wise (best-first) growth** — instead of expanding level by level,
  the tree repeatedly splits the leaf with the highest gain until
  ``num_leaves`` is reached, yielding deeper, more asymmetric trees for the
  same leaf budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import TrainingError
from .boosting import BoostedTrees
from .flat import FlatForest, sigmoid


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

    def threshold(self, feature: int, bin_index: int) -> float:
        """Raw-space threshold equivalent to ``bin <= bin_index``."""
        edges = self.bin_edges[feature]
        if len(edges) == 0:
            return np.inf
        bin_index = min(bin_index, len(edges) - 1)
        return float(edges[bin_index])


@dataclass
class _Leaf:
    indices: np.ndarray
    value: float
    # Set when the leaf is split:
    feature: int = -1
    threshold_bin: int = -1
    left: Optional["_Leaf"] = None
    right: Optional["_Leaf"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _LGBMTree:
    """One leaf-wise-grown tree over pre-binned features."""

    def __init__(
        self,
        num_leaves: int,
        min_data_in_leaf: int,
        reg_lambda: float,
        min_gain: float,
    ) -> None:
        self.num_leaves = num_leaves
        self.min_data_in_leaf = min_data_in_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        self.root: Optional[_Leaf] = None

    def _leaf_value(self, grad_sum: float, hess_sum: float) -> float:
        return -grad_sum / (hess_sum + self.reg_lambda)

    def _best_split(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        indices: np.ndarray,
    ) -> Optional[Tuple[float, int, int, np.ndarray, np.ndarray]]:
        """Best (gain, feature, bin, left_idx, right_idx) for one leaf."""
        g_total = grad[indices].sum()
        h_total = hess[indices].sum()
        parent_score = g_total ** 2 / (h_total + self.reg_lambda)
        best = None
        best_gain = self.min_gain
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
            valid = (c_left >= self.min_data_in_leaf) & (
                (indices.size - c_left) >= self.min_data_in_leaf
            )
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = 0.5 * (
                    g_left ** 2 / (h_left + self.reg_lambda)
                    + (g_total - g_left) ** 2 / (h_total - h_left + self.reg_lambda)
                    - parent_score
                )
            gain = np.where(valid, gain, -np.inf)
            idx = int(np.argmax(gain))
            if gain[idx] > best_gain:
                mask = column <= idx
                best_gain = float(gain[idx])
                best = (best_gain, feature, idx, indices[mask], indices[~mask])
        return best

    def fit(self, binned: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> None:
        all_indices = np.arange(binned.shape[0])
        self.root = _Leaf(
            indices=all_indices,
            value=self._leaf_value(grad.sum(), hess.sum()),
        )
        # Max-heap of candidate splits, keyed by -gain; tie-break by counter.
        heap: List[Tuple[float, int, _Leaf, tuple]] = []
        counter = 0

        def push(leaf: _Leaf) -> None:
            nonlocal counter
            split = self._best_split(binned, grad, hess, leaf.indices)
            if split is not None:
                heapq.heappush(heap, (-split[0], counter, leaf, split))
                counter += 1

        push(self.root)
        n_leaves = 1
        while heap and n_leaves < self.num_leaves:
            _neg_gain, _tie, leaf, split = heapq.heappop(heap)
            _gain, feature, bin_idx, left_idx, right_idx = split
            leaf.feature = feature
            leaf.threshold_bin = bin_idx
            leaf.left = _Leaf(
                indices=left_idx,
                value=self._leaf_value(grad[left_idx].sum(), hess[left_idx].sum()),
            )
            leaf.right = _Leaf(
                indices=right_idx,
                value=self._leaf_value(grad[right_idx].sum(), hess[right_idx].sum()),
            )
            n_leaves += 1
            push(leaf.left)
            push(leaf.right)
        # Free training index arrays; prediction does not need them.
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.indices = np.empty(0, dtype=np.int64)
            if not node.is_leaf:
                stack.extend((node.left, node.right))

    def predict(self, binned: np.ndarray) -> np.ndarray:
        out = np.empty(binned.shape[0], dtype=np.float64)
        stack = [(self.root, np.arange(binned.shape[0]))]
        while stack:
            node, indices = stack.pop()
            if node is None or indices.size == 0:
                continue
            if node.is_leaf:
                out[indices] = node.value
                continue
            mask = binned[indices, node.feature] <= node.threshold_bin
            stack.append((node.left, indices[mask]))
            stack.append((node.right, indices[~mask]))
        return out


class LightGBMClassifier(BoostedTrees):
    """Binary classifier with histogram-binned, leaf-wise boosting."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        num_leaves: int = 15,
        max_bins: int = 64,
        min_data_in_leaf: int = 5,
        reg_lambda: float = 1.0,
        min_gain: float = 0.0,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        if num_leaves < 2:
            raise TrainingError("num_leaves must be at least 2")
        if max_bins < 2:
            raise TrainingError("max_bins must be at least 2")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.num_leaves = num_leaves
        self.max_bins = max_bins
        self.min_data_in_leaf = min_data_in_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        self.random_state = random_state
        self._binner: Optional[_Binner] = None
        self._trees: List[_LGBMTree] = []
        self._base_score = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LightGBMClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape[0] != X.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if not np.isin(np.unique(y), (0.0, 1.0)).all():
            raise TrainingError("LightGBMClassifier expects binary 0/1 labels")

        self._binner = _Binner(self.max_bins).fit(X)
        binned = self._binner.transform(X)
        positive = min(max(float(y.mean()), 1e-6), 1 - 1e-6)
        self._base_score = float(np.log(positive / (1.0 - positive)))
        raw = np.full(y.shape[0], self._base_score)
        self._trees = []
        self._flat = None
        for _ in range(self.n_estimators):
            probabilities = sigmoid(raw)
            grad = probabilities - y
            hess = probabilities * (1.0 - probabilities)
            tree = _LGBMTree(
                num_leaves=self.num_leaves,
                min_data_in_leaf=self.min_data_in_leaf,
                reg_lambda=self.reg_lambda,
                min_gain=self.min_gain,
            )
            tree.fit(binned, grad, hess)
            raw = raw + self.learning_rate * tree.predict(binned)
            self._trees.append(tree)
        self._flat = FlatForest.from_trees(
            [tree.root for tree in self._trees], n_features=X.shape[1]
        )
        return self

    def _tree_inputs(self, X: np.ndarray) -> np.ndarray:
        """Trees split on bin indices; thresholds are the integer
        ``threshold_bin`` values, exact in float64."""
        inputs = super()._tree_inputs(X)  # checked before the binner reads it
        return self._binner.transform(inputs)
