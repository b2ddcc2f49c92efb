"""Flattened tree-ensemble inference (treelite/sklearn-style).

Every ensemble in this package stores its trees as linked
:class:`~repro.ml.tree._Node` objects, and the reference walk
(:func:`~repro.ml.tree.predict_tree`) routes index partitions through them
in Python — fine for one tree, but a 40-tree forest walks 40 object graphs
per call. The :class:`FlatForest` compiler converts a *fitted* ensemble
into five parallel numpy arrays (feature index, threshold, left child,
right child, leaf value) and evaluates whole batches with **vectorized
level-order descent**: all rows of all trees advance one level per
iteration, so a batch costs ``max_depth`` fused gather/compare/select
passes instead of a Python loop per node.

Equivalence contract
--------------------

The flat path must be **bit-identical** to the per-row reference walk:

* Leaves self-loop (``left == right == self``), so running the descent for
  a fixed ``max_depth`` iterations parks every row on its leaf without
  branching on "is this row done?".
* Comparisons are exactly the reference's ``x <= threshold``; a NaN feature
  value compares false and routes right, as the reference's boolean-mask
  partition does.
* :meth:`FlatForest.accumulate` (boosters) and :meth:`FlatForest.vote`
  (random forests) are the only places that sum tree outputs, and both
  keep the reference's *sequential* order (``raw += lr * tree_t`` for
  t = 0, 1, ...) — never a pairwise ``values.sum(axis=0)``, which would
  change floating-point results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import TrainingError


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic link of the boosters, clipped so ``exp`` cannot overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class FlatForest:
    """A fitted tree ensemble compiled into parallel numpy arrays.

    Attributes
    ----------
    feature, threshold, left, right, value:
        One entry per node across all trees. ``feature`` is ``-1`` for
        leaves; ``left``/``right`` point at the node itself for leaves
        (the self-loop that makes fixed-depth descent exact).
    roots:
        Index of each tree's root node.
    max_depth:
        Deepest tree in the ensemble; the descent iteration count.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        max_depth: int,
        n_features: Optional[int] = None,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots
        self.max_depth = int(max_depth)
        self.n_features = n_features
        # Leaves gather column 0 during descent; the comparison result is
        # irrelevant because both children point back at the leaf.
        self._feature_safe = np.where(feature < 0, 0, feature)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_trees(
        cls, tree_roots: Sequence[object], n_features: Optional[int] = None
    ) -> "FlatForest":
        """Compile a list of fitted tree root nodes into one flat forest."""
        if not tree_roots:
            raise TrainingError("cannot flatten an empty ensemble")
        features: List[int] = []
        thresholds: List[float] = []
        lefts: List[int] = []
        rights: List[int] = []
        values: List[float] = []
        roots: List[int] = []
        max_depth = 0

        for root in tree_roots:
            if root is None:
                raise TrainingError("cannot flatten an unfitted tree")
            roots.append(len(features))
            # Iterative preorder walk; children get their indices assigned
            # when first reserved, so left/right are patched after the push.
            stack = [(root, 0, -1, False)]
            while stack:
                node, depth, parent_index, is_right = stack.pop()
                index = len(features)
                if parent_index >= 0:
                    if is_right:
                        rights[parent_index] = index
                    else:
                        lefts[parent_index] = index
                max_depth = max(max_depth, depth)
                if node.left is None:  # leaf
                    features.append(-1)
                    thresholds.append(0.0)
                    lefts.append(index)
                    rights.append(index)
                    values.append(float(node.value))
                    continue
                features.append(int(node.feature))
                thresholds.append(float(node.threshold))
                lefts.append(-1)
                rights.append(-1)
                values.append(float(node.value))
                # Push right first so left is visited (and laid out) first.
                stack.append((node.right, depth + 1, index, True))
                stack.append((node.left, depth + 1, index, False))

        return cls(
            feature=np.asarray(features, dtype=np.int64),
            threshold=np.asarray(thresholds, dtype=np.float64),
            left=np.asarray(lefts, dtype=np.int64),
            right=np.asarray(rights, dtype=np.int64),
            value=np.asarray(values, dtype=np.float64),
            roots=np.asarray(roots, dtype=np.int64),
            max_depth=max_depth,
            n_features=n_features,
        )

    # -- introspection --------------------------------------------------------

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    # -- inference ------------------------------------------------------------

    def check_input(self, X: np.ndarray) -> None:
        """Raise :class:`TrainingError` unless ``X`` is 2-D and as wide as
        the training data."""
        if X.ndim != 2:
            raise TrainingError(f"X must be 2-D, got shape {X.shape}")
        if self.n_features is not None and X.shape[1] != self.n_features:
            raise TrainingError(
                f"expected {self.n_features} features, got shape {X.shape}"
            )

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values for every row: shape ``(n_trees, n_rows)``.

        One vectorized level-order descent advances all rows of all trees
        simultaneously. :meth:`accumulate` and :meth:`vote` sum the rows of
        the result in tree order to match the reference walks bit-for-bit.
        """
        X = np.asarray(X)
        self.check_input(X)
        n = X.shape[0]
        node = np.repeat(self.roots[:, None], n, axis=1)
        if n == 0:
            return self.value[node]
        row = np.arange(n)[None, :]
        for _ in range(self.max_depth):
            go_left = X[row, self._feature_safe[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]

    def accumulate(
        self,
        X: np.ndarray,
        base_score: float,
        learning_rate: float,
    ) -> np.ndarray:
        """Boosted raw scores: ``base + Σ_t lr * tree_t(X)`` in tree order.

        ``np.add.accumulate`` down the tree axis adds the rows one after
        another, so the sum keeps the reference implementations'
        sequential floating-point order exactly.
        """
        values = self.leaf_values(X)
        terms = np.empty((values.shape[0] + 1, values.shape[1]))
        terms[0] = base_score
        np.multiply(learning_rate, values, out=terms[1:])
        return np.add.accumulate(terms, axis=0)[-1]

    def vote(self, X: np.ndarray) -> np.ndarray:
        """Random-forest probabilities: the mean of per-tree ``[1-p, p]``.

        Each tree's leaf value is clipped to ``[0, 1]`` and the trees'
        ``[1-p, p]`` pairs are summed in tree order, bit-identical to
        summing the trees' ``predict_proba`` outputs sequentially.
        """
        p = np.clip(self.leaf_values(X), 0.0, 1.0)
        pairs = np.stack([1.0 - p, p], axis=-1)
        return np.add.accumulate(pairs, axis=0)[-1] / self.n_trees
