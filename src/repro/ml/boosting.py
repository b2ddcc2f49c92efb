"""Classic gradient-boosted decision trees (GBDT) for binary classification.

Friedman-style boosting with logistic loss: each stage fits a CART
regression tree to the negative gradient (residual ``y - p``) and the
ensemble accumulates ``LEARNING_RATE``-scaled tree outputs in log-odds
space. This is the "GBDT" member of the StackModel's learner trio and the
final-layer combiner in Li et al.'s architecture.

:class:`BoostedTrees` is the inference surface all three boosters share
(GBDT here, :mod:`repro.ml.xgb` and :mod:`repro.ml.lgbm`): the estimators
only fit, and compile their trees into a :class:`~repro.ml.flat.FlatForest`
at the end of ``fit``. :func:`newton_value` and :func:`second_order_gain`
are the leaf value and split gain of the two second-order boosters.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import NotFittedError, TrainingError
from .flat import FlatForest, sigmoid
from .tree import DecisionTreeRegressor, _Node, predict_tree

#: Shrinkage applied to every tree's output, for all three boosters.
LEARNING_RATE = 0.1
#: Depth of GBDT's regression trees.
MAX_DEPTH = 3
#: L2 penalty λ on the leaf values of the second-order boosters.
REG_LAMBDA = 1.0


def newton_value(grad_sum: float, hess_sum: float) -> float:
    """Regularized Newton step ``−G/(H+λ)``: a second-order leaf value."""
    return -grad_sum / (hess_sum + REG_LAMBDA)


def second_order_gain(
    g_left: np.ndarray, h_left: np.ndarray, g_total: float, h_total: float
) -> np.ndarray:
    """Split gain ``½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)]`` of every
    candidate, given the left-side gradient and hessian sums."""
    parent_score = g_total ** 2 / (h_total + REG_LAMBDA)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * (
            g_left ** 2 / (h_left + REG_LAMBDA)
            + (g_total - g_left) ** 2 / (h_total - h_left + REG_LAMBDA)
            - parent_score
        )


def log_odds_prior(y: np.ndarray) -> float:
    """Initial raw score: the log-odds of the positive rate, kept finite."""
    positive = min(max(float(y.mean()), 1e-6), 1 - 1e-6)
    return float(np.log(positive / (1.0 - positive)))


class BoostedTrees:
    """Prediction for a fitted boosted ensemble in log-odds space.

    Subclasses set ``_trees`` (root :class:`~repro.ml.tree._Node` of each
    stage) and ``_base_score``, and build ``_flat`` at the end of ``fit``;
    ``_flat is None`` means "not fitted".
    """

    _flat: Optional[FlatForest] = None

    def _tree_inputs(self, X: np.ndarray) -> np.ndarray:
        """The matrix the trees split on, for a fitted model."""
        if self._flat is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        X = np.asarray(X, dtype=np.float64)
        self._flat.check_input(X)
        return X

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        inputs = self._tree_inputs(X)
        return self._flat.accumulate(inputs, self._base_score, LEARNING_RATE)

    def decision_function_reference(self, X: np.ndarray) -> np.ndarray:
        """Per-row reference walk; bit-identical to :meth:`decision_function`."""
        inputs = self._tree_inputs(X)
        raw = np.full(inputs.shape[0], self._base_score)
        for root in self._trees:
            raw += LEARNING_RATE * predict_tree(root, inputs)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])

    def predict_proba_reference(self, X: np.ndarray) -> np.ndarray:
        p = sigmoid(self.decision_function_reference(X))
        return np.column_stack([1.0 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)


class GradientBoostingClassifier(BoostedTrees):
    """Binary GBDT with logistic loss: ``n_estimators`` boosting stages of
    depth-``MAX_DEPTH`` regression trees, shrunk by ``LEARNING_RATE``."""

    def __init__(self, n_estimators: int = 100) -> None:
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self._trees: List[_Node] = []
        self._base_score = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if not np.isin(np.unique(y), (0.0, 1.0)).all():
            raise TrainingError("GradientBoostingClassifier expects binary 0/1 labels")
        self._base_score = log_odds_prior(y)
        raw = np.full(y.shape[0], self._base_score)
        self._trees = []
        self._flat = None
        for _ in range(self.n_estimators):
            residual = y - sigmoid(raw)
            root = DecisionTreeRegressor(max_depth=MAX_DEPTH).fit(X, residual)._root
            raw = raw + LEARNING_RATE * predict_tree(root, X)
            self._trees.append(root)
        self._flat = FlatForest.from_trees(self._trees, n_features=X.shape[1])
        return self
