"""Classic gradient-boosted decision trees (GBDT) for binary classification.

Friedman-style boosting with logistic loss: each stage fits a CART
regression tree to the negative gradient (residual ``y - p``) and the
ensemble accumulates ``learning_rate``-scaled tree outputs in log-odds
space. This is the "GBDT" member of the StackModel's learner trio and the
final-layer combiner in Li et al.'s architecture.

:class:`BoostedTrees` is the inference surface all three boosters share
(GBDT here, :mod:`repro.ml.xgb` and :mod:`repro.ml.lgbm`): the estimators
only fit, and compile their trees into a :class:`~repro.ml.flat.FlatForest`
at the end of ``fit``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import NotFittedError, TrainingError
from .flat import FlatForest, sigmoid
from .tree import DecisionTreeRegressor


class BoostedTrees:
    """Prediction for a fitted boosted ensemble in log-odds space.

    Subclasses set ``_trees`` (each with ``predict``), ``_base_score`` and
    ``learning_rate``, and build ``_flat`` at the end of ``fit``;
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
        return self._flat.accumulate(inputs, self._base_score, self.learning_rate)

    def decision_function_reference(self, X: np.ndarray) -> np.ndarray:
        """Per-row reference walk; bit-identical to :meth:`decision_function`."""
        inputs = self._tree_inputs(X)
        raw = np.full(inputs.shape[0], self._base_score)
        for tree in self._trees:
            raw += self.learning_rate * tree.predict(inputs)
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
    """Binary GBDT with logistic loss.

    Parameters mirror the conventional implementation: ``n_estimators``
    boosting stages of depth-``max_depth`` trees, shrunk by
    ``learning_rate``; ``subsample`` < 1 enables stochastic gradient
    boosting.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state: Optional[int] = None,
        early_stopping_rounds: Optional[int] = None,
        validation_fraction: float = 0.15,
    ) -> None:
        """``early_stopping_rounds`` holds out ``validation_fraction`` of
        the training data and stops boosting once validation log-loss has
        not improved for that many consecutive stages, truncating the
        ensemble at the best stage."""
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        if not 0.0 < learning_rate <= 1.0:
            raise TrainingError("learning_rate must lie in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise TrainingError("subsample must lie in (0, 1]")
        if early_stopping_rounds is not None and early_stopping_rounds < 1:
            raise TrainingError("early_stopping_rounds must be positive")
        if not 0.0 < validation_fraction < 1.0:
            raise TrainingError("validation_fraction must lie in (0, 1)")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        self._trees: List[DecisionTreeRegressor] = []
        self._base_score = 0.0
        #: Per-stage validation log-loss when early stopping is active.
        self.validation_curve: List[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if not np.isin(np.unique(y), (0.0, 1.0)).all():
            raise TrainingError("GradientBoostingClassifier expects binary 0/1 labels")
        rng = np.random.default_rng(self.random_state)

        validation_X = validation_y = None
        if self.early_stopping_rounds is not None:
            n_validation = max(1, int(round(self.validation_fraction * y.shape[0])))
            if y.shape[0] - n_validation < 2:
                raise TrainingError("too few samples for early stopping")
            order = rng.permutation(y.shape[0])
            validation_idx, train_idx = order[:n_validation], order[n_validation:]
            validation_X, validation_y = X[validation_idx], y[validation_idx]
            X, y = X[train_idx], y[train_idx]

        positive = float(y.mean())
        positive = min(max(positive, 1e-6), 1 - 1e-6)
        self._base_score = float(np.log(positive / (1.0 - positive)))
        raw = np.full(y.shape[0], self._base_score)
        self._trees = []
        self._flat = None
        self.validation_curve = []

        validation_raw = (
            np.full(validation_y.shape[0], self._base_score)
            if validation_y is not None else None
        )
        best_loss = np.inf
        best_stage = 0

        n = y.shape[0]
        sample_size = max(1, int(round(self.subsample * n)))
        for stage in range(self.n_estimators):
            probabilities = sigmoid(raw)
            residual = y - probabilities
            if self.subsample < 1.0:
                indices = rng.choice(n, size=sample_size, replace=False)
            else:
                indices = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=None if self.random_state is None else self.random_state + stage,
            )
            tree.fit(X[indices], residual[indices])
            raw = raw + self.learning_rate * tree.predict(X)
            self._trees.append(tree)

            if validation_raw is not None:
                validation_raw = (
                    validation_raw + self.learning_rate * tree.predict(validation_X)
                )
                p = np.clip(sigmoid(validation_raw), 1e-12, 1 - 1e-12)
                loss = float(
                    -np.mean(validation_y * np.log(p)
                             + (1 - validation_y) * np.log(1 - p))
                )
                self.validation_curve.append(loss)
                if loss < best_loss - 1e-9:
                    best_loss = loss
                    best_stage = stage
                elif stage - best_stage >= self.early_stopping_rounds:
                    self._trees = self._trees[: best_stage + 1]
                    break
        self._flat = FlatForest.from_trees(
            [tree._root for tree in self._trees], n_features=X.shape[1]
        )
        return self

    @property
    def n_fitted_trees(self) -> int:
        return len(self._trees)
