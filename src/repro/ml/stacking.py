"""The two-layer StackModel of Li et al. (2019), as used by the paper.

Architecture (paper §4.2, "Model training and performance"):

* **Layer 1**: GBDT, XGBoost, and LightGBM each produce out-of-fold
  probability predictions over the training set (K-fold style, so no base
  model ever predicts a sample it saw in training). The layer's output is
  the original features **plus** the three predictions **plus** their
  majority vote.
* **Layer 2**: the same learner trio runs again on the augmented features,
  appending its own predictions and vote.
* **Final**: a GBDT consumes the twice-augmented composite features and
  emits the phishing verdict.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import NotFittedError, TrainingError
from .boosting import GradientBoostingClassifier
from .crossval import cross_val_predict
from .lgbm import LightGBMClassifier
from .xgb import XGBoostClassifier

ModelFactory = Callable[[], object]


class StackingClassifier:
    """Generic multi-layer stacking with feature pass-through.

    Parameters
    ----------
    layers:
        A sequence of layers, each a list of model factories. Every layer
        appends its members' out-of-fold predictions (plus a majority-vote
        column) to the running feature matrix.
    final_factory:
        Factory for the terminal combiner model.
    n_splits:
        K for the out-of-fold prediction folds.
    """

    def __init__(
        self,
        layers: Sequence[Sequence[ModelFactory]],
        final_factory: ModelFactory,
        n_splits: int = 5,
        random_state: Optional[int] = None,
    ) -> None:
        if not layers or any(not layer for layer in layers):
            raise TrainingError("stacking needs at least one non-empty layer")
        self.layer_factories = [list(layer) for layer in layers]
        self.final_factory = final_factory
        self.n_splits = n_splits
        self.random_state = random_state
        self._layer_models: List[List[object]] = []
        self._final_model: Optional[object] = None

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _augment(features: np.ndarray, predictions: List[np.ndarray]) -> np.ndarray:
        """Append per-model probabilities and their majority vote."""
        columns = [features] + [p.reshape(-1, 1) for p in predictions]
        votes = np.mean([(p >= 0.5).astype(np.float64) for p in predictions], axis=0)
        majority = (votes >= 0.5).astype(np.float64).reshape(-1, 1)
        columns.append(majority)
        return np.hstack(columns)

    # -- API -----------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "StackingClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).astype(np.int64)
        if X.ndim != 2 or y.shape[0] != X.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if np.unique(y).size < 2:
            raise TrainingError("training labels contain a single class")

        self._layer_models = []
        current = X
        for layer_index, factories in enumerate(self.layer_factories):
            oof_predictions = []
            fitted_models = []
            for model_index, factory in enumerate(factories):
                seed = (
                    None
                    if self.random_state is None
                    else self.random_state + 97 * layer_index + model_index
                )
                oof = cross_val_predict(
                    factory, current, y, n_splits=self.n_splits, random_state=seed
                )
                oof_predictions.append(oof)
                model = factory()
                model.fit(current, y)
                fitted_models.append(model)
            self._layer_models.append(fitted_models)
            current = self._augment(current, oof_predictions)

        self._final_model = self.final_factory()
        self._final_model.fit(current, y)
        return self

    def _predict(self, X: np.ndarray, method: str) -> np.ndarray:
        """Run ``method`` of every member through the layers and the final
        model; ``method`` is ``"predict_proba"`` or its reference walk."""
        if self._final_model is None:
            raise NotFittedError("StackingClassifier is not fitted")
        current = np.asarray(X, dtype=np.float64)
        for models in self._layer_models:
            predictions = [getattr(m, method)(current)[:, 1] for m in models]
            current = self._augment(current, predictions)
        return getattr(self._final_model, method)(current)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Stacked probabilities; base models route through their flattened
        (vectorized) inference path — see :mod:`repro.ml.flat`."""
        return self._predict(X, "predict_proba")

    def predict_proba_reference(self, X: np.ndarray) -> np.ndarray:
        """Stacked probabilities over the members' per-row reference walks;
        bit-identical to :meth:`predict_proba`."""
        return self._predict(X, "predict_proba_reference")

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)


def _default_trio(random_state: Optional[int], n_estimators: int) -> List[ModelFactory]:
    return [
        lambda: GradientBoostingClassifier(
            n_estimators=n_estimators, max_depth=3, learning_rate=0.1,
            random_state=random_state,
        ),
        lambda: XGBoostClassifier(
            n_estimators=n_estimators, max_depth=4, learning_rate=0.1,
            reg_lambda=1.0, random_state=random_state,
        ),
        lambda: LightGBMClassifier(
            n_estimators=n_estimators, num_leaves=15, learning_rate=0.1,
            random_state=random_state,
        ),
    ]


class StackModel(StackingClassifier):
    """The paper's exact configuration: two GBDT/XGB/LGBM layers + GBDT head."""

    def __init__(
        self,
        n_estimators: int = 60,
        n_splits: int = 5,
        random_state: Optional[int] = 7,
    ) -> None:
        trio = _default_trio(random_state, n_estimators)
        super().__init__(
            layers=[trio, trio],
            final_factory=lambda: GradientBoostingClassifier(
                n_estimators=n_estimators, max_depth=3, learning_rate=0.1,
                random_state=random_state,
            ),
            n_splits=n_splits,
            random_state=random_state,
        )
