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

from functools import partial
from typing import List, Optional

import numpy as np

from ..errors import NotFittedError, TrainingError
from .boosting import GradientBoostingClassifier
from .crossval import cross_val_predict
from .lgbm import LightGBMClassifier
from .xgb import XGBoostClassifier

#: Learner layers before the GBDT head.
N_LAYERS = 2
#: The learner trio of every layer.
LAYER_MODELS = (GradientBoostingClassifier, XGBoostClassifier, LightGBMClassifier)


class StackModel:
    """The paper's detector: two GBDT/XGB/LGBM layers and a GBDT head.

    Parameters
    ----------
    n_estimators:
        Boosting stages of every member model, the head included.
    n_splits:
        K for the out-of-fold prediction folds.
    random_state:
        Seeds the fold assignment of every member's out-of-fold
        predictions.
    """

    def __init__(
        self,
        n_estimators: int = 60,
        n_splits: int = 5,
        random_state: Optional[int] = 7,
    ) -> None:
        self.n_estimators = n_estimators
        self.n_splits = n_splits
        self.random_state = random_state
        self._layer_models: List[List[object]] = []
        self._final_model: Optional[GradientBoostingClassifier] = None

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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "StackModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).astype(np.int64)
        if X.ndim != 2 or y.shape[0] != X.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if np.unique(y).size < 2:
            raise TrainingError("training labels contain a single class")

        self._layer_models = []
        current = X
        for layer_index in range(N_LAYERS):
            oof_predictions = []
            fitted_models = []
            for model_index, model_cls in enumerate(LAYER_MODELS):
                factory = partial(model_cls, n_estimators=self.n_estimators)
                seed = (
                    None
                    if self.random_state is None
                    else self.random_state + 97 * layer_index + model_index
                )
                oof = cross_val_predict(
                    factory, current, y, n_splits=self.n_splits, random_state=seed
                )
                oof_predictions.append(oof)
                fitted_models.append(factory().fit(current, y))
            self._layer_models.append(fitted_models)
            current = self._augment(current, oof_predictions)

        self._final_model = GradientBoostingClassifier(n_estimators=self.n_estimators)
        self._final_model.fit(current, y)
        return self

    def _predict(self, X: np.ndarray, method: str) -> np.ndarray:
        """Run ``method`` of every member through the layers and the final
        model; ``method`` is ``"predict_proba"`` or its reference walk."""
        if self._final_model is None:
            raise NotFittedError("StackModel is not fitted")
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
