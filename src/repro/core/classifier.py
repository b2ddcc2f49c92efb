"""The FreePhish classification module: the augmented StackModel.

This is the paper's detector ("Our Model" in Table 2): the Li et al.
two-layer StackModel trained on the FWB-adjusted feature set — the base 20
features minus (https, multi-TLD), plus (obfuscated FWB banner, noindex).
Reported performance: 0.97 accuracy, 0.96 F1, 2.8 s median runtime on the
authors' hardware.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import NotFittedError
from ..ml import StackModel, classification_summary
from ..ml.metrics import ClassificationSummary
from .features import FWB_FEATURE_NAMES
from .preprocess import ProcessedPage


@dataclass
class TimedPrediction:
    """A prediction plus its wall-clock cost (Table 2's runtime columns)."""

    label: int
    probability: float
    runtime_seconds: float


class FreePhishClassifier:
    """Augmented StackModel over the FWB feature set."""

    feature_names: Tuple[str, ...] = FWB_FEATURE_NAMES

    def __init__(
        self,
        n_estimators: int = 60,
        n_splits: int = 5,
        random_state: Optional[int] = 7,
        threshold: float = 0.5,
        model=None,
    ) -> None:
        """``model`` overrides the default StackModel with any estimator
        exposing ``fit``/``predict_proba`` — campaign simulations use a
        Random Forest here for speed, as §4 permits."""
        self.model = model if model is not None else StackModel(
            n_estimators=n_estimators,
            n_splits=n_splits,
            random_state=random_state,
        )
        self.threshold = threshold
        self._fitted = False

    # -- training -------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FreePhishClassifier":
        self.model.fit(np.asarray(X, dtype=np.float64), np.asarray(y))
        self._fitted = True
        return self

    def fit_pages(
        self, pages: Sequence[ProcessedPage], labels: Sequence[int]
    ) -> "FreePhishClassifier":
        X = np.vstack([page.fwb_vector for page in pages])
        return self.fit(X, np.asarray(labels))

    # -- prediction -------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("FreePhishClassifier is not fitted")
        return self.model.predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= self.threshold).astype(np.int64)

    def classify_page(self, page: ProcessedPage) -> TimedPrediction:
        """Classify one processed page, timing the inference."""
        return self.classify_pages([page])[0]

    def classify_pages(self, pages: Sequence[ProcessedPage]) -> List[TimedPrediction]:
        """Classify a batch of pages with **one** ``predict_proba`` call.

        Inference over the flattened ensembles is elementwise per row, so
        each returned probability is bit-identical to classifying that page
        in a batch of its own (:meth:`classify_page`). The
        measured runtime is amortized equally across the batch (Table 2's
        per-URL runtime column).
        """
        if not pages:
            return []
        start = time.perf_counter()  # reprolint: disable=RP101,RP105 — runtime_seconds reports real inference latency
        X = np.vstack([page.fwb_vector for page in pages])
        probabilities = self.predict_proba(X)[:, 1]
        elapsed = time.perf_counter() - start  # reprolint: disable=RP101,RP105 — runtime_seconds reports real inference latency
        per_page = elapsed / len(pages)
        return [
            TimedPrediction(
                label=int(probability >= self.threshold),
                probability=float(probability),
                runtime_seconds=per_page,
            )
            for probability in probabilities
        ]

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, X: np.ndarray, y: np.ndarray) -> ClassificationSummary:
        return classification_summary(np.asarray(y), self.predict(X))
