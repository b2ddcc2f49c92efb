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


#: Probability at or above which a page is labelled phishing.
PHISHING_THRESHOLD = 0.5


class FreePhishClassifier:
    """Augmented StackModel over the FWB feature set.

    The feature view is the class attribute ``feature_names``: every
    matrix this class builds from pages takes those columns, so a
    subclass that sets another view is the same detector on other
    features (:class:`repro.baselines.BaseStackModelDetector`).
    """

    feature_names: Tuple[str, ...] = FWB_FEATURE_NAMES

    def __init__(
        self,
        n_estimators: int = 60,
        n_splits: int = 5,
        random_state: Optional[int] = 7,
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
        self._fitted = False

    def _matrix(self, pages: Sequence[ProcessedPage]) -> np.ndarray:
        """One row per page, in ``feature_names`` order."""
        return np.vstack([page.features.vector(self.feature_names) for page in pages])

    # -- training -------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FreePhishClassifier":
        self.model.fit(np.asarray(X, dtype=np.float64), np.asarray(y))
        self._fitted = True
        return self

    def fit_pages(
        self, pages: Sequence[ProcessedPage], labels: Sequence[int]
    ) -> "FreePhishClassifier":
        return self.fit(self._matrix(pages), np.asarray(labels))

    # -- prediction -------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return self.model.predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= PHISHING_THRESHOLD).astype(np.int64)

    def predict_page(self, page: ProcessedPage) -> int:
        return int(self.predict_pages([page])[0])

    def predict_pages(self, pages: Sequence[ProcessedPage]) -> np.ndarray:
        return self.predict(self._matrix(pages))

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
        X = self._matrix(pages)
        probabilities = self.predict_proba(X)[:, 1]
        elapsed = time.perf_counter() - start  # reprolint: disable=RP101,RP105 — runtime_seconds reports real inference latency
        per_page = elapsed / len(pages)
        return [
            TimedPrediction(
                label=int(probability >= PHISHING_THRESHOLD),
                probability=float(probability),
                runtime_seconds=per_page,
            )
            for probability in probabilities
        ]

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, X: np.ndarray, y: np.ndarray) -> ClassificationSummary:
        return classification_summary(np.asarray(y), self.predict(X))
