"""Random forest classifier.

The FreePhish framework description (§4, component 3) names a Random Forest
as the classification-module learner; we provide it both for that role and
as a strong sanity baseline in tests. Standard recipe: bootstrap-sampled
CART trees with √d feature subsampling, probability averaging.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import NotFittedError, TrainingError
from .flat import FlatForest
from .tree import DecisionTreeClassifier


class RandomForestClassifier:
    """Bagged ensemble of decorrelated CART classifiers."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 10,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.random_state = random_state
        self._trees: List[DecisionTreeClassifier] = []
        #: Built at the end of ``fit``; ``None`` means "not fitted".
        self._flat: Optional[FlatForest] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or y.shape[0] != X.shape[0]:
            raise TrainingError("bad shapes for X/y")
        rng = np.random.default_rng(self.random_state)
        max_features = max(1, int(np.sqrt(X.shape[1])))
        n = X.shape[0]
        self._trees = []
        self._flat = None
        for i in range(self.n_estimators):
            indices = rng.integers(0, n, size=n)  # bootstrap sample
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                max_features=max_features,
                random_state=int(rng.integers(0, 2 ** 31 - 1)),
            )
            tree.fit(X[indices], y[indices])
            self._trees.append(tree)
        self._flat = FlatForest.from_trees(
            [tree._tree._root for tree in self._trees], n_features=X.shape[1]
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._flat is None:
            raise NotFittedError("RandomForestClassifier is not fitted")
        return self._flat.vote(np.asarray(X, dtype=np.float64))

    def predict_proba_reference(self, X: np.ndarray) -> np.ndarray:
        """Per-row reference walk; bit-identical to :meth:`predict_proba`."""
        if self._flat is None:
            raise NotFittedError("RandomForestClassifier is not fitted")
        X = np.asarray(X, dtype=np.float64)
        accumulated = np.zeros((X.shape[0], 2), dtype=np.float64)
        for tree in self._trees:
            accumulated += tree.predict_proba(X)
        return accumulated / len(self._trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)
