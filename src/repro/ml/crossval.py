"""Train/test splitting and K-fold utilities.

The paper trains with a 70/30 split and a "strategy similar to K-fold
cross-validation" for producing the stacking layers' out-of-fold
predictions; both live here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import TrainingError


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_size: float = 0.3,
    random_state: Optional[int] = None,
    stratify: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle-split into train/test, stratified by label by default."""
    X = np.asarray(X)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise TrainingError("X and y row counts differ")
    if not 0.0 < test_size < 1.0:
        raise TrainingError("test_size must lie in (0, 1)")
    rng = np.random.default_rng(random_state)
    n = X.shape[0]
    if stratify:
        test_mask = np.zeros(n, dtype=bool)
        for label in np.unique(y):
            indices = np.flatnonzero(y == label)
            rng.shuffle(indices)
            n_test = int(round(test_size * indices.size))
            test_mask[indices[:n_test]] = True
    else:
        indices = rng.permutation(n)
        test_mask = np.zeros(n, dtype=bool)
        test_mask[indices[: int(round(test_size * n))]] = True
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]


def kfold_indices(
    n_samples: int,
    n_splits: int = 5,
    random_state: Optional[int] = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Shuffled K-fold (train_idx, test_idx) pairs covering every sample once."""
    if n_splits < 2:
        raise TrainingError("n_splits must be at least 2")
    if n_samples < n_splits:
        raise TrainingError("more folds than samples")
    rng = np.random.default_rng(random_state)
    permutation = rng.permutation(n_samples)
    folds = np.array_split(permutation, n_splits)
    out = []
    for i in range(n_splits):
        test_idx = folds[i]
        train_idx = np.concatenate([folds[j] for j in range(n_splits) if j != i])
        out.append((np.sort(train_idx), np.sort(test_idx)))
    return out


def cross_val_predict(
    model_factory,
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    random_state: Optional[int] = None,
) -> np.ndarray:
    """Out-of-fold positive-class probabilities for every sample.

    ``model_factory`` is a zero-argument callable returning an unfitted
    estimator with ``fit``/``predict_proba``. Each sample's prediction
    comes from the fold in which it was held out — the stacking layers'
    leak-free inputs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    predictions = np.empty(X.shape[0], dtype=np.float64)
    for train_idx, test_idx in kfold_indices(X.shape[0], n_splits, random_state):
        model = model_factory()
        model.fit(X[train_idx], y[train_idx])
        predictions[test_idx] = model.predict_proba(X[test_idx])[:, 1]
    return predictions
