"""FlatForest: vectorized inference must be bit-identical to the per-row
reference walk, for every backend and the stacked model.

These are property-style checks: each case fits a model on one random
problem and asserts ``np.array_equal`` (not ``allclose``) between the flat
path and the reference walk over matrices drawn from SeedBank-derived
streams — including NaN contamination, values sitting exactly on learned
thresholds, single-row batches, and the empty batch.
"""

import numpy as np
import pytest

from repro.config import SeedBank
from repro.errors import TrainingError
from repro.ml import (
    GradientBoostingClassifier,
    LightGBMClassifier,
    RandomForestClassifier,
    StackModel,
    XGBoostClassifier,
)

SEEDS = SeedBank(20231024)


def _training_data(n=400, d=8, stream="flat.train"):
    rng = SEEDS.child(stream)
    X = rng.normal(size=(n, d))
    logits = 1.2 * X[:, 0] - X[:, 1] + 1.5 * (X[:, 2] > 0.2) + X[:, 3] * X[:, 4]
    y = (logits + rng.normal(scale=0.5, size=n) > 0).astype(int)
    return X, y


def _query_matrices(d=8):
    """Batches the equivalence property is checked over."""
    rng = SEEDS.child("flat.query")
    dense = rng.normal(size=(300, d))
    single = rng.normal(size=(1, d))
    contaminated = rng.normal(size=(120, d))
    mask = rng.random(size=contaminated.shape) < 0.05
    contaminated[mask] = np.nan
    return [dense, single, contaminated, np.empty((0, d))]


BACKENDS = [
    ("gbdt", lambda: GradientBoostingClassifier(n_estimators=25)),
    ("xgb", lambda: XGBoostClassifier(n_estimators=25)),
    ("lgbm", lambda: LightGBMClassifier(n_estimators=25)),
    ("rf", lambda: RandomForestClassifier(n_estimators=20, random_state=3)),
]


@pytest.mark.parametrize("name,factory", BACKENDS)
class TestBackendEquivalence:
    def test_predict_proba_bit_identical(self, name, factory):
        X, y = _training_data()
        model = factory().fit(X, y)
        for Q in _query_matrices():
            assert np.array_equal(
                model.predict_proba(Q), model.predict_proba_reference(Q)
            )

    def test_predict_matches_reference(self, name, factory):
        X, y = _training_data()
        model = factory().fit(X, y)
        for Q in _query_matrices():
            reference = (
                model.predict_proba_reference(Q)[:, 1] >= 0.5
            ).astype(np.int64)
            assert np.array_equal(model.predict(Q), reference)

    def test_batch_equals_rowwise(self, name, factory):
        """Scoring a batch must equal scoring its rows one at a time."""
        X, y = _training_data()
        model = factory().fit(X, y)
        Q = _query_matrices()[2][:40]  # NaN-contaminated slice
        batched = model.predict_proba(Q)
        rowwise = np.vstack([model.predict_proba(row[None, :]) for row in Q])
        assert np.array_equal(batched, rowwise)

    def test_refit_invalidates_compiled_forest(self, name, factory):
        X, y = _training_data()
        model = factory().fit(X, y)
        first = model.predict_proba(X[:50])
        X2, y2 = _training_data(stream="flat.retrain")
        model.fit(X2, y2)
        assert np.array_equal(
            model.predict_proba(X[:50]), model.predict_proba_reference(X[:50])
        )
        # The second fit saw different data; identical output would mean
        # the stale compiled forest survived the refit.
        assert not np.array_equal(model.predict_proba(X[:50]), first)


class TestStackedEquivalence:
    def test_stack_model_bit_identical(self):
        X, y = _training_data()
        model = StackModel(n_estimators=10, n_splits=3, random_state=7).fit(X, y)
        for Q in _query_matrices():
            assert np.array_equal(
                model.predict_proba(Q), model.predict_proba_reference(Q)
            )

    def test_stack_single_row(self):
        X, y = _training_data()
        model = StackModel(n_estimators=10, n_splits=3, random_state=7).fit(X, y)
        row = X[:1]
        assert np.array_equal(
            model.predict_proba(row), model.predict_proba_reference(row)
        )


class TestThresholdEdges:
    def test_values_on_learned_thresholds(self):
        """x == threshold must route left on both paths (<= semantics)."""
        X, y = _training_data()
        model = GradientBoostingClassifier(n_estimators=15)
        model.fit(X, y)
        flat = model._flat
        internal = flat.threshold[flat.feature >= 0]
        rng = SEEDS.child("flat.edges")
        Q = rng.normal(size=(64, X.shape[1]))
        # Plant exact threshold values at random positions.
        rows = rng.integers(0, Q.shape[0], size=min(64, internal.size))
        cols = rng.integers(0, Q.shape[1], size=rows.size)
        Q[rows, cols] = internal[: rows.size]
        assert np.array_equal(
            model.predict_proba(Q), model.predict_proba_reference(Q)
        )

    def test_all_nan_rows(self):
        X, y = _training_data()
        model = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        Q = np.full((5, X.shape[1]), np.nan)
        assert np.array_equal(
            model.predict_proba(Q), model.predict_proba_reference(Q)
        )


class TestFlatForestStructure:
    def _compiled(self):
        X, y = _training_data()
        model = GradientBoostingClassifier(n_estimators=8)
        model.fit(X, y)
        return model._flat, X

    def test_leaves_self_loop(self):
        flat, _ = self._compiled()
        leaves = np.flatnonzero(flat.feature < 0)
        assert leaves.size > 0
        assert np.array_equal(flat.left[leaves], leaves)
        assert np.array_equal(flat.right[leaves], leaves)

    def test_tree_count(self):
        flat, _ = self._compiled()
        assert flat.n_trees == 8
        n_nodes = flat.feature.size
        for column in (flat.threshold, flat.left, flat.right, flat.value):
            assert column.size == n_nodes

    def test_leaf_values_shape(self):
        flat, X = self._compiled()
        values = flat.leaf_values(X[:17])
        assert values.shape == (8, 17)

    def test_rejects_wrong_width(self):
        flat, X = self._compiled()
        with pytest.raises(TrainingError):
            flat.leaf_values(X[:, :-1])

    def test_rejects_1d_input(self):
        flat, X = self._compiled()
        with pytest.raises(TrainingError):
            flat.leaf_values(X[0])

    def test_accumulate_matches_sequential_loop(self):
        flat, X = self._compiled()
        Q = X[:31]
        values = flat.leaf_values(Q)
        expected = np.full(Q.shape[0], 0.125)
        for t in range(values.shape[0]):
            expected = expected + 0.3 * values[t]
        assert np.array_equal(flat.accumulate(Q, 0.125, 0.3), expected)

    def test_empty_batch(self):
        flat, X = self._compiled()
        assert flat.leaf_values(np.empty((0, X.shape[1]))).shape == (8, 0)
        assert flat.accumulate(np.empty((0, X.shape[1])), 0.0, 0.1).shape == (0,)
