"""CART tree tests."""

import numpy as np
import pytest

from repro.errors import NotFittedError, TrainingError
from repro.ml import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.tree import _Node, predict_tree


def _depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


def _n_leaves(node):
    if node.is_leaf:
        return 1
    return _n_leaves(node.left) + _n_leaves(node.right)


def _step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = np.where(X[:, 0] > 0.2, 1.0, -1.0)
    return X, y


class TestRegressor:
    def test_fits_step_function(self):
        X, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert np.mean((tree.predict(X) - y) ** 2) < 0.01

    def test_depth_zero_predicts_mean(self):
        X, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict(X), y.mean())
        assert _depth(tree._root) == 0 and _n_leaves(tree._root) == 1

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        tree = DecisionTreeRegressor(max_depth=5).fit(X, np.ones(50))
        assert _n_leaves(tree._root) == 1

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_shape_validation(self):
        with pytest.raises(TrainingError):
            DecisionTreeRegressor().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(TrainingError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))
        tree = DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(5))
        with pytest.raises(TrainingError):
            tree.predict(np.zeros((3, 7)))

    def test_deterministic_given_seed(self):
        X, y = _step_data(100)
        a = DecisionTreeRegressor(max_depth=4, max_features=2, random_state=1)
        b = DecisionTreeRegressor(max_depth=4, max_features=2, random_state=1)
        assert np.array_equal(a.fit(X, y).predict(X), b.fit(X, y).predict(X))

    def test_no_generator_without_feature_sampling(self, monkeypatch):
        """Only ``max_features`` draws from the tree's generator, so a tree
        without it (every GBDT stage) must not seed one."""
        X, y = _step_data(100)

        def refuse(*_args, **_kwargs):
            raise AssertionError("seeded a generator that is never drawn from")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert np.mean((tree.predict(X) - y) ** 2) < 0.01

    def test_duplicate_feature_values_handled(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0])
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert tree.predict(np.array([[2.0]]))[0] == pytest.approx(1.0)


class TestReferenceWalk:
    def test_routes_on_threshold_and_nan(self):
        root = _Node(feature=1, threshold=0.5,
                     left=_Node(value=-1.0), right=_Node(value=2.0))
        X = np.array([[9.0, 0.5], [9.0, 0.6], [9.0, np.nan], [9.0, -3.0]])
        # x <= threshold goes left; NaN compares false and goes right.
        assert np.array_equal(predict_tree(root, X), [-1.0, 2.0, 2.0, -1.0])


class TestClassifier:
    def test_binary_classification(self):
        X, y = _step_data()
        labels = (y > 0).astype(int)
        clf = DecisionTreeClassifier(max_depth=3).fit(X, labels)
        assert np.mean(clf.predict(X) == labels) > 0.98

    def test_predict_proba_valid(self):
        X, y = _step_data()
        labels = (y > 0).astype(int)
        proba = DecisionTreeClassifier(max_depth=3).fit(X, labels).predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_rejects_non_binary_labels(self):
        X = np.zeros((6, 2))
        with pytest.raises(TrainingError):
            DecisionTreeClassifier().fit(X, np.array([0, 1, 2, 0, 1, 2]))
