"""LightGBM internals: the binner and leaf-wise tree growth."""

import numpy as np

from repro.ml import lgbm
from repro.ml.lgbm import _Binner, LightGBMClassifier


def _raw_threshold(binner, feature, bin_index):
    """Raw-space threshold equivalent to ``bin <= bin_index``."""
    edges = binner.bin_edges[feature]
    if len(edges) == 0:
        return np.inf
    return float(edges[min(bin_index, len(edges) - 1)])


class TestBinner:
    def test_transform_monotone_in_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 1))
        binner = _Binner(max_bins=16).fit(X)
        binned = binner.transform(X)
        order = np.argsort(X[:, 0])
        assert (np.diff(binned[order, 0]) >= 0).all()

    def test_bin_count_bounded(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 2))
        binned = _Binner(max_bins=8).fit(X).transform(X)
        assert binned.max() <= 8

    def test_constant_feature_single_bin(self):
        X = np.ones((50, 1))
        binner = _Binner(max_bins=8).fit(X)
        binned = binner.transform(X)
        assert np.unique(binned).size == 1

    def test_threshold_maps_bins_to_raw_space(self):
        X = np.arange(100, dtype=float).reshape(-1, 1)
        binner = _Binner(max_bins=4).fit(X)
        binned = binner.transform(X)
        for bin_index in range(int(binned.max())):
            threshold = _raw_threshold(binner, 0, bin_index)
            # Everything in bins <= bin_index sits at/below the threshold.
            assert X[binned[:, 0] <= bin_index, 0].max() <= threshold

    def test_unseen_values_clamp_into_range(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        binner = _Binner(max_bins=8).fit(X)
        extremes = binner.transform(np.array([[-100.0], [100.0]]))
        assert extremes[0, 0] == 0
        assert extremes[1, 0] == binner.transform(X).max()


class TestLeafWiseTree:
    def test_grows_best_first(self, monkeypatch):
        """With a budget of 3 leaves, the tree spends its splits on the
        dimension with the largest gain."""
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(400, 2))
        # Feature 0 explains most variance; feature 1 a little.
        y = (X[:, 0] > 0.5).astype(float) * 2.0 + (X[:, 1] > 0.5) * 0.2
        grad = y - y.mean()
        hess = np.ones_like(grad)
        binner = _Binner(max_bins=32).fit(X)
        monkeypatch.setattr(lgbm, "NUM_LEAVES", 2)
        root = lgbm._grow(binner.transform(X), grad, hess)
        assert root.feature == 0  # the first (only) split uses f0

    def test_prediction_partitions_all_rows(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(float)
        monkeypatch.setattr(lgbm, "NUM_LEAVES", 8)
        model = LightGBMClassifier(n_estimators=5).fit(X, y)
        proba = model.predict_proba(X)
        assert np.isfinite(proba).all()

    def test_thresholds_are_bin_indices(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        model = LightGBMClassifier(n_estimators=3).fit(X, y)
        top_bin = model._binner.transform(X).max()
        stack = list(model._trees)
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            assert isinstance(node.threshold, float)
            assert node.threshold.is_integer() and 0 <= node.threshold < top_bin
            stack.extend((node.left, node.right))

    def test_min_data_in_leaf_respected(self, monkeypatch):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        grad = rng.normal(size=60)
        hess = np.ones(60)
        binned = _Binner(max_bins=16).fit(X).transform(X)
        monkeypatch.setattr(lgbm, "NUM_LEAVES", 32)
        monkeypatch.setattr(lgbm, "MIN_DATA_IN_LEAF", 20)
        root = lgbm._grow(binned, grad, hess)

        def leaf_sizes(node, indices):
            if node.is_leaf:
                return [len(indices)]
            mask = binned[indices, node.feature] <= node.threshold
            return leaf_sizes(node.left, indices[mask]) + leaf_sizes(
                node.right, indices[~mask]
            )

        sizes = leaf_sizes(root, np.arange(60))
        assert all(size >= 20 for size in sizes)
        assert sum(sizes) == 60
