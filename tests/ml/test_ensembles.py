"""Boosted ensembles, random forest, and the StackModel."""

import numpy as np
import pytest

from repro.errors import NotFittedError, TrainingError
from repro.ml import (
    GradientBoostingClassifier,
    LightGBMClassifier,
    RandomForestClassifier,
    StackModel,
    XGBoostClassifier,
    accuracy_score,
    train_test_split,
)
from repro.ml import boosting, lgbm
from repro.ml.tree import _Node


def _nonlinear_data(n=600, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    logits = (
        1.5 * X[:, 0]
        - X[:, 1]
        + 2.0 * (X[:, 2] > 0.3)
        + X[:, 3] * X[:, 4]
    )
    y = (logits + rng.normal(scale=0.6, size=n) > 0).astype(int)
    return train_test_split(X, y, test_size=0.3, random_state=1)


MODELS = [
    ("gbdt", lambda: GradientBoostingClassifier(n_estimators=50)),
    ("xgb", lambda: XGBoostClassifier(n_estimators=50)),
    ("lgbm", lambda: LightGBMClassifier(n_estimators=50)),
    ("rf", lambda: RandomForestClassifier(n_estimators=30, random_state=0)),
]


@pytest.mark.parametrize("name,factory", MODELS)
class TestCommonBehaviour:
    def test_learns_nonlinear_boundary(self, name, factory):
        Xtr, Xte, ytr, yte = _nonlinear_data()
        model = factory().fit(Xtr, ytr)
        assert accuracy_score(yte, model.predict(Xte)) > 0.78

    def test_probabilities_valid(self, name, factory):
        Xtr, Xte, ytr, yte = _nonlinear_data()
        proba = factory().fit(Xtr, ytr).predict_proba(Xte)
        assert proba.shape == (len(Xte), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_deterministic(self, name, factory):
        Xtr, _Xte, ytr, _yte = _nonlinear_data(200)
        a = factory().fit(Xtr, ytr).predict(Xtr)
        b = factory().fit(Xtr, ytr).predict(Xtr)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("width", [5, 7])
    @pytest.mark.parametrize("method", ["predict_proba", "predict_proba_reference"])
    def test_rejects_wrong_width(self, name, factory, width, method):
        Xtr, _Xte, ytr, _yte = _nonlinear_data(200)
        model = factory().fit(Xtr, ytr)
        with pytest.raises(TrainingError, match="expected 6 features"):
            getattr(model, method)(np.zeros((2, width)))

    def test_predict_before_fit(self, name, factory):
        with pytest.raises(NotFittedError):
            factory().predict(np.zeros((2, 6)))

    def test_trees_share_one_node_type(self, name, factory):
        Xtr, _Xte, ytr, _yte = _nonlinear_data(200)
        model = factory().fit(Xtr, ytr)
        if name == "rf":
            stack = [tree._tree._root for tree in model._trees]
        else:
            stack = list(model._trees)
        while stack:
            node = stack.pop()
            assert type(node) is _Node
            if not node.is_leaf:
                stack.extend((node.left, node.right))

    def test_rejects_multiclass(self, name, factory):
        X = np.random.default_rng(0).normal(size=(30, 3))
        y = np.arange(30) % 3
        with pytest.raises(TrainingError):
            factory().fit(X, y)


UNFITTED_CALLS = [
    (name, factory, method)
    for name, factory in MODELS + [("stack", lambda: StackModel(n_estimators=5))]
    for method in ("predict_proba", "predict_proba_reference")
] + [
    (name, factory, method)
    for name, factory in MODELS[:3]
    for method in ("decision_function", "decision_function_reference")
]


@pytest.mark.parametrize("name,factory,method", UNFITTED_CALLS)
def test_inference_before_fit_raises(name, factory, method):
    with pytest.raises(NotFittedError):
        getattr(factory(), method)(np.zeros((2, 6)))


class TestBoostingSpecifics:
    def test_more_stages_reduce_training_error(self):
        Xtr, _, ytr, _ = _nonlinear_data(300)
        few = GradientBoostingClassifier(n_estimators=5).fit(Xtr, ytr)
        many = GradientBoostingClassifier(n_estimators=80).fit(Xtr, ytr)
        assert accuracy_score(ytr, many.predict(Xtr)) >= accuracy_score(
            ytr, few.predict(Xtr)
        )

    def test_fits_every_stage(self):
        Xtr, _, ytr, _ = _nonlinear_data(120)
        model = GradientBoostingClassifier(n_estimators=25).fit(Xtr, ytr)
        assert len(model._trees) == model._flat.n_trees == 25

    def test_invalid_hyperparameters(self):
        for model_cls in (
            GradientBoostingClassifier, XGBoostClassifier, LightGBMClassifier,
            RandomForestClassifier,
        ):
            with pytest.raises(TrainingError):
                model_cls(n_estimators=0)

    def test_xgb_regularization_shrinks_leaves(self, monkeypatch):
        Xtr, _, ytr, _ = _nonlinear_data(300)
        monkeypatch.setattr(boosting, "REG_LAMBDA", 0.1)
        mild = XGBoostClassifier(n_estimators=10).fit(Xtr, ytr)
        monkeypatch.setattr(boosting, "REG_LAMBDA", 100.0)
        harsh = XGBoostClassifier(n_estimators=10).fit(Xtr, ytr)
        spread_mild = np.std(mild.decision_function(Xtr))
        spread_harsh = np.std(harsh.decision_function(Xtr))
        assert spread_harsh < spread_mild

    def test_lgbm_leaf_budget(self, monkeypatch):
        Xtr, _, ytr, _ = _nonlinear_data(300)
        monkeypatch.setattr(lgbm, "NUM_LEAVES", 4)
        model = LightGBMClassifier(n_estimators=3).fit(Xtr, ytr)

        def count_leaves(node):
            if node.is_leaf:
                return 1
            return count_leaves(node.left) + count_leaves(node.right)

        assert all(count_leaves(root) <= 4 for root in model._trees)

    def test_decision_function_matches_predict(self):
        Xtr, Xte, ytr, _ = _nonlinear_data(300)
        model = XGBoostClassifier(n_estimators=20).fit(Xtr, ytr)
        raw = model.decision_function(Xte)
        assert np.array_equal(model.predict(Xte), (raw >= 0).astype(int))


class TestStacking:
    def test_stackmodel_beats_single_weak_tree(self):
        Xtr, Xte, ytr, yte = _nonlinear_data(500)
        stack = StackModel(n_estimators=20, random_state=0).fit(Xtr, ytr)
        from repro.ml import DecisionTreeClassifier

        weak = DecisionTreeClassifier(max_depth=2).fit(Xtr, ytr)
        assert accuracy_score(yte, stack.predict(Xte)) >= accuracy_score(
            yte, weak.predict(Xte)
        )

    def test_augment_appends_predictions_and_vote(self):
        X = np.zeros((4, 3))
        preds = [np.array([0.9, 0.1, 0.8, 0.2]), np.array([0.7, 0.3, 0.6, 0.4])]
        out = StackModel._augment(X, preds)
        assert out.shape == (4, 3 + 2 + 1)
        assert np.array_equal(out[:, -1], [1.0, 0.0, 1.0, 0.0])

    def test_layers_hold_the_trio(self):
        Xtr, _, ytr, _ = _nonlinear_data(150)
        stack = StackModel(n_estimators=3, n_splits=3).fit(Xtr, ytr)
        assert [[type(m) for m in layer] for layer in stack._layer_models] == [
            [GradientBoostingClassifier, XGBoostClassifier, LightGBMClassifier]
        ] * 2
        assert isinstance(stack._final_model, GradientBoostingClassifier)
        # Each layer appends three probabilities and their majority vote.
        assert stack._final_model._flat.n_features == Xtr.shape[1] + 2 * 4

    def test_single_class_labels_rejected(self):
        stack = StackModel(n_estimators=5, random_state=0)
        with pytest.raises(TrainingError):
            stack.fit(np.zeros((10, 2)), np.ones(10))

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            StackModel(n_estimators=5).predict_proba(np.zeros((1, 4)))
