"""Machine-learning substrate, implemented from scratch on numpy.

The paper's classification module (§4.2) stacks three boosted-tree learners
— GBDT, XGBoost, and LightGBM — in the two-layer architecture of Li et al.
(2019), and the FreePhish pipeline also uses a Random Forest. This package
provides those learners:

* :mod:`repro.ml.tree` — the tree node and reference walk every ensemble
  shares, and CART regression/classification trees;
* :mod:`repro.ml.boosting` — classic gradient-boosted trees (GBDT), and
  ``BoostedTrees``, the predict surface all three boosters share;
* :mod:`repro.ml.xgb` — second-order, regularized boosting (XGBoost-style);
* :mod:`repro.ml.lgbm` — histogram-binned, leaf-wise boosting (LightGBM-style);
* :mod:`repro.ml.forest` — random forests;
* :mod:`repro.ml.stacking` — the two-layer StackModel;
* :mod:`repro.ml.flat` — flattened, vectorized batch inference over any of
  the tree ensembles above (bit-identical to the per-row reference walks).
  Every ensemble compiles its :class:`FlatForest` at the end of ``fit``,
  and ``FlatForest.accumulate`` (boosters) and ``FlatForest.vote``
  (forests) are the only code that sums tree outputs;
* :mod:`repro.ml.metrics`, :mod:`repro.ml.crossval` — evaluation utilities.
"""

from .tree import DecisionTreeRegressor, DecisionTreeClassifier
from .flat import FlatForest
from .boosting import GradientBoostingClassifier
from .xgb import XGBoostClassifier
from .lgbm import LightGBMClassifier
from .forest import RandomForestClassifier
from .stacking import StackModel
from .metrics import (
    accuracy_score,
    precision_score,
    recall_score,
    f1_score,
    confusion_matrix,
    classification_summary,
)
from .crossval import train_test_split, kfold_indices, cross_val_predict
from .importance import FeatureImportance, permutation_importance

__all__ = [
    "DecisionTreeRegressor",
    "DecisionTreeClassifier",
    "FlatForest",
    "GradientBoostingClassifier",
    "XGBoostClassifier",
    "LightGBMClassifier",
    "RandomForestClassifier",
    "StackModel",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "confusion_matrix",
    "classification_summary",
    "train_test_split",
    "kfold_indices",
    "cross_val_predict",
    "FeatureImportance",
    "permutation_importance",
]
