"""Exact ensemble outputs, pinned by hash.

Each case fits one estimator on a SeedBank-drawn problem and compares the
sha256 of ``predict_proba(Q).tobytes()`` with a recorded digest. A refactor
of tree growth, node storage or inference that changes any probability by
one ulp changes the digest. The flat-vs-reference checks in
``test_flat.py`` compare two paths of the same code; these compare the code
with its own past output.
"""

import hashlib

import numpy as np
import pytest

from repro.config import SeedBank
from repro.ml import (
    GradientBoostingClassifier,
    LightGBMClassifier,
    RandomForestClassifier,
    StackModel,
    XGBoostClassifier,
)

SEEDS = SeedBank(20231024)


def _problem(n=300, d=8):
    rng = SEEDS.fresh("pinned.train")
    X = rng.normal(size=(n, d))
    logits = 1.2 * X[:, 0] - X[:, 1] + 1.5 * (X[:, 2] > 0.2) + X[:, 3] * X[:, 4]
    y = (logits + rng.normal(scale=0.5, size=n) > 0).astype(int)
    Q = SEEDS.fresh("pinned.query").normal(size=(200, d))
    Q[SEEDS.fresh("pinned.nan").random(size=Q.shape) < 0.05] = np.nan
    return X, y, Q


PINNED = [
    ("gbdt", lambda: GradientBoostingClassifier(n_estimators=20),
     "7e5c0f89ea8a9cc4abeffcc2d631d22bbe1c0b9bf5d97377ce67a280770b3574"),
    ("xgb", lambda: XGBoostClassifier(n_estimators=20),
     "55500225d27f80ea43c5c8fa5507336ce59f6350b0dacf812b11484e0612aea1"),
    ("lgbm", lambda: LightGBMClassifier(n_estimators=20),
     "00ec34208cce3fe0007bf653ba55e4b1fc0f20fb4f682532e37fcccb6336f45e"),
    ("rf", lambda: RandomForestClassifier(n_estimators=20, random_state=3),
     "edadd29403a1a02ff88045a63335d8510dc5a21d4b88559ca961a85c454e856d"),
    ("stack", lambda: StackModel(n_estimators=5, n_splits=3, random_state=7),
     "8db424a81bd3b0cfea98fbe03bb87aa7e074434ca72a60871c23a0c7634c56f4"),
]


@pytest.mark.parametrize("name,factory,digest", PINNED, ids=[p[0] for p in PINNED])
def test_predict_proba_digest(name, factory, digest):
    X, y, Q = _problem()
    proba = factory().fit(X, y).predict_proba(Q)
    assert hashlib.sha256(proba.tobytes()).hexdigest() == digest
