"""Pins MLP weights, k-NN probabilities and CV folds bit for bit.

Each digest was recorded before the models shared one contract in
``learn.base.Model``; a change to training order, the Adam update, neighbour
tie-breaks or fold assignment changes them. A deliberate change must record
new digests.
"""

import hashlib

import numpy as np
import pytest

from adherence.evaluate import kfold_split
from adherence.learn import KnnClassifier, KnnConfig, MlpClassifier, MlpConfig

# (weights and biases digest, best_epoch_); the float64 net stops early and restores epoch 15.
MLP_PINNED = {
    "float64-early": ("21ec5df13b29274e0bf339a99287e9588e2a419169321def37cb69e14e1eafc7", 15),
    "float32": ("dbbfb6661a58ca7ff9591a7b5395610761e8fc10066c706f8260707850976de4", None),
}
KNN_PINNED = {
    1: "679188fc68d9cb8096cff47e65ddb8bb1cdae1e7a8e76d0de6eb38d930028626",
    5: "1d75b09838d0071ff75f3f6aece060522013820ad0f4f9f87d2affd25180db14",
    30: "a02296d4e98fccab916aee550e18fe95ec4f7896bc118ef44f34f8ed404144bd",
}
FOLD_PINNED = {
    "plain": "6cf2146aeae8d47b27b7b15b4a888bfd6b6eee6aa5eb0f8d67b14d1bea8a1442",
    "stratified": "7b333e20dbe7349d48f0c1c2b30d622eae6ba45885250cf93b15c5faaaa1fd4f",
    "fallback": "3f4f25814adac99497046d1913f3aecca426db867ee599c5bb10af887e0b63de",
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode() + a.tobytes())
    return h.hexdigest()


def _mlp_data():
    rng = np.random.default_rng(91)
    X = rng.normal(size=(120, 5))
    y = (X[:, 0] - 0.5 * X[:, 3] + rng.normal(scale=0.8, size=120) > 0).astype(np.int64)
    return X, y


MLP_CONFIGS = {
    "float64-early": MlpConfig(hidden_layers=(16, 8), batch_size=16, max_epochs=60, val_fraction=0.2,
                               patience=3, learning_rate=0.003, seed=5),
    "float32": MlpConfig(hidden_layers=(12,), batch_size=32, max_epochs=6, val_fraction=0.0, seed=6,
                         dtype="float32"),
}


@pytest.mark.parametrize("name", sorted(MLP_PINNED))
def test_mlp_weights_pinned(name):
    X, y = _mlp_data()
    model = MlpClassifier(MLP_CONFIGS[name]).fit(X, y)
    digest, best_epoch = MLP_PINNED[name]
    assert (_sha(*model.weights_, *model.biases_), model.best_epoch_) == (digest, best_epoch)


@pytest.mark.parametrize("k", sorted(KNN_PINNED))
def test_knn_proba_pinned(k):
    # Integer-grid rows: many queries sit at tied distances from several rows.
    rng = np.random.default_rng(92)
    X = rng.integers(0, 4, size=(80, 3)).astype(float)
    y = rng.integers(0, 2, size=80)
    queries = rng.integers(0, 4, size=(50, 3)).astype(float)
    proba = KnnClassifier(KnnConfig(k=k)).fit(X, y).predict_proba(queries)
    assert _sha(proba[:, 1]) == KNN_PINNED[k]


def _fold_cases():
    rng = np.random.default_rng(93)
    labels = (rng.random(97) < 0.3).astype(np.int64)
    rare = np.zeros(41, dtype=np.int64)
    rare[[3, 17, 30]] = 1  # three positives, fewer than k
    return {
        "plain": dict(n=53, k=7, labels=None, seed=4),
        "stratified": dict(n=97, k=10, labels=labels, seed=5),
        "fallback": dict(n=41, k=5, labels=rare, seed=6),
    }


@pytest.mark.filterwarnings("ignore:a class has fewer")
@pytest.mark.parametrize("case", sorted(FOLD_PINNED))
def test_kfold_split_pinned(case):
    folds = kfold_split(**_fold_cases()[case])
    assert _sha(*folds) == FOLD_PINNED[case]
