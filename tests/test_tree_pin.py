"""Pins the exact structure of fitted trees.

The digests below cover every tree's node arrays and leaf values for one small
seeded dataset. A change to split search, tie-breaks, RNG consumption or leaf
values changes them; a deliberate change must record new digests.
"""

import hashlib

import numpy as np
import pytest

from adherence.learn import (
    DecisionTree,
    ForestConfig,
    GbtConfig,
    GradientBoostedTrees,
    RandomForest,
    TreeConfig,
)

PINNED = {
    "tree": "3873ef207b2d3a6a1ae858c3bc24d93048993bfb24ffed6d898bd0f7acbc8703",
    # Re-recorded when trees began to grow level by level: each node now draws
    # its features_per_split features depth by depth (the smallest of d uniform
    # keys from its tree's stream), not in depth-first order by rng.choice.
    "forest": "3b1714a9765a5f24f1bc9d4111deed3449bb65cf2cb45c17f7db15a8955d9b88",
    "gbt": "26e3f542e55fa2fea584dfb4d9f2f27d12bf7718ac5b811d96d725490894cf46",
}


def _dataset():
    rng = np.random.default_rng(2024)
    n = 150
    X = np.column_stack(
        [
            rng.integers(0, 6, size=n).astype(float),  # small ints: their own bin codes
            rng.integers(0, 3, size=n).astype(float),
            rng.normal(size=n),  # continuous: rank codes
            rng.uniform(-1.0, 1.0, size=n).round(1),
        ]
    )
    logits = 0.6 * X[:, 0] - 1.0 * X[:, 1] + 1.5 * X[:, 2] + rng.normal(scale=1.0, size=n)
    return X, (logits > 1.0).astype(np.int64)


def _output(tree) -> np.ndarray:
    # Per-node output array; CART trees called it prob1 before the tree types merged.
    return tree.value if hasattr(tree, "value") else tree.prob1


def _digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        for a in (t.feature, t.left, t.right):
            h.update(np.asarray(a, dtype="<i8").tobytes())
        h.update(np.asarray(t.threshold, dtype="<f8").tobytes())
        h.update(np.asarray(_output(t)[t.feature < 0], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_tree_structure_pinned(kind):
    X, y = _dataset()
    if kind == "tree":
        trees = [DecisionTree(TreeConfig(seed=3)).fit(X, y).tree_]
    elif kind == "forest":
        trees = RandomForest(ForestConfig(n_trees=4, seed=5)).fit(X, y).trees_
    else:
        trees = GradientBoostedTrees(GbtConfig(n_rounds=4, max_depth=4, seed=7)).fit(X, y).trees_
    assert _digest(trees) == PINNED[kind]
