"""Random forest of CART trees with impurity-based feature importance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from .base import Model
from ..features import ColumnCodes
from .tree import TreeConfig, _Tree, grow_gini

# Bootstrap draws (n per tree) grown together, at most; a tree of more rows grows
# alone. A batch shares each depth's histograms, and the per-sample arrays of a
# fit stay bounded at any n_trees.
_SAMPLES = 1 << 15


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 200
    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_split: int | None = None  # None = round(sqrt(d)) rule
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")


class RandomForest(Model):
    kind = "forest"
    Config = ForestConfig
    trees_: list[_Tree]

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, d = X.shape
        if n < 2:
            raise ValueError("forest fitting needs at least 2 rows")
        tree_cfg = TreeConfig(
            max_depth=self.cfg.max_depth,
            min_samples_split=self.cfg.min_samples_split,
            max_features=self.cfg.features_per_split or round(math.sqrt(d)),
        )
        bins = ColumnCodes(X)
        per_batch = max(1, _SAMPLES // n)
        self.trees_ = []
        for first in range(0, self.cfg.n_trees, per_batch):
            last = min(first + per_batch, self.cfg.n_trees)
            rngs = [rngmod.substream(self.cfg.seed, "forest-tree", t) for t in range(first, last)]
            weights = np.array([np.bincount(rng.integers(0, n, size=n), minlength=n) if self.cfg.bootstrap
                                else np.ones(n, dtype=np.int64) for rng in rngs])
            self.trees_ += grow_gini(X, bins, y, weights, tree_cfg, rngs)

    def _p1(self, X: np.ndarray) -> np.ndarray:
        p1 = np.zeros(X.shape[0])
        for tree in self.trees_:
            p1 += tree.predict(X)
        return p1 / len(self.trees_)

    def feature_importances(self) -> np.ndarray:
        """Mean decrease in Gini impurity per feature, normalized to sum 1."""
        if not self.is_fitted:
            raise ValueError("forest is not fitted")
        acc = np.zeros(self.n_features_)
        contributing = 0
        for tree in self.trees_:
            total = tree.importance.sum()
            if total > 0:
                acc += tree.importance / total
                contributing += 1
        if contributing == 0:
            raise ValueError("importance undefined: no tree performed any split")
        acc /= contributing
        return acc / acc.sum()
