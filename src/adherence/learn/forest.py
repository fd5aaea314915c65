"""Random forest of CART trees with impurity-based feature importance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from . import _split
from .base import Model
from .tree import TreeConfig, grow_tree


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 200
    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_split: int | None = None  # None = round(sqrt(d)) rule
    bootstrap: bool = True
    seed: int = 0


class RandomForest(Model):
    kind = "forest"

    def __init__(self, cfg: ForestConfig = ForestConfig()):
        super().__init__()
        if cfg.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.cfg = cfg
        self.trees_: list = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, d = X.shape
        if n < 2:
            raise ValueError("forest fitting needs at least 2 rows")
        m = self.cfg.features_per_split
        if m is None:
            m = max(1, round(math.sqrt(d)))
        tree_cfg = TreeConfig(
            max_depth=self.cfg.max_depth,
            min_samples_split=self.cfg.min_samples_split,
            max_features=min(m, d),
        )
        codes = _split.column_codes(X)
        self.trees_ = []
        for t in range(self.cfg.n_trees):
            rng = rngmod.substream(self.cfg.seed, "forest-tree", t)
            idx = rng.integers(0, n, size=n) if self.cfg.bootstrap else np.arange(n)
            self.trees_.append(grow_tree(X, y, idx, tree_cfg, rng, codes))

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = np.zeros(X.shape[0])
        for tree in self.trees_:
            p1 += tree.predict(X)
        p1 /= len(self.trees_)
        return np.column_stack([1.0 - p1, p1])

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


def forest_importance(model: RandomForest) -> np.ndarray:
    return model.feature_importances()
