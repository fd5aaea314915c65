"""Binary decision trees: one node type, grower and split search for CART,
the random forest and gradient-boosted trees, plus the greedy Gini CART."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from . import _split
from .base import Model


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_samples_split: int = 2
    max_features: int | None = None  # per-split feature subsample; None = all
    seed: int = 0


class _Tree:
    """Flat node arrays: feature < 0 marks leaves.

    value is the node's output: p(1) for Gini trees, the leaf weight for
    boosted trees. importance is the split gain per feature over the root size.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "importance")

    def __init__(self, feature, threshold, left, right, value, importance):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.importance = np.asarray(importance, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            active = np.flatnonzero(self.feature[node] >= 0)
            if active.size == 0:
                return self.value[node]
            cur = node[active]
            go_left = X[active, self.feature[cur]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])


def best_split(X, rows, feats, codes, stats, score, base, eps):
    """Best (gain, feature, threshold) over the candidates of feats, or None.

    score(n_left, left_sums) rates one feature's candidates; the highest wins,
    ties going to the lowest feature, then the lowest threshold. The winner is
    kept only if its gain, base + score, exceeds eps.
    """
    node_stats = [s[rows] for s in stats]
    best = None  # (score, feature, threshold)
    for f in feats:
        col_codes = codes[f]
        res = _split.scan(X[rows, f], node_stats, col_codes[rows] if col_codes is not None else None)
        if res is None:
            continue
        thresholds, n_left, sums = res
        s = score(n_left, sums)
        pos = int(np.argmax(s))
        if base + s[pos] > eps and (best is None or s[pos] > best[0]):
            best = (s[pos], int(f), float(thresholds[pos]))
    return None if best is None else (float(base + best[0]), best[1], best[2])


def grow(X, idx, stats, find_split, value) -> _Tree:
    """Grow one tree depth-first over the rows in idx (repeats allowed, e.g. bootstrap).

    A node's totals are the sums of the per-row stats over its rows.
    find_split(rows, depth, totals) gives the node's (gain, feature, threshold),
    or None to make it a leaf; value(n_rows, totals) gives its output.
    """
    n_root = idx.size
    feature, threshold, left, right, values = [], [], [], [], []
    importance = np.zeros(X.shape[1])
    stack = [(idx, 0, -1, False)]  # rows, depth, parent node, is_right_child
    while stack:
        rows, depth, parent, is_right = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            (right if is_right else left)[parent] = node_id
        totals = [float(s[rows].sum()) for s in stats]
        split = find_split(rows, depth, totals)
        left.append(-1)
        right.append(-1)
        values.append(value(rows.size, totals))
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            continue
        gain, f, thr = split
        importance[f] += gain / n_root
        feature.append(f)
        threshold.append(thr)
        go_left = X[rows, f] <= thr
        stack.append((rows[~go_left], depth + 1, node_id, True))
        stack.append((rows[go_left], depth + 1, node_id, False))
    return _Tree(feature, threshold, left, right, values, importance)


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    cfg: TreeConfig,
    rng: np.random.Generator | None,
    codes: list[np.ndarray | None],
) -> _Tree:
    """Grow one Gini tree over the rows in idx (repeats allowed, e.g. bootstrap).

    Candidates are scored by negated child impurity, so the highest score is
    the lowest impurity; rng samples max_features features per split.
    """
    n_features = X.shape[1]
    m = cfg.max_features if cfg.max_features is not None else n_features
    m = max(1, min(m, n_features))
    all_feats = np.arange(n_features)
    stats = [y.astype(np.float64)]
    # Spurious zero-gain splits from float rounding must not be accepted.
    eps = max(1e-9, 1e-10 * idx.size)

    def find_split(rows, depth, totals):
        n = rows.size
        (n1,) = totals
        if not (0.0 < n1 / n < 1.0 and n >= cfg.min_samples_split and (cfg.max_depth is None or depth < cfg.max_depth)):
            return None

        def neg_child_impurity(n_left, sums):
            (c1,) = sums
            n_right = n - n_left
            c1r = n1 - c1
            return -(
                n_left
                - (c1 * c1 + (n_left - c1) * (n_left - c1)) / n_left
                + n_right
                - (c1r * c1r + (n_right - c1r) * (n_right - c1r)) / n_right
            )

        # n * gini(node); counts are exact in float64
        parent = n - (n1 * n1 + (n - n1) * (n - n1)) / n
        if m < n_features:
            feats = np.sort(rng.choice(n_features, size=m, replace=False))
        else:
            feats = all_feats
        split = best_split(X, rows, feats, codes, stats, neg_child_impurity, parent, eps)
        if split is None and m < n_features:
            # None of the sampled features separates this node; fall back to
            # the full set so consistent data always ends in pure leaves.
            split = best_split(X, rows, all_feats, codes, stats, neg_child_impurity, parent, eps)
        return split

    return grow(X, idx, stats, find_split, lambda n, totals: totals[0] / n)


class DecisionTree(Model):
    """Single CART tree; leaves hold class-probability estimates."""

    kind = "tree"

    def __init__(self, cfg: TreeConfig = TreeConfig()):
        super().__init__()
        self.cfg = cfg
        self.tree_: _Tree | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        codes = _split.column_codes(X)
        rng = rngmod.substream(self.cfg.seed, "tree")
        self.tree_ = grow_tree(X, y, np.arange(X.shape[0]), self.cfg, rng, codes)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = self.tree_.predict(X)
        return np.column_stack([1.0 - p1, p1])

    @property
    def n_nodes(self) -> int:
        return self.tree_.n_nodes
