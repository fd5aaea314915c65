"""Binary decision trees: one node type and one level-wise grower for CART,
the random forest and gradient-boosted trees, plus the greedy Gini CART.

The grower splits every node of a depth at once, for several trees of a forest
together, from weighted bincounts over (node, feature, bin) per depth and a
cumsum over the bins: the histogram method of XGBoost (Chen & Guestrin, KDD
2016) and LightGBM (Ke et al., NeurIPS 2017). A bin is one slot of the column's
features.ColumnCodes, so thresholds stay exact midpoints between values present
in the node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from ..features import ColumnCodes
from .base import Model

# Cells of one histogram, and (sample, feature) pairs behind it, at most: the
# nodes of a depth are searched in chunks, and each chunk's features in blocks,
# unless one node's samples, or one feature's bins, alone exceed it.
_CELLS = 1 << 15


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_samples_split: int = 2
    max_features: int | None = None  # per-split feature subsample; None = all
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1")


class _Tree:
    """Flat node arrays in depth-first preorder, left child first: feature < 0 marks leaves.

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


def histograms(bins: ColumnCodes, rows, node, stats, feats):
    """Per (node, slot, cell): whether the cell's bin is present, each stat's prefix sum over the cells, and the bin.

    Sample i is row rows[i] in node node[i] < len(feats); slot s of node k is
    feature feats[k, s]. The cells are the bins or, where the nodes hold far fewer
    samples than bins, each slot's present bins and then empty cells.
    """
    c, m = feats.shape
    n_bins = bins.width
    first, last = feats[0, 0], feats[0, -1]
    if last - first == m - 1 and np.all(feats == feats[0]):  # one run of columns for every node
        key = bins.codes[first : last + 1].take(rows, axis=1)
    else:
        key = bins.codes[feats[node].T, rows]
    key = key + (np.arange(m) * n_bins)[:, None]  # as int64, whatever the type of the codes
    key += node * (m * n_bins)  # in place: one (m, samples) sum fewer
    key = key.ravel()
    code = np.broadcast_to(np.arange(n_bins), (c, m, n_bins))
    if rows.size < c * n_bins:
        present, key = np.unique(key, return_inverse=True)
        group = present // n_bins  # node * m + slot
        cell = np.arange(present.size) - np.searchsorted(group, group)
        code = np.zeros((c, m, cell.max() + 1), dtype=np.int64)
        cell += group * code.shape[2]
        code.ravel()[cell] = present % n_bins
        key = cell[key]
    left = [np.bincount(key, np.tile(s, m), code.size).reshape(code.shape) for s in stats]
    present = left[0] > 0
    for h in left:
        np.cumsum(h, axis=2, out=h)
    return present, left, code


@dataclass(frozen=True)
class _Gini:
    """CART: stats are (weight, weighted positives); the best split has the lowest child impurity."""

    cfg: TreeConfig
    eps: float  # a split's least gain: float rounding must not pass a zero gain

    def totals(self, node, stats, n):  # weighted counts: exact in any order
        return [np.bincount(node, s, n) for s in stats]

    def splittable(self, tot, depth):
        n, n1 = tot
        deep = self.cfg.max_depth is not None and depth >= self.cfg.max_depth
        return (0.0 < n1 / n) & (n1 / n < 1.0) & (n >= self.cfg.min_samples_split) & (not deep)

    def base(self, tot):  # n * gini(node); counts are exact in float64
        n, n1 = tot
        return n - (n1 * n1 + (n - n1) * (n - n1)) / n

    def score(self, left, tot):  # negated child impurity
        n_left, c1 = left
        n, n1 = tot
        n_right = n - n_left
        c1r = n1 - c1
        return -(n_left - (c1 * c1 + (n_left - c1) * (n_left - c1)) / n_left
                 + n_right - (c1r * c1r + (n_right - c1r) * (n_right - c1r)) / n_right)

    def value(self, tot):
        return tot[1] / tot[0]


def _split_nodes(bins, rows, node, stats, tot, nodes, feats, rule, found) -> None:
    """Search the nodes (sorted ids of one depth) over their features; put each kept split in found.

    Per node the highest rule.score wins, ties going to the lowest feature, then
    the lowest threshold. It is kept only if its gain, rule.base + score, exceeds
    rule.eps. Chunks of nodes, and blocks of each chunk's slots, bound the
    histograms to _CELLS.
    """
    pos = np.full(found[0].size, -1)
    pos[nodes] = np.arange(nodes.size)
    mine = np.flatnonzero(pos[node] >= 0)
    start = np.searchsorted(pos[node[mine]], np.arange(nodes.size + 1))
    m = feats.shape[1]
    n_bins = bins.width
    chunks = min(nodes.size, -(-max(nodes.size * n_bins, mine.size) * m // _CELLS))
    bounds = np.linspace(0, nodes.size, chunks + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        i = mine[start[lo] : start[hi]]
        ids = nodes[lo:hi]
        ntot = [t[ids] for t in tot]
        chunk = (rows[i], pos[node[i]] - lo, [s[i] for s in stats], ntot)
        best = (np.full(ids.size, -np.inf), np.full(ids.size, -1), np.zeros(ids.size))  # score, feature, threshold
        width = max(1, _CELLS // max(ids.size * n_bins, i.size))
        for s0 in range(0, m, width):
            found_here = _best_splits(bins, *chunk, feats[lo:hi, s0 : s0 + width], rule)
            better = found_here[0] > best[0]  # strictly: earlier blocks hold the lower features
            for out, val in zip(best, found_here):
                out[better] = val[better]
        gain = rule.base(ntot) + best[0]
        keep = gain > rule.eps
        for out, val in zip(found, (best[1], best[2], gain)):
            out[ids[keep]] = val[keep]


def _best_splits(bins, rows, node, stats, tot, feats, rule):
    """Per node k: the best (score, feature, threshold) over the features feats[k]; score -inf if none."""
    present, left, code = histograms(bins, rows, node, stats, feats)
    c, m, width = code.shape
    at = np.flatnonzero(present & (left[0] < tot[0][:, None, None]))  # a present bin, not the last
    k = at // (m * width)
    score = np.full((c, m * width), -np.inf)
    score.ravel()[at] = rule.score([s.ravel()[at] for s in left], [t[k] for t in tot])
    r = np.arange(c)
    best = score.argmax(axis=1)
    slot, b = np.divmod(best, width)
    nxt = (present[r, slot] & (np.arange(width) > b[:, None])).argmax(axis=1)  # next present bin
    f = feats[r, slot]
    at = bins.start[f]
    threshold = (bins.values[at + code[r, slot, b]] + bins.values[at + code[r, slot, nxt]]) / 2.0
    return score[r, best], f, threshold


def grow(X, bins, rows, tree, stats, n_trees, rule, draw=None) -> list[_Tree]:
    """Grow n_trees trees together, depth by depth, over weighted samples.

    Sample i is row rows[i] of tree tree[i], in order of tree, then row.
    stats[0] holds the sample weights and the rest what rule scores; per node
    rule.totals sums them, rule.splittable(totals, depth) tells whether it may
    split and rule.value gives its output. draw(trees), if given, gives the
    sorted features each node of those trees may use; a node they do not split
    tries all features.
    """
    d = X.shape[1]
    n_root = np.bincount(tree, stats[0], n_trees)
    node = tree
    level_tree = np.arange(n_trees)
    levels = []
    while level_tree.size:
        n = level_tree.size
        tot = rule.totals(node, stats, n)
        found = (np.full(n, -1), np.zeros(n), np.zeros(n))  # feature, threshold, gain
        cand = np.flatnonzero(rule.splittable(tot, len(levels)))
        if draw is not None and cand.size:
            _split_nodes(bins, rows, node, stats, tot, cand, draw(level_tree[cand]), rule, found)
            cand = cand[found[0][cand] < 0]
        _split_nodes(bins, rows, node, stats, tot, cand, np.broadcast_to(np.arange(d), (cand.size, d)), rule, found)
        levels.append((level_tree, rule.value(tot), *found))
        split = found[0] >= 0
        keep = np.flatnonzero(split[node])  # the samples of split nodes go on, each to its child
        parent = node[keep]
        child = 2 * (np.cumsum(split) - 1)[parent] + (X[rows[keep], found[0][parent]] > found[1][parent])
        order = keep[np.argsort(child, kind="stable")]
        rows = rows[order]
        node = np.sort(child)
        stats = [s[order] for s in stats]
        level_tree = np.repeat(level_tree[split], 2)
    return _preorder(levels, n_root, d)


def _preorder(levels, n_root, d) -> list[_Tree]:
    """The trees of a level-wise growth, each renumbered depth-first, left child first."""
    tree, value, feature, threshold, gain = (np.concatenate(a) for a in zip(*levels))
    offset = np.cumsum([0] + [lv[0].size for lv in levels])
    inner = [o + np.flatnonzero(lv[2] >= 0) for o, lv in zip(offset, levels)]
    left = np.full(tree.size, -1)
    for o, ids in zip(offset[1:], inner):
        left[ids] = o + 2 * np.arange(ids.size)  # the right child is left + 1
    size = np.ones(tree.size, dtype=np.int64)  # of each subtree
    for ids in reversed(inner):
        size[ids] += size[left[ids]] + size[left[ids] + 1]
    pre = np.zeros(tree.size, dtype=np.int64)
    for ids in inner:
        pre[left[ids]] = pre[ids] + 1
        pre[left[ids] + 1] = pre[ids] + 1 + size[left[ids]]
    pre_left = np.where(left >= 0, pre[left], -1)
    pre_right = np.where(left >= 0, pre[left + 1], -1)
    trees = []
    for t, o in enumerate(np.split(np.lexsort((pre, tree)), np.cumsum(np.bincount(tree))[:-1])):
        split = feature[o] >= 0
        importance = np.bincount(feature[o][split], gain[o][split] / n_root[t], d)  # summed in preorder
        trees.append(_Tree(feature[o], threshold[o], pre_left[o], pre_right[o], value[o], importance))
    return trees


def grow_gini(X: np.ndarray, bins: ColumnCodes, y: np.ndarray, weights: np.ndarray, cfg: TreeConfig,
              rngs) -> list[_Tree]:
    """One Gini tree per row of weights (a bootstrap's counts, or ones), grown together.

    Each node of tree t draws max_features features from rngs[t], depth by
    depth: the ones with the smallest of d uniform keys.
    """
    d = X.shape[1]
    m = min(cfg.max_features or d, d)
    tree, rows = np.nonzero(weights)
    w = weights[tree, rows].astype(np.float64)

    def draw(trees):
        keys = [rngs[t].random((k, d)) for t, k in zip(*np.unique(trees, return_counts=True))]
        return np.sort(np.argsort(np.concatenate(keys), axis=1)[:, :m], axis=1)

    rule = _Gini(cfg, max(1e-9, 1e-10 * X.shape[0]))
    return grow(X, bins, rows, tree, [w, w * y[rows]], len(weights), rule, draw if m < d else None)


class DecisionTree(Model):
    """Single CART tree; leaves hold class-probability estimates."""

    kind = "tree"
    Config = TreeConfig
    tree_: _Tree

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = rngmod.substream(self.cfg.seed, "tree")
        (self.tree_,) = grow_gini(X, ColumnCodes(X), y, np.ones((1, X.shape[0])), self.cfg, [rng])

    def _p1(self, X: np.ndarray) -> np.ndarray:
        return self.tree_.predict(X)

    @property
    def n_nodes(self) -> int:
        return self.tree_.n_nodes
