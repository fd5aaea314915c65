"""Gradient-boosted trees on logistic loss with second-order split statistics.

Each round fits a regression tree to the gradient/hessian of the logistic
loss. Split gain and leaf weights follow the regularized second-order form:
leaf weight w = -G/(H + lambda), gain = half the sum of children's G^2/(H+lambda)
minus the parent's. A split is kept only when its gain is positive and both
children satisfy the minimum hessian mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Model
from ..features import ColumnCodes
from .tree import _Tree, grow


@dataclass(frozen=True)
class GbtConfig:
    n_rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 10
    l2_lambda: float = 1.0
    min_child_weight: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if not self.l2_lambda >= 0:
            raise ValueError("l2_lambda must be >= 0")
        if not self.min_child_weight >= 0:
            raise ValueError("min_child_weight must be >= 0")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")


@dataclass(frozen=True)
class _SecondOrder:
    """Boosting: stats are (count, g, h); a split's gain is its score alone."""

    cfg: GbtConfig
    eps: float = 1e-12  # "positive" gain: above float rounding of a zero gain

    def totals(self, node, stats, n):  # each node's sums, added pairwise over its samples as np.sum adds
        ends = np.searchsorted(node, np.arange(1, n))
        return [np.array([part.sum() for part in np.split(s, ends)]) for s in stats]

    def splittable(self, tot, depth):
        return (tot[0] >= 2) & (depth < self.cfg.max_depth)

    def base(self, tot):
        return 0.0

    def score(self, left, tot):
        _, GL, HL = left
        _, G, H = tot
        l2 = self.cfg.l2_lambda
        mcw = self.cfg.min_child_weight
        GR = G - GL
        HR = H - HL
        valid = (HL >= mcw) & (HR >= mcw) & (HL + l2 > 0) & (HR + l2 > 0)
        G, H, GL, HL, GR, HR = (a[valid] for a in (G, H, GL, HL, GR, HR))
        out = np.full(valid.size, -np.inf)
        out[valid] = 0.5 * (GL**2 / (HL + l2) + GR**2 / (HR + l2) - G * G / (H + l2))  # H > 0 where valid
        return out

    def value(self, tot):
        denom = tot[2] + self.cfg.l2_lambda
        return np.divide(-tot[1], denom, out=np.zeros_like(denom), where=denom > 0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_loss(F: np.ndarray, y: np.ndarray) -> float:
    # y*softplus(-F) + (1-y)*softplus(F), stable via logaddexp
    return float(np.mean(y * np.logaddexp(0.0, -F) + (1.0 - y) * np.logaddexp(0.0, F)))


class GradientBoostedTrees(Model):
    kind = "gbt"
    Config = GbtConfig
    trees_: list[_Tree]
    train_losses_: list[float]  # loss before round 1, then per round

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if np.unique(y).size < 2:
            raise ValueError("boosting requires both classes in the training data")
        n = X.shape[0]
        bins = ColumnCodes(X)
        rule = _SecondOrder(self.cfg)
        rows = np.arange(n)
        root = np.zeros(n, dtype=np.int64)
        y_f = y.astype(np.float64)
        F = np.zeros(n)
        self.trees_ = []
        self.train_losses_ = [_logistic_loss(F, y_f)]
        for _ in range(self.cfg.n_rounds):
            p = _sigmoid(F)  # the loss's gradient is p - y, its hessian p (1 - p)
            (tree,) = grow(X, bins, rows, root, [np.ones(n), p - y_f, p * (1.0 - p)], 1, rule)
            self.trees_.append(tree)
            F += self.cfg.learning_rate * tree.predict(X)
            self.train_losses_.append(_logistic_loss(F, y_f))

    def _p1(self, X: np.ndarray) -> np.ndarray:
        F = np.zeros(X.shape[0])
        for tree in self.trees_:
            F += self.cfg.learning_rate * tree.predict(X)
        return _sigmoid(F)
