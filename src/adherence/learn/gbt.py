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

from . import _split
from .base import Model
from .tree import _Tree, best_split, grow

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class GbtConfig:
    n_rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 10
    l2_lambda: float = 1.0
    min_child_weight: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.min_child_weight < 0:
            raise ValueError("min_child_weight must be >= 0")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")


def _leaf_weight(G: float, H: float, l2: float) -> float:
    denom = H + l2
    return 0.0 if denom <= 0 else -G / denom


def _round_tree(X, g, h, cfg, codes) -> _Tree:
    """One round's regression tree: second-order gain and leaf weights."""
    l2 = cfg.l2_lambda
    feats = np.arange(X.shape[1])

    def find_split(rows, depth, totals):
        if depth >= cfg.max_depth or rows.size < 2:
            return None
        G, H = totals
        parent_score = G * G / (H + l2) if H + l2 > 0 else 0.0

        def gain(n_left, sums):
            GL, HL = sums
            GR = G - GL
            HR = H - HL
            valid = (HL >= cfg.min_child_weight) & (HR >= cfg.min_child_weight) & (HL + l2 > 0) & (HR + l2 > 0)
            out = np.full(GL.size, -np.inf)
            out[valid] = 0.5 * (GL[valid] ** 2 / (HL[valid] + l2) + GR[valid] ** 2 / (HR[valid] + l2) - parent_score)
            return out

        return best_split(X, rows, feats, codes, [g, h], gain, 0.0, _GAIN_EPS)

    return grow(X, np.arange(X.shape[0]), [g, h], find_split, lambda n, totals: _leaf_weight(*totals, l2))


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

    def __init__(self, cfg: GbtConfig = GbtConfig()):
        super().__init__()
        self.cfg = cfg
        self.trees_: list[_Tree] = []
        self.train_losses_: list[float] = []  # loss before round 1, then per round

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if np.unique(y).size < 2:
            raise ValueError("boosting requires both classes in the training data")
        codes = _split.column_codes(X)
        y_f = y.astype(np.float64)
        F = np.zeros(X.shape[0])
        self.trees_ = []
        self.train_losses_ = [_logistic_loss(F, y_f)]
        for _ in range(self.cfg.n_rounds):
            p = _sigmoid(F)
            g = p - y_f
            h = p * (1.0 - p)
            tree = _round_tree(X, g, h, self.cfg, codes)
            self.trees_.append(tree)
            F += self.cfg.learning_rate * tree.predict(X)
            self.train_losses_.append(_logistic_loss(F, y_f))

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        F = np.zeros(X.shape[0])
        for tree in self.trees_:
            F += self.cfg.learning_rate * tree.predict(X)
        p1 = _sigmoid(F)
        return np.column_stack([1.0 - p1, p1])
