"""k-nearest-neighbors classifier, exact brute-force Euclidean distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Model


def nearest(queries: np.ndarray, pool: np.ndarray, k: int, exclude: np.ndarray | None = None) -> np.ndarray:
    """(n_queries, k) indices of each query's k nearest pool rows.

    Differences are computed directly (not the expanded dot-product form) so
    equal points give exactly equal distances; stable argsort then breaks
    remaining ties by pool-row index. ``exclude[i]``, when given, is a pool row
    that query i may not pick (its own row in a self-search). Chunked to bound
    the (chunk, n_pool, d) broadcast.
    """
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    chunk = max(1, int(4_000_000 / max(1, pool.shape[0] * pool.shape[1])))
    for lo in range(0, queries.shape[0], chunk):
        hi = min(lo + chunk, queries.shape[0])
        diff = queries[lo:hi, None, :] - pool[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        if exclude is not None:
            d2[np.arange(hi - lo), exclude[lo:hi]] = np.inf
        out[lo:hi] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


@dataclass(frozen=True)
class KnnConfig:
    k: int = 30


class KnnClassifier(Model):
    kind = "knn"

    def __init__(self, cfg: KnnConfig = KnnConfig()):
        super().__init__()
        if cfg.k < 1:
            raise ValueError("k must be >= 1")
        self.cfg = cfg
        self.X_: np.ndarray | None = None
        self.y_: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.cfg.k > X.shape[0]:
            raise ValueError(f"k={self.cfg.k} exceeds the {X.shape[0]} training rows")
        self.X_ = X.copy()
        self.y_ = y.copy()

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = self.y_[nearest(X, self.X_, self.cfg.k)].mean(axis=1)
        return np.column_stack([1.0 - p1, p1])
