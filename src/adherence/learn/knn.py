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
    that query i may not pick (its own row in a self-search). Chunked over the
    queries only, so each (chunk, n_pool, d) broadcast holds about 2 MB.
    """
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    chunk = max(1, int(250_000 / max(1, pool.shape[0] * pool.shape[1])))
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

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


class KnnClassifier(Model):
    kind = "knn"
    Config = KnnConfig
    X_: np.ndarray
    y_: np.ndarray

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.cfg.k > X.shape[0]:
            raise ValueError(f"k={self.cfg.k} exceeds the {X.shape[0]} training rows")
        self.X_ = X.copy()
        self.y_ = y.copy()

    def _p1(self, X: np.ndarray) -> np.ndarray:
        return self.y_[nearest(X, self.X_, self.cfg.k)].mean(axis=1)
