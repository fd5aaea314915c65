"""k-nearest-neighbors classifier, exact brute-force Euclidean distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Model

_TEMP_FLOATS = 125_000  # float64 elements in one temporary of the neighbour search


def nearest(queries: np.ndarray, pool: np.ndarray, k: int, exclude: np.ndarray | None = None) -> np.ndarray:
    """(n_queries, k) indices of each query's k nearest pool rows.

    The answer is defined by direct distances, sum((q - p) ** 2), so equal
    points give exactly equal distances, ordered by (distance, pool row):
    ties go to the lowest row. ``exclude[i]``, when given, is a pool row that
    query i may not pick (its own row in a self-search); its distance is inf.

    For a block of queries, one matrix product estimates every distance as
    e = |q|^2 + |p|^2 - 2 q.p. By the dot-product rounding bound (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1) e and the direct
    distance d differ by at most b = (d_cols + 4) eps (|q| + max|p|)^2, plus
    the smallest normal float for underflow, in any summation order. With e_k
    the query's k-th smallest estimate, d_k <= e_k + b; so every row with
    d <= d_k has e <= d + b <= e_k + 2b and is a candidate. The candidates'
    distances are recomputed in the direct form, and a stable sort over them,
    in ascending row order, keeps the first k: the rows a direct sort of all
    rows picks. No output distance comes from BLAS, so the result is the same
    at any BLAS thread count. A row with a NaN estimate is a candidate, and
    so is every row when overflow makes the limit inf or NaN: at worst the
    search costs what the direct search does, and it stays exact.

    Queries go in blocks whose (block, n_pool) temporaries hold 125,000
    floats (1 MB); candidates are recomputed in slices of the same size.
    """
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    q_sq = np.einsum("ij,ij->i", queries, queries)
    p_sq = np.einsum("ij,ij->i", pool, pool)
    gamma = (pool.shape[1] + 4) * np.finfo(np.float64).eps
    p_max = np.sqrt(p_sq.max())
    block = max(1, _TEMP_FLOATS // pool.shape[0])
    step = max(1, _TEMP_FLOATS // pool.shape[1])
    for lo in range(0, queries.shape[0], block):
        hi = min(lo + block, queries.shape[0])
        est = queries[lo:hi] @ pool.T
        est *= -2.0
        est += q_sq[lo:hi, None]
        est += p_sq
        if exclude is not None:
            est[np.arange(hi - lo), exclude[lo:hi]] = np.inf
        bound = gamma * (np.sqrt(q_sq[lo:hi]) + p_max) ** 2 + np.finfo(np.float64).tiny
        limit = np.partition(est, k - 1, axis=1)[:, k - 1] + 2.0 * bound
        qi, pj = np.nonzero(~(est > limit[:, None]))  # not <=, so NaN is kept
        del est
        d2 = np.empty(qi.size)
        for s in range(0, qi.size, step):
            diff = queries[None, lo + qi[s:s + step]]
            diff -= pool[pj[s:s + step]]
            d2[s:s + step] = np.einsum("ijk,ijk->ij", diff, diff)[0]
        if exclude is not None:
            d2[pj == exclude[lo + qi]] = np.inf
        first = np.searchsorted(qi, np.arange(hi - lo))
        out[lo:hi] = pj[np.lexsort((d2, qi))[first[:, None] + np.arange(k)]]
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
