"""Minority-class oversampling: random duplication, SMOTE, and ADASYN.

All three methods leave majority rows untouched, append synthetic rows after
the originals in generation order, and are deterministic for a fixed seed.
Distances assume an already imputed and scaled feature matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import TabularDataset
from .learn.knn import nearest
from .rng import substream

METHODS = ("random", "smote", "adasyn")


@dataclass(frozen=True)
class ResampleConfig:
    method: str
    k_neighbors: int = 5
    seed: int = 0
    target_ratio: float = 1.0  # desired minority/majority count ratio

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown resampling method {self.method!r}; expected one of {METHODS}")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must lie in (0, 1]")


def _minority(ds: TabularDataset, cfg: ResampleConfig) -> tuple[int, np.ndarray, int]:
    """(minority label, its row indices, synthetic rows needed); label 0 counts as minority when balanced.

    SMOTE and ADASYN interpolate between minority rows, so they need two of
    them whenever any row is to be made.
    """
    y = ds.labels()
    labels, counts = np.unique(y, return_counts=True)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary {0, 1}")
    if labels.size < 2:
        raise ValueError("oversampling requires both classes to be present")
    mi = int(np.argmin(counts))
    need = max(0, int(round(cfg.target_ratio * int(counts[1 - mi]))) - int(counts[mi]))
    if need and cfg.method != "random" and counts[mi] < 2:
        raise ValueError(f"{cfg.method.upper()} needs at least 2 minority rows")
    return int(labels[mi]), np.flatnonzero(y == labels[mi]), need


def oversample(ds: TabularDataset, cfg: ResampleConfig) -> TabularDataset:
    """ds with cfg.method's synthetic minority rows appended.

    random copies uniformly drawn minority rows. SMOTE draws its base rows
    uniformly and ADASYN takes base row i adasyn_allocation()[i] times; both
    then move each base row a uniform fraction of the way toward one of its k
    nearest minority neighbours.
    """
    minority, min_idx, need = _minority(ds, cfg)
    if need == 0:
        return TabularDataset(ds.variant, list(ds.column_names), ds.X.copy(), ds.labels().copy())
    rng = substream(cfg.seed, "resample", cfg.method)
    if cfg.method == "adasyn":
        base = np.repeat(np.arange(min_idx.size), adasyn_allocation(ds, cfg))
    else:
        base = rng.integers(0, min_idx.size, size=need)
    X_min = ds.X[min_idx]
    if cfg.method == "random":
        X_new = X_min[base]
    else:
        k = min(cfg.k_neighbors, min_idx.size - 1)
        nn = nearest(X_min, X_min, k, exclude=np.arange(min_idx.size))
        pick = rng.integers(0, k, size=need)
        lam = rng.random(size=need)
        X_new = X_min[base] + lam[:, None] * (X_min[nn[base, pick]] - X_min[base])
    y = np.concatenate([ds.labels(), np.full(need, minority, dtype=np.int64)])
    return TabularDataset(ds.variant, list(ds.column_names), np.vstack([ds.X, X_new]), y)


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation summing exactly to total; ties go to lower indices."""
    base = np.floor(quotas).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        remainder = quotas - base
        order = np.lexsort((np.arange(quotas.size), -remainder))
        base[order[:short]] += 1
    return base


def adasyn_allocation(ds: TabularDataset, cfg: ResampleConfig) -> np.ndarray:
    """Synthetic rows per minority row, in proportion to its hardness."""
    minority, min_idx, need = _minority(ds, cfg)
    # Hardness r_i: majority share among the k nearest neighbors in the full set.
    k_full = min(cfg.k_neighbors, ds.n_rows - 1)
    nn_full = nearest(ds.X[min_idx], ds.X, k_full, exclude=min_idx)
    r = (ds.labels()[nn_full] != minority).sum(axis=1).astype(np.float64) / k_full
    if r.sum() > 0:
        quotas = need * r / r.sum()
    else:
        quotas = np.full(min_idx.size, need / min_idx.size)  # uniform fallback
    return _largest_remainder(quotas, need)
