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


def oversample(ds: TabularDataset, cfg: ResampleConfig) -> TabularDataset:
    """Dispatch to the configured method."""
    if cfg.method == "random":
        return random_oversample(ds, cfg)
    if cfg.method == "smote":
        return smote(ds, cfg)
    return adasyn(ds, cfg)


def _class_split(y: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray] | None:
    """(minority_label, majority_label, minority_idx, majority_idx); None if balanced."""
    labels, counts = np.unique(y, return_counts=True)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary {0, 1}")
    if labels.size < 2:
        raise ValueError("oversampling requires both classes to be present")
    if counts[0] == counts[1]:
        return None
    mi = int(np.argmin(counts))
    minority, majority = int(labels[mi]), int(labels[1 - mi])
    return minority, majority, np.flatnonzero(y == minority), np.flatnonzero(y == majority)


def _n_needed(n_min: int, n_maj: int, ratio: float) -> int:
    return max(0, int(round(ratio * n_maj)) - n_min)


def _append(ds: TabularDataset, X_new: np.ndarray, label: int) -> TabularDataset:
    if X_new.shape[0] == 0:
        return TabularDataset(ds.variant, list(ds.column_names), ds.X.copy(), ds.labels().copy())
    X = np.vstack([ds.X, X_new])
    y = np.concatenate([ds.labels(), np.full(X_new.shape[0], label, dtype=np.int64)])
    return TabularDataset(ds.variant, list(ds.column_names), X, y)


def random_oversample(ds: TabularDataset, cfg: ResampleConfig) -> TabularDataset:
    """Duplicate seeded random minority rows until the target ratio is met."""
    split = _class_split(ds.labels())
    if split is None:
        return _append(ds, np.empty((0, ds.n_cols)), 0)
    minority, _, min_idx, maj_idx = split
    need = _n_needed(min_idx.size, maj_idx.size, cfg.target_ratio)
    rng = substream(cfg.seed, "resample", "random")
    picks = min_idx[rng.integers(0, min_idx.size, size=need)]
    return _append(ds, ds.X[picks], minority)


def smote(ds: TabularDataset, cfg: ResampleConfig) -> TabularDataset:
    """Interpolate synthetic minority rows toward minority nearest neighbors."""
    split = _class_split(ds.labels())
    if split is None:
        return _append(ds, np.empty((0, ds.n_cols)), 0)
    minority, _, min_idx, maj_idx = split
    if min_idx.size < 2:
        raise ValueError("SMOTE needs at least 2 minority rows")
    need = _n_needed(min_idx.size, maj_idx.size, cfg.target_ratio)
    X_min = ds.X[min_idx]
    k = min(cfg.k_neighbors, min_idx.size - 1)
    nn = nearest(X_min, X_min, k, exclude=np.arange(min_idx.size))
    rng = substream(cfg.seed, "resample", "smote")
    base = rng.integers(0, min_idx.size, size=need)
    pick = rng.integers(0, k, size=need)
    lam = rng.random(size=need)
    a = X_min[base]
    b = X_min[nn[base, pick]]
    return _append(ds, a + lam[:, None] * (b - a), minority)


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation summing exactly to total; ties go to lower indices."""
    base = np.floor(quotas).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        remainder = quotas - base
        order = np.lexsort((np.arange(quotas.size), -remainder))
        base[order[:short]] += 1
    return base


def _adasyn_alloc(ds: TabularDataset, cfg: ResampleConfig, split) -> np.ndarray:
    minority, _, min_idx, maj_idx = split
    need = _n_needed(min_idx.size, maj_idx.size, cfg.target_ratio)
    # Hardness r_i: majority share among the k nearest neighbors in the full set.
    k_full = min(cfg.k_neighbors, ds.n_rows - 1)
    nn_full = nearest(ds.X[min_idx], ds.X, k_full, exclude=min_idx)
    r = (ds.labels()[nn_full] != minority).sum(axis=1).astype(np.float64) / k_full
    if r.sum() > 0:
        quotas = need * r / r.sum()
    else:
        quotas = np.full(min_idx.size, need / min_idx.size)  # uniform fallback
    return _largest_remainder(quotas, need)


def adasyn(ds: TabularDataset, cfg: ResampleConfig) -> TabularDataset:
    """Allocate synthetics toward minority rows with majority-heavy neighborhoods."""
    split = _class_split(ds.labels())
    if split is None:
        return _append(ds, np.empty((0, ds.n_cols)), 0)
    minority, _, min_idx, _ = split
    if min_idx.size < 2:
        raise ValueError("ADASYN needs at least 2 minority rows")
    alloc = _adasyn_alloc(ds, cfg, split)
    X_min = ds.X[min_idx]
    k_min = min(cfg.k_neighbors, min_idx.size - 1)
    nn_min = nearest(X_min, X_min, k_min, exclude=np.arange(min_idx.size))
    rng = substream(cfg.seed, "resample", "adasyn")
    rows = []
    for i in range(min_idx.size):
        for _ in range(int(alloc[i])):
            j = int(rng.integers(0, k_min))
            lam = rng.random()
            a = X_min[i]
            b = X_min[nn_min[i, j]]
            rows.append(a + lam * (b - a))
    X_new = np.array(rows).reshape(len(rows), ds.n_cols)
    return _append(ds, X_new, minority)


def adasyn_allocation(ds: TabularDataset, cfg: ResampleConfig) -> np.ndarray:
    """Per-minority-row synthetic allocation, exposed for verification."""
    split = _class_split(ds.labels())
    if split is None:
        return np.zeros(0, dtype=np.int64)
    if split[2].size < 2:
        raise ValueError("ADASYN needs at least 2 minority rows")
    return _adasyn_alloc(ds, cfg, split)
