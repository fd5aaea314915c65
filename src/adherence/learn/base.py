"""Shared classifier plumbing: the fitted-model contract, thresholding, voting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def classify(proba: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Labels from 2-class probabilities: 1 iff p(1) > threshold (0.5 ties -> 0)."""
    proba = np.asarray(proba, dtype=np.float64)
    p1 = proba[:, 1] if proba.ndim == 2 else proba
    return (p1 > threshold).astype(np.int64)


def _features(X: np.ndarray) -> np.ndarray:
    """X as a contiguous float64 matrix; nulls and infinities are refused."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if np.isnan(X).any():
        raise ValueError("X contains nulls; impute them first")
    if np.isinf(X).any():
        raise ValueError("X contains infinite values")
    return X


class Model:
    """Base class for the from-scratch classifiers.

    A subclass sets ``kind`` and ``Config`` (a frozen dataclass that checks its
    own ranges), declares its fitted attributes as class annotations, and
    implements ``_fit`` and ``_p1``, the p(high) vector of its rows. Input
    validation, the (n, 2) probability matrix, thresholded prediction and
    feature-name bookkeeping live here.
    """

    kind = "?"
    Config: type

    def __init__(self, cfg=None) -> None:
        self.cfg = self.Config() if cfg is None else cfg
        self.feature_names: list[str] | None = None
        self.n_features_: int | None = None

    @property
    def is_fitted(self) -> bool:
        return self.n_features_ is not None

    def fit(self, X: np.ndarray, y: np.ndarray, feature_names: list[str] | None = None) -> "Model":
        X = _features(X)
        y = np.asarray(y, dtype=np.int64)
        if X.shape[1] == 0:
            raise ValueError("X has no feature columns")
        if y.shape != (X.shape[0],):
            raise ValueError("y must align with the rows of X")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary {0, 1}")
        if feature_names is not None and len(feature_names) != X.shape[1]:
            raise ValueError("feature_names length must match X width")
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.n_features_ = X.shape[1]
        self._fit(X, y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) matrix of [p(low), p(high)] per row."""
        p1 = np.asarray(self._p1(self._check_input(X)), dtype=np.float64)
        if not np.isfinite(p1).all():
            raise ValueError("probabilities must be finite")
        if np.any(p1 < -1e-9) or np.any(p1 > 1 + 1e-9):
            raise ValueError("probabilities outside [0, 1]")
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return classify(self.predict_proba(X))

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise ValueError(f"{self.kind} model is not fitted")
        X = _features(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} feature column(s)")
        return X

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _p1(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class MajorityConfig:
    pass


class MajorityModel(Model):
    """Baseline stub: every row gets the training class prior as probability."""

    kind = "majority"
    Config = MajorityConfig
    p1_: float

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.p1_ = float(y.mean())

    def _p1(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.p1_)

