"""Shared classifier plumbing: the fitted-model contract, thresholding, voting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def classify(proba: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Labels from 2-class probabilities: 1 iff p(1) > threshold (0.5 ties -> 0)."""
    proba = np.asarray(proba, dtype=np.float64)
    p1 = proba[:, 1] if proba.ndim == 2 else proba
    return (p1 > threshold).astype(np.int64)


def check_proba(proba: np.ndarray) -> np.ndarray:
    """Validate an (n, 2) probability matrix: finite entries in [0,1], rows sum to 1."""
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim != 2 or proba.shape[1] != 2:
        raise ValueError("expected an (n, 2) probability matrix")
    if not np.isfinite(proba).all():
        raise ValueError("probabilities must be finite")
    if np.any(proba < -1e-9) or np.any(proba > 1 + 1e-9):
        raise ValueError("probabilities outside [0, 1]")
    if np.any(np.abs(proba.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1")
    return proba


class Model:
    """Base class for the from-scratch classifiers.

    Subclasses set ``kind``, implement ``_fit`` and ``_predict_proba``, and get
    input validation, thresholded prediction and feature-name bookkeeping here.
    """

    kind = "?"

    def __init__(self) -> None:
        self.feature_names: list[str] | None = None
        self.n_features_: int | None = None

    @property
    def is_fitted(self) -> bool:
        return self.n_features_ is not None

    def fit(self, X: np.ndarray, y: np.ndarray, feature_names: list[str] | None = None) -> "Model":
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if y.shape != (X.shape[0],):
            raise ValueError("y must align with the rows of X")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary {0, 1}")
        if np.isnan(X).any():
            raise ValueError("X contains nulls; impute before fitting")
        if np.isinf(X).any():
            raise ValueError("X contains infinite values")
        if feature_names is not None and len(feature_names) != X.shape[1]:
            raise ValueError("feature_names length must match X width")
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.n_features_ = X.shape[1]
        self._fit(X, y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_input(X)
        return check_proba(self._predict_proba(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return classify(self.predict_proba(X))

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise ValueError(f"{self.kind} model is not fitted")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} feature column(s)")
        return X

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class MajorityConfig:
    pass


class MajorityModel(Model):
    """Baseline stub: every row gets the training class prior as probability."""

    kind = "majority"

    def __init__(self, cfg: MajorityConfig = MajorityConfig()):
        super().__init__()
        self.cfg = cfg
        self.p1_: float | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.p1_ = float(y.mean())

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.tile([1.0 - self.p1_, self.p1_], (X.shape[0], 1))


def ensemble_predict_proba(models: list[Model], X: np.ndarray) -> np.ndarray:
    """Soft vote: unweighted mean of the members' predicted probabilities."""
    if not models:
        raise ValueError("ensemble needs at least one model")
    schemas = {tuple(m.feature_names) for m in models if m.feature_names is not None}
    if len(schemas) > 1:
        raise ValueError("ensemble members disagree on feature schema")
    widths = {m.n_features_ for m in models}
    if len(widths) > 1:
        raise ValueError("ensemble members disagree on feature count")
    acc = np.zeros((np.asarray(X).shape[0], 2))
    for m in models:
        acc += m.predict_proba(X)
    return acc / len(models)
