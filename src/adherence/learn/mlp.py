"""Fully connected network trained with mini-batch Adam and early stopping.

ReLU hidden layers, a 2-logit softmax head and cross-entropy loss. A seeded
slice of the training split is held out to monitor validation loss; training
stops after `patience` epochs without improvement and the best-epoch weights
are restored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from .base import Model


@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: tuple[int, ...] = (1024, 512, 256, 128)
    batch_size: int = 128
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    max_epochs: int = 50
    val_fraction: float = 0.1  # 0 disables early stopping
    patience: int = 5
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.hidden_layers):
            raise ValueError("hidden layer sizes must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class MlpClassifier(Model):
    kind = "mlp"
    Config = MlpConfig
    weights_: list[np.ndarray]
    biases_: list[np.ndarray]
    best_epoch_: int | None  # None when early stopping is off

    # ----- forward / backward -------------------------------------------------

    def _forward(self, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Hidden activations (inputs first, in the config's dtype) and output probabilities."""
        a = np.ascontiguousarray(X, dtype=np.dtype(self.cfg.dtype))
        acts = [a]
        for W, b in zip(self.weights_[:-1], self.biases_[:-1]):
            a = np.maximum(a @ W + b, 0.0)
            acts.append(a)
        return acts, _softmax(a @ self.weights_[-1] + self.biases_[-1])

    @staticmethod
    def _loss(proba: np.ndarray, y: np.ndarray) -> float:
        """Mean cross-entropy of the true classes."""
        eps = np.finfo(proba.dtype).tiny
        return float(-np.mean(np.log(proba[np.arange(y.size), y] + eps)))

    def loss_and_gradients(self, X: np.ndarray, y: np.ndarray) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
        """Cross-entropy loss and its gradients w.r.t. every weight and bias."""
        y = np.asarray(y, dtype=np.int64)
        acts, proba = self._forward(X)
        loss = self._loss(proba, y)
        delta = proba  # turned in place into the gradient of the loss w.r.t. the logits
        delta[np.arange(y.size), y] -= 1.0
        delta /= y.size
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights_)
        for i in range(len(self.weights_) - 1, -1, -1):
            grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights_[i].T) * (acts[i] > 0)
        return loss, grads

    # ----- training -----------------------------------------------------------

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        cfg = self.cfg
        dt = np.dtype(cfg.dtype)
        X = np.ascontiguousarray(X, dtype=dt)
        n = X.shape[0]
        rng = rngmod.substream(cfg.seed, "mlp")
        sizes = [X.shape[1], *cfg.hidden_layers, 2]  # He initialization, zero biases
        self.weights_ = [rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b)).astype(dt) for a, b in zip(sizes, sizes[1:])]
        self.biases_ = [np.zeros(b, dtype=dt) for b in sizes[1:]]

        n_val = int(round(cfg.val_fraction * n))
        early = cfg.val_fraction > 0 and n_val >= 1 and n - n_val >= 2
        if early:
            perm = rng.permutation(n)
            val_idx, tr_idx = perm[:n_val], perm[n_val:]
        else:
            tr_idx = np.arange(n)
        X_tr, y_tr = X[tr_idx], y[tr_idx]

        # The same arrays as in weights_ and biases_, so Adam's updates land there.
        params = [p for layer in zip(self.weights_, self.biases_) for p in layer]
        m_state = [np.zeros_like(p) for p in params]
        v_state = [np.zeros_like(p) for p in params]
        t = 0
        best_loss = np.inf
        best_params = None
        since_best = 0
        self.best_epoch_ = None

        for epoch in range(cfg.max_epochs):
            order = rng.permutation(X_tr.shape[0])
            for lo in range(0, X_tr.shape[0], cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                loss, grads = self.loss_and_gradients(X_tr[batch], y_tr[batch])
                if not np.isfinite(loss):
                    raise RuntimeError(f"mlp training diverged: non-finite loss at epoch {epoch}, batch {lo // cfg.batch_size}")
                t += 1
                bc1 = 1.0 - cfg.beta1**t
                bc2 = 1.0 - cfg.beta2**t
                for p, g, m, v in zip(params, (g for layer in grads for g in layer), m_state, v_state):
                    m += (1 - cfg.beta1) * (g - m)
                    v += (1 - cfg.beta2) * (g * g - v)
                    p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
            if early:
                val_loss = self._loss(self._forward(X[val_idx])[1], y[val_idx])
                if val_loss < best_loss:
                    best_loss = val_loss
                    best_params = ([W.copy() for W in self.weights_], [b.copy() for b in self.biases_])
                    self.best_epoch_ = epoch
                    since_best = 0
                else:
                    since_best += 1
                    if since_best >= cfg.patience:
                        break
        if early and best_params is not None:
            self.weights_, self.biases_ = best_params

    def _p1(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[1][:, 1]
