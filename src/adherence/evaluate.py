"""Cross-validated evaluation: challenge metrics, stratified folds, reports.

The headline score is the geometric mean of sensitivity and specificity.
Metrics whose denominator class is absent are reported as undefined (None),
never coerced to 0. Reports carry both a macro aggregate (mean of per-fold
metrics) and a pooled aggregate (metrics of the summed confusion counts).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .artifact import canonical_json, write_csv, write_json
from .features import TabularDataset, fit_preprocess, transform
from .learn import build_model, model_kind
from .resample import ResampleConfig, oversample
from .rng import substream, substream_seed


@dataclass(frozen=True)
class EvalMetrics:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    sensitivity: float | None  # recall of class 1
    specificity: float | None  # recall of class 0
    score: float | None  # sqrt(sensitivity * specificity)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def geometric_score(sensitivity: float | None, specificity: float | None) -> float | None:
    """The challenge metric; undefined when either recall is undefined."""
    if sensitivity is None or specificity is None:
        return None
    return math.sqrt(sensitivity * specificity)


def metrics_from_counts(tp: int, tn: int, fp: int, fn: int) -> EvalMetrics:
    total = tp + tn + fp + fn
    if total == 0:
        raise ValueError("empty confusion counts")
    sens = tp / (tp + fn) if tp + fn > 0 else None
    spec = tn / (tn + fp) if tn + fp > 0 else None
    return EvalMetrics(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        accuracy=(tp + tn) / total,
        sensitivity=sens,
        specificity=spec,
        score=geometric_score(sens, spec),
    )


def compute_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> EvalMetrics:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("prediction and truth vectors must have equal length")
    if y_true.size < 1:
        raise ValueError("need at least one prediction")
    for arr, name in ((y_true, "y_true"), (y_pred, "y_pred")):
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{name} must contain only 0/1 labels")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return metrics_from_counts(tp, tn, fp, fn)


def majority_baseline(ds: TabularDataset | np.ndarray) -> EvalMetrics:
    """Metrics of predicting the most frequent class everywhere (ties -> 0)."""
    y = ds.labels() if isinstance(ds, TabularDataset) else np.asarray(ds, dtype=np.int64)
    majority = 1 if y.sum() * 2 > y.size else 0
    return compute_metrics(y, np.full(y.size, majority, dtype=np.int64))


def kfold_split(n: int, k: int = 10, labels: np.ndarray | None = None, seed: int = 0) -> list[np.ndarray]:
    """Seeded (stratified) partition into k folds of near-equal size.

    With labels, per-fold class counts stay within 1 of proportional; a class
    with fewer than k members falls back to a plain shuffled split.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    rng = substream(seed, "folds")
    groups = [np.arange(n)]  # a plain split is a stratified one over a single class
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError("labels must align with n")
        classes, counts = np.unique(labels, return_counts=True)
        if counts.min() < k:
            warnings.warn(f"a class has fewer than {k} members; falling back to non-stratified folds")
        else:
            groups = [np.flatnonzero(labels == c) for c in classes]
    fold_of = np.empty(n, dtype=np.int64)
    cursor = 0  # rotates so per-class remainders spread over distinct folds
    for members in groups:
        base, extra = divmod(members.size, k)
        sizes = np.full(k, base)
        sizes[(cursor + np.arange(extra)) % k] += 1
        cursor = (cursor + extra) % k
        fold_of[rng.permutation(members)] = np.repeat(np.arange(k), sizes)
    return [np.flatnonzero(fold_of == f) for f in range(k)]


@dataclass
class FoldResult:
    fold: int
    metrics: EvalMetrics


@dataclass
class MacroMetrics:
    accuracy: float
    sensitivity: float | None
    specificity: float | None
    score: float | None
    n_folds: int
    defined: dict[str, int]  # folds contributing to each nullable metric

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _macro(folds: list[FoldResult]) -> MacroMetrics:
    def mean_defined(values: list[float | None]) -> tuple[float | None, int]:
        present = [v for v in values if v is not None]
        return (float(np.mean(present)) if present else None, len(present))

    sens, n_sens = mean_defined([f.metrics.sensitivity for f in folds])
    spec, n_spec = mean_defined([f.metrics.specificity for f in folds])
    score, n_score = mean_defined([f.metrics.score for f in folds])
    return MacroMetrics(
        accuracy=float(np.mean([f.metrics.accuracy for f in folds])),
        sensitivity=sens,
        specificity=spec,
        score=score,
        n_folds=len(folds),
        defined={"sensitivity": n_sens, "specificity": n_spec, "score": n_score},
    )


@dataclass
class CvReport:
    folds: list[FoldResult]
    macro: MacroMetrics
    pooled: EvalMetrics
    fingerprint: dict
    fingerprint_sha256: str

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "fingerprint_sha256": self.fingerprint_sha256,
            "folds": [{"fold": f.fold, **f.metrics.to_dict()} for f in self.folds],
            "macro": self.macro.to_dict(),
            "pooled": self.pooled.to_dict(),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict(), indent=2) + "\n"


def _config_fingerprint(
    ds: TabularDataset,
    model_cfg: object,
    resample_cfg: ResampleConfig | None,
    k: int,
    seed: int,
    preprocess: bool,
) -> dict:
    return {
        "artifact_version": __version__,
        "dataset": {
            "variant": ds.variant,
            "n_rows": ds.n_rows,
            "n_cols": ds.n_cols,
            "n_positive": int(ds.labels().sum()),
        },
        "model": {"kind": model_kind(model_cfg), **dataclasses.asdict(model_cfg)},
        "resample": None if resample_cfg is None else dataclasses.asdict(resample_cfg),
        "k": k,
        "seed": seed,
        "preprocess": preprocess,
    }


def _with_seed(cfg, seed: int):
    if dataclasses.is_dataclass(cfg) and any(f.name == "seed" for f in dataclasses.fields(cfg)):
        return dataclasses.replace(cfg, seed=seed)
    return cfg


def cross_validate(
    ds: TabularDataset,
    model_cfg: object,
    resample_cfg: ResampleConfig | None = None,
    k: int = 10,
    seed: int = 0,
    preprocess: bool = True,
    n_jobs: int = 1,
) -> CvReport:
    """Stratified k-fold evaluation with strictly fold-internal fitting.

    Within each fold, imputation/scaling statistics are fitted on training rows
    only, resampling touches training rows only, and the validation rows reach
    the model untouched.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    y = ds.labels()
    folds = kfold_split(ds.n_rows, k=k, labels=y, seed=seed)
    all_rows = np.arange(ds.n_rows)

    def run_fold(f: int) -> FoldResult:
        try:
            val_idx = folds[f]
            train_idx = np.setdiff1d(all_rows, val_idx)
            tr = ds.subset(train_idx)
            va = ds.subset(val_idx)
            if preprocess:
                state = fit_preprocess(tr)
                tr = transform(tr, state)
                va = transform(va, state)
            if resample_cfg is not None:
                tr = oversample(tr, _with_seed(resample_cfg, substream_seed(seed, "resample", f)))
            model = build_model(_with_seed(model_cfg, substream_seed(seed, "model", f)))
            model.fit(tr.X, tr.labels(), feature_names=tr.column_names)
            return FoldResult(f, compute_metrics(va.labels(), model.predict(va.X)))
        except Exception as exc:
            raise RuntimeError(f"cross-validation failed in fold {f}: {exc}") from exc

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as ex:
            results = list(ex.map(run_fold, range(k)))
    else:
        results = [run_fold(f) for f in range(k)]

    pooled = metrics_from_counts(
        tp=sum(r.metrics.tp for r in results),
        tn=sum(r.metrics.tn for r in results),
        fp=sum(r.metrics.fp for r in results),
        fn=sum(r.metrics.fn for r in results),
    )
    fingerprint = _config_fingerprint(ds, model_cfg, resample_cfg, k, seed, preprocess)
    digest = hashlib.sha256(canonical_json(fingerprint).encode("utf-8")).hexdigest()
    return CvReport(
        folds=results,
        macro=_macro(results),
        pooled=pooled,
        fingerprint=fingerprint,
        fingerprint_sha256=digest,
    )


_CSV_METRIC_COLS = ["tp", "tn", "fp", "fn", "accuracy", "sensitivity", "specificity", "score"]


def write_report(report: CvReport, json_path: str | Path | None = None, csv_path: str | Path | None = None) -> None:
    if json_path is not None:
        write_json(json_path, report.to_dict())
    if csv_path is not None:
        def fmt(v) -> str:
            return "" if v is None else (repr(float(v)) if isinstance(v, float) else str(v))

        def row(kind: str, fold, metrics: dict) -> list[str]:
            return [kind, fold, *(fmt(metrics.get(c)) for c in _CSV_METRIC_COLS)]

        rows = [row("fold", f.fold, f.metrics.to_dict()) for f in report.folds]
        rows += [row("macro", "", report.macro.to_dict()), row("pooled", "", report.pooled.to_dict())]
        write_csv(csv_path, ["row_kind", "fold", *_CSV_METRIC_COLS], rows)
