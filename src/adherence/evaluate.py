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
from .features import ColumnCodes, TabularDataset, fit_preprocess, transform
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
    tn, fp, fn, tp = np.bincount(2 * y_true + y_pred, minlength=4).tolist()  # the pair (truth, prediction) in base 2
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


def _macro(folds: list[EvalMetrics]) -> dict:
    """The mean of each metric over the folds; a nullable one over the folds that define it, counted in "defined"."""
    macro = {"accuracy": float(np.mean([m.accuracy for m in folds])), "n_folds": len(folds), "defined": {}}
    for name in ("sensitivity", "specificity", "score"):
        present = [v for v in (getattr(m, name) for m in folds) if v is not None]
        macro[name] = float(np.mean(present)) if present else None
        macro["defined"][name] = len(present)
    return macro


@dataclass
class CvReport:
    folds: list[EvalMetrics]  # in fold order
    macro: dict  # _macro's
    pooled: EvalMetrics
    fingerprint: dict
    fingerprint_sha256: str

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "fingerprint_sha256": self.fingerprint_sha256,
            "folds": [{"fold": f, **dataclasses.asdict(m)} for f, m in enumerate(self.folds)],
            "macro": self.macro,
            "pooled": dataclasses.asdict(self.pooled),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict(), indent=2) + "\n"


def _config_fingerprint(
    ds: TabularDataset,
    model_cfg: object,
    resample_cfg: ResampleConfig | None,
    k: int,
    seed: int,
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
        "preprocess": True,  # every fold is preprocessed; the key keeps report digests as they were
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
    n_jobs: int = 1,
) -> CvReport:
    """Stratified k-fold evaluation with strictly fold-internal fitting.

    Within each fold, imputation/scaling statistics are fitted on training rows
    only, resampling touches training rows only, and the validation rows reach
    the model untouched. The dataset is encoded once, and each fold's
    statistics are its totals with the fold's validation rows held out.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    y = ds.labels()
    folds = kfold_split(ds.n_rows, k=k, labels=y, seed=seed)
    codes = ColumnCodes(ds.X)

    def run_fold(f: int) -> EvalMetrics:
        try:
            val_idx = folds[f]
            state = fit_preprocess(ds, held_out=val_idx, codes=codes)
            train = np.ones(ds.n_rows, dtype=bool)
            train[val_idx] = False
            tr = transform(ds, state, train)
            va = transform(ds, state, val_idx)
            if resample_cfg is not None:
                tr = oversample(tr, _with_seed(resample_cfg, substream_seed(seed, "resample", f)))
            model = build_model(_with_seed(model_cfg, substream_seed(seed, "model", f)))
            model.fit(tr.X, tr.labels(), feature_names=tr.column_names)
            return compute_metrics(va.labels(), model.predict(va.X))
        except Exception as exc:
            raise RuntimeError(f"cross-validation failed in fold {f}: {exc}") from exc

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as ex:
            results = list(ex.map(run_fold, range(k)))
    else:
        results = [run_fold(f) for f in range(k)]

    pooled = metrics_from_counts(*np.sum([(m.tp, m.tn, m.fp, m.fn) for m in results], axis=0).tolist())
    fingerprint = _config_fingerprint(ds, model_cfg, resample_cfg, k, seed)
    digest = hashlib.sha256(canonical_json(fingerprint).encode("utf-8")).hexdigest()
    return CvReport(results, _macro(results), pooled, fingerprint, digest)


_CSV_METRIC_COLS = ["tp", "tn", "fp", "fn", "accuracy", "sensitivity", "specificity", "score"]


def write_report(report: CvReport, json_path: str | Path, csv_path: str | Path) -> None:
    """The report as JSON, and its folds, macro and pooled rows as CSV cut from the same document.

    Each value goes to csv.writer as it is, which writes None as the empty cell and a float as its repr.
    """
    doc = report.to_dict()
    write_json(json_path, doc)
    rows = [["fold", m["fold"], *map(m.get, _CSV_METRIC_COLS)] for m in doc["folds"]]
    rows += [[kind, "", *map(doc[kind].get, _CSV_METRIC_COLS)] for kind in ("macro", "pooled")]
    write_csv(csv_path, ["row_kind", "fold", *_CSV_METRIC_COLS], rows)
