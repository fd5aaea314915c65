"""Span collector for the benchmark's traced run, and the wrappers it installs.

The program itself carries no tracing. `instrument()` wraps the public
callables of each module from outside, by replacing the names the CLI and
`evaluate` look up, and each wrapper records one span: name, start, end,
parent, thread, counts, and whether an exception escaped. Spans stay in
memory; `Tracer.write()` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "synthgen", "ingestion", "sessionize", "features", "analytics", "resample", "learn", "evaluate")
TREE_KINDS = ("forest", "gbt", "tree")
SCORED_KINDS = ("forest", "gbt", "knn", "mlp", "tree")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "error", "counts")

    def __init__(self, span_id: int, name: str, parent: int | None) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end: float | None = None
        self.error = False
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the parent of a new span is the innermost open span of its thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def open(self, name: str) -> Span:
        parent = self.current()
        with self._lock:
            span = Span(len(self.spans), name, None if parent is None else parent.id)
            self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        """End `span`, and any span opened inside it that was left open by an exception."""
        end = time.perf_counter()
        stack = self._stack()
        while span in stack:
            top = stack.pop()
            top.end = end
            top.error = top.error or error or top is not span
        if span.end is None:
            span.end = end
            span.error = span.error or error

    def adopting(self, parent: Span | None, fn):
        """`fn` as a task whose spans, on a pool thread, nest under `parent`."""

        def task(*args, **kwargs):
            self._local.adopted = parent
            try:
                return fn(*args, **kwargs)
            finally:
                stack = self._stack()
                if stack:  # a span the task's exception left open
                    self.close(stack[0], error=True)
                self._local.adopted = None

        return task

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                    "start": s.start, "end": s.end, "error": s.error, "counts": s.counts,
                }) + "\n")


def _traced(tracer: Tracer, fn, name, counts=None):
    """Wrap `fn` in a span; `name` may be a function of the call's arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span, error=True)
            raise
        tracer.close(span)
        if counts is not None:
            span.counts = counts(args, kwargs, result)
        return result

    return wrapper


def _data_rows(paths) -> int:
    """Data lines in the twelve tables of a database (header lines excluded)."""
    files = [*paths.acquisitions.values(), paths.demographics, *paths.questionnaires.values()]
    total = 0
    for p in files:
        with open(p, "rb") as fh:
            total += fh.read().count(b"\n") - 1
    return total


def _n_nodes(model) -> int:
    trees = getattr(model, "trees_", None)
    if trees is None:
        trees = [model.tree_]
    return sum(getattr(t, "n_nodes", None) or t.feature.size for t in trees)


def _resample_pairs(ds, cfg) -> int:
    """Distance pairs the resampler evaluates, computed from shapes, not counted."""
    y = ds.labels()
    minority = int(min(y.sum(), y.size - y.sum()))
    if cfg.method == "smote":
        return minority * minority
    if cfg.method == "adasyn":
        return minority * y.size + minority * minority
    return 0


def _fit_counts(args, kwargs, model) -> dict:
    if model.kind in TREE_KINDS:
        return {"nodes": _n_nodes(model)}
    if model.kind == "mlp":
        return {"best_epoch": model.best_epoch_}
    return {}


def _predict_counts(args, kwargs, proba) -> dict:
    model = args[0]
    if model.kind == "knn":
        return {"dist_pairs": proba.shape[0] * model.X_.shape[0]}
    return {}


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them again."""
    from adherence import analytics, cli, evaluate, synthgen
    from adherence.learn.base import Model

    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def trace(owner, attr, name, counts=None):
        patch(owner, attr, _traced(tracer, getattr(owner, attr), name, counts))

    trace(synthgen, "generate", "synthgen.generate", lambda a, k, db: {"events": len(db.events)})
    trace(cli, "write_database", "ingestion.write")
    trace(cli, "parse_database", "ingestion.parse",
          lambda a, k, db: {"rows_read": _data_rows(a[0]), "rows_rejected": len(db.rejects)})
    trace(cli, "cleanse", "ingestion.cleanse", lambda a, k, r: {"users_removed": r[1].n_removed})
    trace(cli, "windows_for_database", "sessionize.windows", lambda a, k, w: {"windows": len(w)})
    trace(cli, "write_windows", "sessionize.write")
    trace(cli, "build_variant", "features.build")
    trace(cli, "write_dataset_csv", "features.write_csv",
          lambda a, k, r: {"mb": os.path.getsize(a[1]) / 2**20})
    trace(cli, "read_dataset_csv", "features.read_csv")
    for name in ("null_rates", "questionnaire_alpha_reports", "demographic_summary",
                 "acquisition_distribution", "session_correlation_matrix", "duplicate_analysis"):
        trace(analytics, name, "analytics.stats")
    trace(cli, "save_model", "learn.serialize.save", lambda a, k, r: {"mb": os.path.getsize(a[1]) / 2**20})
    trace(cli, "load_model", "learn.serialize.load")
    def resample_counts(args, kwargs, out):
        return {"rows_added": out.n_rows - args[0].n_rows, "dist_pairs": _resample_pairs(*args)}

    for owner in (cli, evaluate):
        trace(owner, "oversample", "resample", resample_counts)
        trace(owner, "transform", "features.preprocess")
    trace(cli, "fit_preprocess", "features.preprocess")
    trace(cli, "cross_validate", "evaluate.cv", lambda a, k, r: {"workers": k.get("n_jobs", 1)})
    trace(Model, "fit", lambda a: f"learn.{a[0].kind}.fit", _fit_counts)
    trace(Model, "predict_proba", lambda a: f"learn.{a[0].kind}.predict", _predict_counts)

    # A fold has no callable of its own: its span opens at the fold's first
    # library call (fit_preprocess) and closes when compute_metrics returns.
    # Only row indexing before fit_preprocess falls outside it.
    folds = threading.local()
    fit_preprocess = _traced(tracer, evaluate.fit_preprocess, "features.preprocess")
    compute_metrics = evaluate.compute_metrics

    def fold_fit_preprocess(*args, **kwargs):
        folds.span = tracer.open("evaluate.fold")
        return fit_preprocess(*args, **kwargs)

    def fold_compute_metrics(*args, **kwargs):
        try:
            return compute_metrics(*args, **kwargs)
        finally:
            span, folds.span = getattr(folds, "span", None), None
            if span is not None:
                tracer.close(span)

    class AdoptingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopting(tracer.current(), fn), *args, **kwargs)

    patch(evaluate, "fit_preprocess", fold_fit_preprocess)
    patch(evaluate, "compute_metrics", fold_compute_metrics)
    patch(evaluate, "ThreadPoolExecutor", AdoptingPool)

    def remove() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, [])) for s in spans}


def layer_metrics(spans: list[Span], scores: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where the pass skips a layer."""

    def named(name):
        return [s for s in spans if s.name == name]

    def secs(name):
        return sum(s.duration for s in named(name))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    own = self_times(spans)
    m = {
        "synthgen.generate_s": secs("synthgen.generate"),
        "synthgen.events": total("synthgen.generate", "events"),
        "ingestion.write_s": secs("ingestion.write"),
        "ingestion.parse_s": secs("ingestion.parse"),
        "ingestion.parse_calls": len(named("ingestion.parse")),
        "ingestion.rows_read": total("ingestion.parse", "rows_read"),
        "ingestion.rows_rejected": total("ingestion.parse", "rows_rejected"),
        "ingestion.cleanse_s": secs("ingestion.cleanse"),
        "ingestion.users_removed": total("ingestion.cleanse", "users_removed"),
        "sessionize.windows_s": secs("sessionize.windows"),
        "sessionize.windows": total("sessionize.windows", "windows"),
        "sessionize.write_s": secs("sessionize.write"),
        "features.build_s": secs("features.build"),
        "features.write_csv_s": secs("features.write_csv"),
        "features.csv_mb": total("features.write_csv", "mb"),
        "analytics.stats_s": secs("analytics.stats"),
        "features.read_csv_s": secs("features.read_csv"),
        "features.preprocess_s": secs("features.preprocess"),
        "features.preprocess_calls": len(named("features.preprocess")),
    }
    for kind in TREE_KINDS:
        fit_s = secs(f"learn.{kind}.fit")
        nodes = total(f"learn.{kind}.fit", "nodes")
        m[f"learn.{kind}.fit_s"] = fit_s
        m[f"learn.{kind}.predict_s"] = secs(f"learn.{kind}.predict")
        m[f"learn.{kind}.nodes"] = nodes
        m[f"learn.{kind}.nodes_per_s"] = nodes / fit_s if fit_s > 0 else 0.0
    epochs = [s.counts["best_epoch"] for s in named("learn.mlp.fit") if s.counts.get("best_epoch") is not None]
    cvs = named("evaluate.cv")
    fold_s = [s.duration for s in named("evaluate.fold")]
    capacity = sum(s.duration * s.counts.get("workers", 1) for s in cvs)
    m.update({
        "learn.serialize.save_s": secs("learn.serialize.save"),
        "learn.serialize.load_s": secs("learn.serialize.load"),
        "learn.serialize.model_mb": total("learn.serialize.save", "mb"),
        "resample.s": secs("resample"),
        "resample.calls": len(named("resample")),
        "resample.rows_added": total("resample", "rows_added"),
        "resample.dist_pairs": total("resample", "dist_pairs"),
        "learn.knn.predict_s": secs("learn.knn.predict"),
        "learn.knn.dist_pairs": total("learn.knn.predict", "dist_pairs"),
        "learn.mlp.fit_s": secs("learn.mlp.fit"),
        "learn.mlp.predict_s": secs("learn.mlp.predict"),
        "learn.mlp.best_epoch": statistics.median(epochs) if epochs else 0,
        "evaluate.cv_s": sum(s.duration for s in cvs),
        "evaluate.self_s": sum(own[s.id] for s in cvs),
        "evaluate.folds": len(fold_s),
        "evaluate.fold_s.p50": statistics.median(fold_s) if fold_s else 0.0,
        "evaluate.fold_s.max": max(fold_s, default=0.0),
        "evaluate.busy_ratio": sum(fold_s) / capacity if capacity > 0 else 0.0,
        "cli.self_s": sum(own[s.id] for s in spans if s.name.startswith("cli.")),
    })
    for kind in SCORED_KINDS:
        m[f"evaluate.score.{kind}"] = scores.get(kind, 0.0)
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in spans if s.error and s.name.split(".")[0] == layer)
    return m


# Counts that must repeat exactly for one seed; later changes may cite them as counts.
STEADY_COUNTS = (
    "learn.forest.nodes", "learn.gbt.nodes", "learn.tree.nodes", "resample.dist_pairs",
    "learn.knn.dist_pairs", "sessionize.windows", "ingestion.rows_rejected", "resample.rows_added",
    "evaluate.folds", "ingestion.parse_calls",
)
