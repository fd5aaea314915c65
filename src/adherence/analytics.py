"""Diagnostic statistics: correlations, internal consistency, null rates,
demographic summaries, acquisition distributions and duplicate-tuple analysis.
"""

from __future__ import annotations

import math

import numpy as np

from .features import LABEL_COLUMN, S_COLUMNS, TabularDataset, fit_preprocess
from .ingestion import DEMOGRAPHIC_FIELDS, QUESTIONNAIRE_INSTANCES, QUESTIONNAIRE_ITEMS, Profiles, answer_columns
from .sessionize import WINDOW_SESSIONS, Windows


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Product-moment correlation; raises on constant input instead of NaN."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.clip(dx @ dy / math.sqrt(sx * sy), -1.0, 1.0))


def session_correlation_matrix(ds: TabularDataset) -> tuple[np.ndarray, list[str]]:
    """Pairwise correlations over S1..S12 and the label, for a D0 dataset.

    Cells touching a constant column are NaN; the diagonal is 1. Returns the
    13x13 matrix and its axis labels.
    """
    if ds.variant != "D0":
        raise ValueError(f"session correlations require the D0 variant, got {ds.variant}")
    cols = np.column_stack([ds.X, ds.labels().astype(np.float64)])
    names = list(S_COLUMNS) + [LABEL_COLUMN]
    k = cols.shape[1]
    out = np.full((k, k), np.nan)
    np.fill_diagonal(out, 1.0)
    for i in range(k):
        for j in range(i + 1, k):
            try:
                out[i, j] = out[j, i] = pearson(cols[:, i], cols[:, j])
            except ValueError:
                pass  # constant column: leave the cell flagged as NaN
    return out, names


def cronbach_alpha(items: np.ndarray) -> dict:
    """Internal-consistency alpha over a respondents x items matrix, as {"alpha", "n_respondents"}.

    Rows containing any null (NaN) are dropped (listwise deletion). Alpha is
    undefined - reported as None - with fewer than 2 items, fewer than 2
    complete rows, or zero total-score variance. Sample variances use n-1.
    """
    items = np.asarray(items, dtype=np.float64)
    if items.ndim != 2:
        raise ValueError("items must be a 2-d matrix")
    n_items = items.shape[1]
    complete = items[~np.isnan(items).any(axis=1)]
    n = complete.shape[0]
    alpha = None
    if n_items >= 2 and n >= 2:
        total_var = complete.sum(axis=1).var(ddof=1)
        if total_var != 0.0:
            alpha = float(n_items / (n_items - 1) * (1.0 - complete.var(axis=0, ddof=1).sum() / total_var))
    return {"alpha": alpha, "n_respondents": n}


_INSTANCES = [(qid, instance) for qid in sorted(QUESTIONNAIRE_ITEMS) for instance in QUESTIONNAIRE_INSTANCES[qid]]


def questionnaire_alpha_reports(profiles: Profiles) -> list[dict]:
    """{"questionnaire", "instance", **cronbach_alpha} per questionnaire instance (7), users in user_id order."""
    return [{"questionnaire": qid, "instance": instance,
             **cronbach_alpha(profiles.static[:, answer_columns(qid, instance)])}
            for qid, instance in _INSTANCES]


def _group_label(item_indices: list[int], n_items: int) -> str:
    if len(item_indices) == n_items:
        return "all"
    if len(item_indices) > 1 and item_indices == list(range(item_indices[0], item_indices[-1] + 1)):
        return f"Q{item_indices[0]}-Q{item_indices[-1]}"
    return ", ".join(f"Q{i}" for i in item_indices)


def null_rates(profiles: Profiles) -> list[dict]:
    """{"questionnaire", "feature_group", "instance", "pct_null"}: percent null, per group of items sharing a rate."""
    rows = []
    if not len(profiles):
        return rows
    for qid, instance in _INSTANCES:
        nulls = np.isnan(profiles.static[:, answer_columns(qid, instance)]).sum(axis=0).tolist()  # ints for round()
        groups: dict[float, list[int]] = {}
        for i, n in enumerate(nulls, start=1):
            groups.setdefault(round(100.0 * n / len(profiles), 10), []).append(i)
        for p, idxs in sorted(groups.items(), key=lambda kv: kv[1][0]):
            rows.append({"questionnaire": qid, "feature_group": _group_label(idxs, QUESTIONNAIRE_ITEMS[qid]),
                         "instance": instance, "pct_null": p})
    return rows


def demographic_summary(profiles: Profiles) -> dict[str, dict]:
    """Min/max/mean/mode per demographic field over non-null values, {} for no users; the modes are fit_preprocess's."""
    if not len(profiles):
        return {}
    fields = list(DEMOGRAPHIC_FIELDS)
    block = profiles.static[:, : len(fields)]
    empty = [name for name, column in zip(fields, block.T) if np.isnan(column).all()]
    if empty:
        raise ValueError(f"no non-null values for demographic field {empty[0]!r}")
    out = {}
    for name, column, mode in zip(fields, block.T, fit_preprocess(TabularDataset(fields, block, None)).modes):
        values = column[~np.isnan(column)]
        out[name] = {"minimum": float(values.min()), "maximum": float(values.max()), "mean": float(values.mean()),
                     "mode": float(mode)}
    return out


def acquisition_distribution(windows: Windows) -> dict:
    """{"mean", "min", "max", "bins"} of each user's mean acquisitions per window; bins of 1, as [start, end, count]."""
    if not len(windows):
        raise ValueError("no window samples")
    _, user_row = np.unique(windows.user_id, return_inverse=True)
    values = np.bincount(user_row, weights=windows.values.sum(axis=1)) / np.bincount(user_row)
    edges = np.arange(0.0, 4.0 * WINDOW_SESSIONS + 1.0)
    counts, _ = np.histogram(values, bins=edges)
    return {"mean": float(values.mean()), "min": float(values.min()), "max": float(values.max()),
            "bins": [list(b) for b in zip(edges.tolist(), edges[1:].tolist(), counts.tolist())]}


def duplicate_analysis(ds: TabularDataset) -> dict:
    """Group rows by exact feature-tuple equality and split labels per group.

    The histogram maps each multiplicity to its number of tuples; duplicates holds the label 0 and
    label 1 counts of each tuple seen twice or more. Rows are compared as raw bytes (a void view of
    each row), so 0.0 and -0.0 differ and NaNs with equal bit patterns group together.
    """
    y = ds.y if ds.y is not None else np.zeros(ds.n_rows, dtype=np.int64)
    # a void view needs a contiguous last axis; a prefix of a C-order matrix has one, so it is no copy
    X = ds.X if ds.X.strides[-1] == ds.X.itemsize else np.ascontiguousarray(ds.X)
    # numpy has no zero-byte void type: the rows of a dataset with no column are one group
    rows = X.view(np.dtype((np.void, X.itemsize * ds.n_cols))).ravel() if ds.n_cols else np.zeros(ds.n_rows)
    _, group, multiplicity = np.unique(rows, return_inverse=True, return_counts=True)
    n_high = np.bincount(group, weights=y, minlength=len(multiplicity)).astype(np.int64)
    dup = multiplicity >= 2
    # most frequent first, then fewer low labels, then fewer high ones
    order = np.lexsort((n_high[dup], multiplicity[dup] - n_high[dup], -multiplicity[dup]))
    groups = zip(multiplicity[dup][order].tolist(), n_high[dup][order].tolist())
    return {
        "n_rows": ds.n_rows,
        "n_distinct": len(multiplicity),
        "multiplicity_histogram": dict(zip(*(a.tolist() for a in np.unique(multiplicity, return_counts=True)))),
        "duplicates": [{"multiplicity": m, "n_low": m - n, "n_high": n} for m, n in groups],
    }
