"""Diagnostic statistics: correlations, internal consistency, null rates,
demographic summaries, acquisition distributions and duplicate-tuple analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass
class AlphaReport:
    questionnaire: str
    instance: int
    alpha: float | None
    n_respondents: int


def cronbach_alpha(items: np.ndarray, questionnaire: str = "", instance: int = 0) -> AlphaReport:
    """Internal-consistency alpha over a respondents x items matrix.

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
    if n_items < 2 or n < 2:
        return AlphaReport(questionnaire, instance, None, n)
    item_vars = complete.var(axis=0, ddof=1)
    total_var = complete.sum(axis=1).var(ddof=1)
    if total_var == 0.0:
        return AlphaReport(questionnaire, instance, None, n)
    alpha = n_items / (n_items - 1) * (1.0 - item_vars.sum() / total_var)
    return AlphaReport(questionnaire, instance, float(alpha), n)


_INSTANCES = [(qid, instance) for qid in sorted(QUESTIONNAIRE_ITEMS) for instance in QUESTIONNAIRE_INSTANCES[qid]]


def questionnaire_alpha_reports(profiles: Profiles) -> list[AlphaReport]:
    """One alpha per administered questionnaire instance (7 rows), over users in user_id order."""
    return [cronbach_alpha(profiles.static[:, answer_columns(qid, instance)], questionnaire=qid, instance=instance)
            for qid, instance in _INSTANCES]


@dataclass
class NullRateRow:
    questionnaire: str
    feature_group: str
    instance: int
    pct_null: float


def _group_label(item_indices: list[int], n_items: int) -> str:
    if len(item_indices) == n_items:
        return "all"
    if len(item_indices) > 1 and item_indices == list(range(item_indices[0], item_indices[-1] + 1)):
        return f"Q{item_indices[0]}-Q{item_indices[-1]}"
    return ", ".join(f"Q{i}" for i in item_indices)


def null_rates(profiles: Profiles) -> list[NullRateRow]:
    """Percentage of users with null answers, grouped by items sharing a rate."""
    rows: list[NullRateRow] = []
    if not len(profiles):
        return rows
    for qid, instance in _INSTANCES:
        nulls = np.isnan(profiles.static[:, answer_columns(qid, instance)]).sum(axis=0).tolist()  # ints for round()
        groups: dict[float, list[int]] = {}
        for i, n in enumerate(nulls, start=1):
            groups.setdefault(round(100.0 * n / len(profiles), 10), []).append(i)
        for p, idxs in sorted(groups.items(), key=lambda kv: kv[1][0]):
            rows.append(NullRateRow(qid, _group_label(idxs, QUESTIONNAIRE_ITEMS[qid]), instance, p))
    return rows


@dataclass
class FieldSummary:
    minimum: float
    maximum: float
    mean: float
    mode: float


def demographic_summary(profiles: Profiles) -> dict[str, FieldSummary]:
    """Min/max/mean/mode per demographic field over non-null values, {} for no users; the modes are fit_preprocess's."""
    if not len(profiles):
        return {}
    fields = list(DEMOGRAPHIC_FIELDS)
    block = profiles.static[:, : len(fields)]
    empty = [name for name, column in zip(fields, block.T) if np.isnan(column).all()]
    if empty:
        raise ValueError(f"no non-null values for demographic field {empty[0]!r}")
    out: dict[str, FieldSummary] = {}
    for name, column, mode in zip(fields, block.T, fit_preprocess(TabularDataset(fields, block, None)).modes):
        values = column[~np.isnan(column)]
        out[name] = FieldSummary(
            minimum=float(values.min()),
            maximum=float(values.max()),
            mean=float(values.mean()),
            mode=float(mode),
        )
    return out


@dataclass(frozen=True)
class HistogramBin:
    start: float
    end: float
    count: int


@dataclass
class AcquisitionStats:
    per_user_mean: dict[str, float]  # mean window sum per user
    mean: float
    minimum: float
    maximum: float
    bins: list[HistogramBin]


def acquisition_distribution(windows: Windows) -> AcquisitionStats:
    """Distribution of the per-user average number of acquisitions per window, in bins of 1."""
    if not len(windows):
        raise ValueError("no window samples")
    users, user_row = np.unique(windows.user_id, return_inverse=True)
    values = np.bincount(user_row, weights=windows.values.sum(axis=1)) / np.bincount(user_row)
    per_user = dict(zip(users.tolist(), values.tolist()))
    top = 4.0 * WINDOW_SESSIONS
    edges = np.arange(0.0, top + 1.0)
    counts, _ = np.histogram(values, bins=edges)
    bins = [
        HistogramBin(float(edges[i]), float(edges[i + 1]), int(c))
        for i, c in enumerate(counts)
    ]
    return AcquisitionStats(
        per_user_mean=per_user,
        mean=float(values.mean()),
        minimum=float(values.min()),
        maximum=float(values.max()),
        bins=bins,
    )


@dataclass(frozen=True)
class DuplicateGroup:
    multiplicity: int
    n_low: int  # label 0 occurrences
    n_high: int  # label 1 occurrences


@dataclass
class DuplicateReport:
    n_rows: int
    n_distinct: int
    multiplicity_histogram: dict[int, int]  # multiplicity -> number of tuples
    duplicates: list[DuplicateGroup]  # groups with multiplicity >= 2


def duplicate_analysis(ds: TabularDataset) -> DuplicateReport:
    """Group rows by exact feature-tuple equality and split labels per group.

    Rows are compared as raw bytes (a void view of each row), so 0.0 and -0.0
    differ and NaNs with equal bit patterns group together.
    """
    y = ds.y if ds.y is not None else np.zeros(ds.n_rows, dtype=np.int64)
    # numpy has no zero-byte void type: the rows of a dataset with no column are one group
    rows = ds.X.view(np.dtype((np.void, ds.X.itemsize * ds.n_cols))).ravel() if ds.n_cols else np.zeros(ds.n_rows)
    _, group, multiplicity = np.unique(rows, return_inverse=True, return_counts=True)
    n_high = np.bincount(group, weights=y, minlength=len(multiplicity)).astype(np.int64)
    dup = multiplicity >= 2
    # most frequent first, then fewer low labels, then fewer high ones
    order = np.lexsort((n_high[dup], multiplicity[dup] - n_high[dup], -multiplicity[dup]))
    groups = zip(multiplicity[dup][order].tolist(), n_high[dup][order].tolist())
    return DuplicateReport(
        n_rows=ds.n_rows,
        n_distinct=len(multiplicity),
        multiplicity_histogram=dict(zip(*(a.tolist() for a in np.unique(multiplicity, return_counts=True)))),
        duplicates=[DuplicateGroup(m, m - n, n) for m, n in groups],
    )
