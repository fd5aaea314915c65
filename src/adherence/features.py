"""Incremental dataset variants with mode imputation and min-max scaling.

Variants nest: D0 holds the 12 session values; each later variant appends one
feature block (timestamp, demographics, then the questionnaires). Session
columns are never scaled; all other ("static") columns are min-max mapped to
[0, 1] using statistics fitted on training rows only.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .artifact import write_csv
from .ingestion import (
    DEMOGRAPHIC_FIELDS,
    QUESTIONNAIRE_INSTANCES,
    QUESTIONNAIRE_ITEMS,
    UserProfile,
)
from .sessionize import WINDOW_SESSIONS, WindowSample

S_COLUMNS = [f"S{i}" for i in range(1, WINDOW_SESSIONS + 1)]
TIMESTAMP_COLUMNS = ["week", "month", "year"]
LABEL_COLUMN = "A"

_S_PATTERN = re.compile(r"^S\d+$")


def _questionnaire_block(qid: str) -> list[str]:
    items = range(1, QUESTIONNAIRE_ITEMS[qid] + 1)
    return [f"{qid}{instance}_q{i}" for instance in QUESTIONNAIRE_INSTANCES[qid] for i in items]


# The questionnaires of D3..D6, in the order their blocks are appended.
_QUESTIONNAIRES = ("spq", "ucla", "eq5d3l", "utaut")
# The schema: variant Dk holds blocks 0..k, so every variant is a prefix of D6.
_BLOCKS = [S_COLUMNS, TIMESTAMP_COLUMNS, list(DEMOGRAPHIC_FIELDS), *map(_questionnaire_block, _QUESTIONNAIRES)]
_D6_COLUMNS = [c for block in _BLOCKS for c in block]

VARIANTS = [f"D{k}" for k in range(len(_BLOCKS))]
VARIANT_COLUMN_COUNTS = dict(zip(VARIANTS, accumulate(map(len, _BLOCKS))))
VARIANT_COLUMNS = {name: _D6_COLUMNS[:n] for name, n in VARIANT_COLUMN_COUNTS.items()}


def variant_columns(variant: str) -> list[str]:
    if variant not in VARIANT_COLUMNS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return list(VARIANT_COLUMNS[variant])


@dataclass
class TabularDataset:
    variant: str
    column_names: list[str]
    X: np.ndarray  # float64, NaN marks null
    y: np.ndarray | None  # {0,1} labels, None for unlabeled feature files

    def __post_init__(self) -> None:
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if self.X.shape[1] != len(self.column_names):
            raise ValueError("column_names length must match X width")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.int64)
            if self.y.shape != (self.X.shape[0],):
                raise ValueError("labels must align with rows")
        if self.variant in VARIANT_COLUMN_COUNTS and len(self.column_names) != VARIANT_COLUMN_COUNTS[self.variant]:
            raise ValueError(
                f"variant {self.variant} requires {VARIANT_COLUMN_COUNTS[self.variant]} columns, "
                f"got {len(self.column_names)}"
            )

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]

    def labels(self) -> np.ndarray:
        if self.y is None:
            raise ValueError("dataset carries no labels")
        return self.y

    def subset(self, rows: np.ndarray) -> "TabularDataset":
        y = None if self.y is None else self.y[rows]
        return TabularDataset(self.variant, list(self.column_names), self.X[rows], y)

    def static_mask(self) -> np.ndarray:
        """True for columns subject to scaling (everything but S1..S12)."""
        return np.array([not _S_PATTERN.match(c) for c in self.column_names], dtype=bool)


def _timestamp_features(sample: WindowSample) -> list[float]:
    iso = sample.window_end_date.isocalendar()
    return [float(iso.week), float(sample.window_end_date.month), float(sample.window_end_date.year)]


def _static_features(profile: UserProfile) -> list[float]:
    """The user's D6 values after the timestamps: demographics, then every questionnaire."""
    values = [getattr(profile, f) for f in DEMOGRAPHIC_FIELDS]
    for qid in _QUESTIONNAIRES:
        for instance in QUESTIONNAIRE_INSTANCES[qid]:
            values += profile.items_for(qid, instance)
    return [math.nan if v is None else float(v) for v in values]


def _matrix(rows: list, width: int) -> np.ndarray:
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def build_variant(
    samples: list[WindowSample],
    profiles: dict[str, UserProfile],
    variant: str,
) -> TabularDataset:
    """Assemble one variant's columns: the D6 blocks it needs, cut to its width; nulls stay NaN."""
    columns = variant_columns(variant)
    n_d0, n_d1 = VARIANT_COLUMN_COUNTS["D0"], VARIANT_COLUMN_COUNTS["D1"]
    blocks = [_matrix([s.values for s in samples], n_d0)]
    if len(columns) > n_d0:
        blocks.append(_matrix([_timestamp_features(s) for s in samples], n_d1 - n_d0))
    if len(columns) > n_d1:
        users = list(dict.fromkeys(s.user_id for s in samples))
        unknown = [u for u in users if u not in profiles]
        if unknown:
            raise ValueError(f"unknown user_id {unknown[0]!r}")
        static = _matrix([_static_features(profiles[u]) for u in users], len(_D6_COLUMNS) - n_d1)
        row_of = {u: i for i, u in enumerate(users)}
        blocks.append(static[[row_of[s.user_id] for s in samples]])
    y = np.array([s.label for s in samples], dtype=np.int64)
    return TabularDataset(variant=variant, column_names=columns, X=np.hstack(blocks)[:, : len(columns)], y=y)


@dataclass
class PreprocessState:
    column_names: list[str]
    modes: np.ndarray  # imputation value per column
    scale_min: np.ndarray  # NaN on non-static columns
    scale_max: np.ndarray
    static: np.ndarray  # bool mask
    fitted_on: int


def column_mode(values: np.ndarray) -> float:
    """Most frequent non-null value; ties take the smallest; all-null gives 0."""
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return 0.0
    uniq, counts = np.unique(finite, return_counts=True)
    return float(uniq[np.argmax(counts)])  # np.unique sorts, so argmax tie -> smallest


def fit_preprocess(ds: TabularDataset) -> PreprocessState:
    """Learn imputation modes and static-column min/max from training rows."""
    if ds.n_rows < 1:
        raise ValueError("cannot fit preprocessing on an empty dataset")
    modes = np.array([column_mode(ds.X[:, j]) for j in range(ds.n_cols)])
    static = ds.static_mask()
    imputed = np.where(np.isnan(ds.X), modes[None, :], ds.X)
    scale_min = np.full(ds.n_cols, np.nan)
    scale_max = np.full(ds.n_cols, np.nan)
    scale_min[static] = imputed[:, static].min(axis=0)
    scale_max[static] = imputed[:, static].max(axis=0)
    return PreprocessState(
        column_names=list(ds.column_names),
        modes=modes,
        scale_min=scale_min,
        scale_max=scale_max,
        static=static,
        fitted_on=ds.n_rows,
    )


def transform(ds: TabularDataset, state: PreprocessState) -> TabularDataset:
    """Impute nulls and min-max scale static columns into [0, 1].

    Out-of-range values (possible on validation rows) are clamped; a column
    that was constant at fit time maps to 0.
    """
    if list(ds.column_names) != state.column_names:
        raise ValueError("dataset columns do not match the fitted preprocessing state")
    X = np.where(np.isnan(ds.X), state.modes[None, :], ds.X)
    static = state.static
    lo = state.scale_min[static]
    hi = state.scale_max[static]
    span = hi - lo
    block = X[:, static]
    scaled = np.zeros_like(block)
    nonconst = span > 0
    scaled[:, nonconst] = np.clip((block[:, nonconst] - lo[nonconst]) / span[nonconst], 0.0, 1.0)
    X[:, static] = scaled
    return TabularDataset(ds.variant, list(ds.column_names), X, None if ds.y is None else ds.y.copy())


# ---------------------------------------------------------------------------
# CSV round trip

def _format_cell(v: float) -> str:
    if math.isnan(v):
        return ""
    if abs(v) < 1e15 and v == int(v):  # abs first: int() overflows on +-inf
        return str(int(v))
    return repr(float(v))  # shortest exact round-trip representation


def write_dataset_csv(ds: TabularDataset, path: str | Path) -> None:
    """Write the dataset as CSV; its header alone names its variant (see read_dataset_csv)."""

    def rows():
        for r in range(ds.n_rows):
            # Python floats from tolist() format about a third faster than numpy scalars
            row = [_format_cell(v) for v in ds.X[r].tolist()]
            if ds.y is not None:
                row.append(str(int(ds.y[r])))
            yield row

    write_csv(path, list(ds.column_names) + ([LABEL_COLUMN] if ds.y is not None else []), rows())


def read_dataset_csv(path: str | Path) -> TabularDataset:
    """Read a dataset CSV; its header names the variant (D0..D6 on an exact match, else "custom")."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty dataset file, header expected")
        labeled = bool(header) and header[-1] == LABEL_COLUMN
        columns = header[:-1] if labeled else header
        if not columns:
            raise ValueError(f"{path}: no feature columns in the header")
        X_rows = []
        y_rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: {len(row)} cell(s), but the header has {len(header)}"
                )
            try:
                X_rows.append([math.nan if c == "" else float(c) for c in row[: len(columns)]])
                if labeled:
                    y_rows.append(float(row[-1]))
                    if y_rows[-1] not in (0.0, 1.0):
                        raise ValueError(f"label {row[-1]!r} is not 0 or 1")
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    variant = next((v for v, cols in VARIANT_COLUMNS.items() if cols == columns), "custom")
    y = np.array(y_rows, dtype=np.int64) if labeled else None
    return TabularDataset(variant=variant, column_names=columns, X=_matrix(X_rows, len(columns)), y=y)
