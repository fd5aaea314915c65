"""Incremental dataset variants with mode imputation and min-max scaling.

Variants nest: D0 holds the 12 session values; each later variant appends one
feature block (timestamp, demographics, then the questionnaires). Session
columns are never scaled; all other ("static") columns are min-max mapped to
[0, 1] using statistics fitted on training rows only.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import write_csv, write_json
from .ingestion import (
    DEMOGRAPHIC_FIELDS,
    QUESTIONNAIRE_INSTANCES,
    QUESTIONNAIRE_ITEMS,
    UserProfile,
)
from .sessionize import WINDOW_SESSIONS, WindowSample

S_COLUMNS = [f"S{i}" for i in range(1, WINDOW_SESSIONS + 1)]
TIMESTAMP_COLUMNS = ["week", "month", "year"]
DEMOGRAPHIC_COLUMNS = list(DEMOGRAPHIC_FIELDS)
LABEL_COLUMN = "A"

_S_PATTERN = re.compile(r"^S\d+$")


def _questionnaire_block(qid: str) -> list[str]:
    cols = []
    for instance in QUESTIONNAIRE_INSTANCES[qid]:
        cols += [f"{qid}{instance}_q{i}" for i in range(1, QUESTIONNAIRE_ITEMS[qid] + 1)]
    return cols


_VARIANT_BLOCKS = [
    ("D0", S_COLUMNS),
    ("D1", TIMESTAMP_COLUMNS),
    ("D2", DEMOGRAPHIC_COLUMNS),
    ("D3", _questionnaire_block("spq")),
    ("D4", _questionnaire_block("ucla")),
    ("D5", _questionnaire_block("eq5d3l")),
    ("D6", _questionnaire_block("utaut")),
]

VARIANTS = [name for name, _ in _VARIANT_BLOCKS]
VARIANT_COLUMNS: dict[str, list[str]] = {}
_cols: list[str] = []
for _name, _block in _VARIANT_BLOCKS:
    _cols = _cols + _block
    VARIANT_COLUMNS[_name] = list(_cols)
del _name, _block, _cols

VARIANT_COLUMN_COUNTS = {name: len(cols) for name, cols in VARIANT_COLUMNS.items()}


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


def build_variant(
    samples: list[WindowSample],
    profiles: dict[str, UserProfile],
    variant: str,
) -> TabularDataset:
    """Assemble one variant's feature matrix; nulls stay NaN until transform."""
    columns = variant_columns(variant)
    rows = np.empty((len(samples), len(columns)), dtype=np.float64)
    y = np.empty(len(samples), dtype=np.int64)
    static_cache: dict[str, list[float]] = {}
    for r, sample in enumerate(samples):
        feats = [float(v) for v in sample.values]
        if variant != "D0":
            feats += _timestamp_features(sample)
            if variant != "D1":
                if sample.user_id not in profiles:
                    raise ValueError(f"unknown user_id {sample.user_id!r}")
                cached = static_cache.get(sample.user_id)
                if cached is None:
                    cached = _static_features(profiles[sample.user_id], variant)
                    static_cache[sample.user_id] = cached
                feats += cached
        rows[r, :] = feats
        y[r] = sample.label
    return TabularDataset(variant=variant, column_names=columns, X=rows, y=y)


def _static_features(profile: UserProfile, variant: str) -> list[float]:
    feats = [_or_nan(getattr(profile, f)) for f in DEMOGRAPHIC_FIELDS]
    blocks = [("D3", "spq"), ("D4", "ucla"), ("D5", "eq5d3l"), ("D6", "utaut")]
    rank = VARIANTS.index(variant)
    for v, qid in blocks:
        if VARIANTS.index(v) > rank:
            break
        for instance in QUESTIONNAIRE_INSTANCES[qid]:
            feats += [_or_nan(a) for a in profile.items_for(qid, instance)]
    return feats


def _or_nan(v: int | None) -> float:
    return math.nan if v is None else float(v)


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


def write_dataset_csv(ds: TabularDataset, path: str | Path, metadata: dict | None = None) -> None:
    """Write the dataset plus a sidecar .meta.json describing it."""
    path = Path(path)

    def rows():
        for r in range(ds.n_rows):
            # Python floats from tolist() format about a third faster than numpy scalars
            row = [_format_cell(v) for v in ds.X[r].tolist()]
            if ds.y is not None:
                row.append(str(int(ds.y[r])))
            yield row

    write_csv(path, list(ds.column_names) + ([LABEL_COLUMN] if ds.y is not None else []), rows())
    meta = {
        "variant": ds.variant,
        "columns": list(ds.column_names),
        "n_rows": ds.n_rows,
    }
    if metadata:
        meta.update(metadata)
    write_json(path.with_suffix(path.suffix + ".meta.json"), meta)


def read_dataset_csv(path: str | Path) -> TabularDataset:
    """Read a dataset written by write_dataset_csv (sidecar optional)."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty dataset file, header expected")
        labeled = bool(header) and header[-1] == LABEL_COLUMN
        columns = header[:-1] if labeled else header
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
                cells = [math.nan if c == "" else float(c) for c in row[: len(columns)]]
                X_rows.append(cells)
                if labeled:
                    y_rows.append(int(float(row[len(columns)])))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    variant = None
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if meta_path.exists():
        with open(meta_path, encoding="utf-8") as fh:
            variant = json.load(fh).get("variant")
    if variant is None:
        matches = [v for v, n in VARIANT_COLUMN_COUNTS.items() if n == len(columns)]
        variant = matches[0] if matches and columns[: len(S_COLUMNS)] == S_COLUMNS else "custom"
    X = np.array(X_rows, dtype=np.float64).reshape(len(X_rows), len(columns))
    y = np.array(y_rows, dtype=np.int64) if labeled else None
    return TabularDataset(variant=variant, column_names=columns, X=X, y=y)
