"""Incremental dataset variants with mode imputation and min-max scaling.

Variants nest: D0 holds the 12 session values; each later variant appends one
feature block (timestamp, demographics, then the questionnaires). Session
columns are never scaled; all other ("static") columns are min-max mapped to
[0, 1] using statistics fitted on training rows only.
"""

from __future__ import annotations

import math
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from .artifact import read_csv, write_csv_lines
from .ingestion import STATIC_BLOCKS, Profiles
from .sessionize import WINDOW_SESSIONS, Windows

S_COLUMNS = [f"S{i}" for i in range(1, WINDOW_SESSIONS + 1)]
TIMESTAMP_COLUMNS = ["week", "month", "year"]
LABEL_COLUMN = "A"

_S_PATTERN = re.compile(r"^S\d+$")


# The schema: variant Dk holds blocks 0..k, so every variant is a prefix of D6. The blocks after
# the timestamps hold each user's static values, in the order ingestion stores them.
_BLOCKS = [S_COLUMNS, TIMESTAMP_COLUMNS, *STATIC_BLOCKS]
_D6_COLUMNS = [c for block in _BLOCKS for c in block]

VARIANTS = [f"D{k}" for k in range(len(_BLOCKS))]
VARIANT_COLUMN_COUNTS = dict(zip(VARIANTS, accumulate(map(len, _BLOCKS))))
VARIANT_COLUMNS = {name: _D6_COLUMNS[:n] for name, n in VARIANT_COLUMN_COUNTS.items()}


@dataclass
class TabularDataset:
    column_names: list[str]
    X: np.ndarray  # float64, NaN marks null
    y: np.ndarray | None  # {0,1} labels, None for unlabeled feature files
    # the CSV lines of the rows of a dataset this one is a prefix of, which write_dataset_csv cuts
    csv_lines: "CsvLines | None" = field(default=None, repr=False, compare=False)

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

    @property
    def variant(self) -> str:
        """D0..D6 when the columns are exactly that variant's, else "custom"."""
        return next((v for v, cols in VARIANT_COLUMNS.items() if cols == self.column_names), "custom")

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

    def prefix(self, variant: str) -> "TabularDataset":
        """The leading columns that make up ``variant``, with every row and label."""
        columns = VARIANT_COLUMNS.get(variant)
        if columns is None or self.column_names[: len(columns)] != columns:
            raise ValueError(f"variant {variant!r} is not a column prefix of this dataset; variants are {VARIANTS}")
        return TabularDataset(list(columns), self.X[:, : len(columns)], self.y, self.csv_lines)

    def with_csv_lines(self) -> "TabularDataset":
        """This dataset with a CsvLines of its rows, which every prefix() of it shares."""
        return replace(self, csv_lines=CsvLines(self.X))

    def static_mask(self) -> np.ndarray:
        """True for columns subject to scaling (everything but S1..S12)."""
        return np.array([not _S_PATTERN.match(c) for c in self.column_names], dtype=bool)


def static_matrix(profiles: Profiles, users) -> np.ndarray:
    """The row of STATIC_COLUMNS of each user in users, gathered from profiles.static; nulls are NaN."""
    users = np.asarray(users, dtype=str)
    unknown = users[~np.isin(users, profiles.user_id)]
    if len(unknown):
        raise ValueError(f"unknown user_id {unknown[0].item()!r}")
    return profiles.static[np.searchsorted(profiles.user_id, users)]


def build_variant(windows: Windows, profiles: Profiles) -> TabularDataset:
    """Assemble D6 from its sessions, timestamps and each user's static values; nulls stay NaN.

    Every other variant is a prefix of it: ``build_variant(windows, profiles).prefix("D3")``.
    The timestamps (ISO week, month, year) are computed once per distinct window end date.
    """
    dates, date_row = np.unique(windows.end_date, return_inverse=True)
    stamps = np.array([[d.isocalendar().week, d.month, d.year] for d in dates.tolist()], dtype=np.float64)
    stamps = stamps.reshape(-1, len(TIMESTAMP_COLUMNS))  # (0, 3) when there are no windows
    X = np.hstack([windows.values, stamps[date_row], static_matrix(profiles, windows.user_id)])
    return TabularDataset(column_names=list(_D6_COLUMNS), X=X, y=windows.label)


@dataclass
class PreprocessState:
    column_names: list[str]
    modes: np.ndarray  # imputation value per column
    scale_min: np.ndarray  # NaN on non-static columns
    scale_max: np.ndarray
    static: np.ndarray  # bool mask
    fitted_on: int

    def __post_init__(self) -> None:
        n = len(self.column_names)
        if [np.shape(a) for a in (self.modes, self.scale_min, self.scale_max, self.static)] != [(n,)] * 4:
            raise ValueError(f"modes, scale_min, scale_max and static must hold one entry per column ({n})")
        if np.asarray(self.static).dtype != bool:
            raise ValueError("static must be a boolean mask")


_MAX_CODE = 32  # a column of integers in [0, _MAX_CODE] is its own codes


class ColumnCodes:
    """A matrix encoded column by column: the preprocessing statistics and the tree histograms of its rows are counts.

    Column j owns the slots from start[j] on: its distinct values in ascending order, and one null
    slot (NaN) last if it holds a null. A column of integers in [0, _MAX_CODE] owns the slots 0..max
    instead, one per integer, so that each cell is its own code, with no sort. codes[j, i] is the
    slot of cell (i, j) counted from start[j], in the narrowest unsigned type that holds every code;
    totals holds each slot's count over all rows, and width is the most slots of any column. Cells
    are encoded as x + 0.0, so -0.0 is +0.0 and a zero statistic is always +0.0.
    """

    def __init__(self, X: np.ndarray) -> None:
        values, codes, totals = [], [], []
        for column in X.T:
            column = column + 0.0
            if column.size and 0 <= column.min() and column.max() <= _MAX_CODE \
                    and np.array_equal(column, column.astype(np.uint8)):  # a null fails the first test
                distinct = np.arange(column.max() + 1)
                code = column.astype(np.uint8)
            else:
                distinct = np.unique(column)  # ascending, and the NaNs last, as one
                code = np.searchsorted(distinct, column)  # NaN sorts last, so a null cell finds the null slot
            values.append(distinct)
            codes.append(code.astype(np.min_scalar_type(distinct.size - 1)))  # one column at a time
            totals.append(np.bincount(code, minlength=distinct.size))
        sizes = np.array([v.size for v in values], dtype=np.intp)
        self.width = sizes.max(initial=1)
        self.start = np.cumsum(sizes) - sizes
        self.column = np.repeat(np.arange(sizes.size), sizes)  # the column of each slot
        self.values = np.concatenate([[], *values])
        self.totals = np.concatenate([np.zeros(0, dtype=np.intp), *totals])
        self.codes = np.array(codes, dtype=np.min_scalar_type(self.width - 1)).reshape(sizes.size, X.shape[0])


def fit_preprocess(ds: TabularDataset, held_out: np.ndarray = (), codes: ColumnCodes | None = None) -> PreprocessState:
    """Learn imputation modes and static-column min/max from the rows of ds not in held_out.

    codes is ColumnCodes(ds.X), encoded here if not given. Cross-validation encodes the dataset once
    and holds out each fold's validation rows (distinct indices), so a fold's counts are the totals
    minus theirs. Per column the mode is the most frequent non-null value, a tie taking the smallest,
    and min and max are the smallest and largest non-null values; a column without one gives 0.0 for
    all three. The imputed column has the same min and max, because its mode is one of its values.
    """
    enc = ColumnCodes(ds.X) if codes is None else codes
    held_out = np.asarray(held_out, dtype=np.intp)
    if ds.n_rows - held_out.size < 1:
        raise ValueError("cannot fit preprocessing on an empty dataset")
    keys = enc.codes[:, held_out] + enc.start[:, None]  # intp, whatever the type of the codes
    counts = enc.totals - np.bincount(keys.ravel(), minlength=enc.totals.size)
    present = (counts > 0) & ~np.isnan(enc.values)
    slot = np.arange(counts.size)
    none = counts.size  # the slot past every column's: value[none], which is value[-1], is 0.0
    value = np.append(enc.values, 0.0)

    def ends(where: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per column, the values of the first and of the last slot where `where` holds, else 0.0."""
        first = np.minimum.reduceat(np.where(where, slot, none), enc.start)
        last = np.maximum.reduceat(np.where(where, slot, -1), enc.start)
        return value[first], value[last]

    best = np.maximum.reduceat(np.where(present, counts, 0), enc.start)
    modes, _ = ends(present & (counts == best[enc.column]))
    scale_min, scale_max = ends(present)
    static = ds.static_mask()
    return PreprocessState(
        column_names=list(ds.column_names),
        modes=modes,
        scale_min=np.where(static, scale_min, np.nan),
        scale_max=np.where(static, scale_max, np.nan),
        static=static,
        fitted_on=ds.n_rows - held_out.size,
    )


def transform(ds: TabularDataset, state: PreprocessState, rows: np.ndarray | None = None) -> TabularDataset:
    """Impute nulls and min-max scale static columns into [0, 1], on the rows of ds that rows selects.

    rows is a boolean mask or an index array, and None selects every row. One affine map per
    column: a scaled column takes (x - min) / (max - min) clipped to [0, 1], which clamps
    out-of-range validation rows; every other column takes (x - 0) / 1, which leaves it exactly
    as imputed. A static column that was constant at fit time maps to 0.
    """
    if list(ds.column_names) != state.column_names:
        raise ValueError("dataset columns do not match the fitted preprocessing state")
    rows = np.arange(ds.n_rows) if rows is None else rows
    span = state.scale_max - state.scale_min
    scaled = state.static & (span > 0)
    X = ds.X[rows]  # a gather, so a copy, which the map below changes in place
    np.copyto(X, state.modes, where=np.isnan(X))
    X -= np.where(scaled, state.scale_min, 0.0)
    X /= np.where(scaled, span, 1.0)
    # clip by comparison, as np.clip does with scalar bounds; with array bounds it turns -0.0 into 0.0
    np.copyto(X, 0.0, where=scaled & (X < 0.0))
    np.copyto(X, 1.0, where=scaled & (X > 1.0))
    X[:, state.static & ~scaled] = 0.0
    return TabularDataset(list(ds.column_names), X, None if ds.y is None else ds.y[rows])


# ---------------------------------------------------------------------------
# CSV round trip

_BLOCK_ROWS = 256  # rows a dataset CSV is formatted in at a time, which bounds the writer's memory
_MEMO_TEXTS = 4096  # distinct cell texts whose value the reader keeps


def _format_cell(v: float) -> str:
    if math.isnan(v):
        return ""
    if abs(v) < 1e15 and v == int(v):  # abs first: int() overflows on +-inf
        return str(int(v))
    return repr(float(v))  # shortest exact round-trip representation


def _formatted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_format_cell of each cell, and that text's length, called once per distinct value.

    NaNs are one value, and so are 0.0 and -0.0.
    """
    distinct, inverse = np.unique(values.ravel(), return_inverse=True)
    text = [_format_cell(v) for v in distinct.tolist()]
    lengths = np.array([len(t) for t in text], dtype=np.intp)
    return np.array(text, dtype=object)[inverse].reshape(values.shape), lengths[inverse].reshape(values.shape)


def _joined_rows(X: np.ndarray, widths: list[int]) -> Iterator[tuple[list[str], np.ndarray]]:
    """Per block of rows, each row's cells joined by ",", and where in each line the first w cells end, for each w in widths."""
    for start in range(0, len(X), _BLOCK_ROWS):
        cells, lengths = _formatted(X[start : start + _BLOCK_ROWS])
        ends = np.cumsum(lengths + 1, axis=1)[:, [w - 1 for w in widths]] - 1  # a comma after each cell but the last
        lines = [",".join(row) for row in cells.tolist()]
        del cells  # before the next block's cells are made
        yield lines, ends


class CsvLines:
    """The rows of a matrix as the lines of its dataset CSV, formatted on first use and then kept.

    A dataset and every prefix() of it share one, so that build formats each cell once however
    many variants it writes: the line of a prefix is the row's line cut where the prefix's last
    column ends. The cuts kept are the variants' widths, the only prefixes there are.
    """

    def __init__(self, X: np.ndarray) -> None:
        self._width = X.shape[1]
        self._widths = [w for w in VARIANT_COLUMN_COUNTS.values() if w < self._width]
        self._X = X
        self._blocks: list[tuple[list[str], np.ndarray]] | None = None

    def blocks(self, width: int) -> Iterator[list[str]]:
        """Each block's lines of the rows' first width cells; the first call formats every row."""
        if self._blocks is None:
            self._blocks = list(_joined_rows(self._X, self._widths))
            self._X = None
        if width == self._width:
            return (lines for lines, _ in self._blocks)
        k = self._widths.index(width)
        return ([line[:end] for line, end in zip(lines, ends[:, k].tolist())] for lines, ends in self._blocks)


def write_dataset_csv(ds: TabularDataset, path: str | Path) -> None:
    """Write the dataset as CSV; its header alone names its variant (see read_dataset_csv).

    Rows are formatted a block at a time, each distinct value once per block, and each row's cells
    are joined once. The bytes equal one _format_cell per cell: equal floats format alike (0.0 and
    -0.0 both as "0"), and every NaN as "". A dataset with csv_lines cuts its lines from them; any
    other formats its own, and holds one block of them at a time.
    """
    if ds.csv_lines is None:
        blocks = (lines for lines, _ in _joined_rows(ds.X, []))
    else:
        blocks = ds.csv_lines.blocks(ds.n_cols)
    labeled = ds.y is not None
    if labeled:
        labels = iter(ds.y.tolist())  # map stops at the end of a block's lines, before it takes a label
        blocks = (list(map("{},{}".format, lines, labels)) for lines in blocks)
    write_csv_lines(path, list(ds.column_names) + ([LABEL_COLUMN] if labeled else []), blocks, ds.n_cols + labeled)


class _CellValues(dict):
    """The value of each cell text met so far, float() called once per text; the empty cell is NaN.

    It stops storing new texts at _MEMO_TEXTS, so that a file of distinct cells keeps no more.
    """

    def __missing__(self, text: str) -> float:
        value = float(text)
        if len(self) < _MEMO_TEXTS:
            self[text] = value
        return value


def read_dataset_csv(path: str | Path) -> TabularDataset:
    """Read a dataset CSV; its header names the variant (D0..D6 on an exact match, else "custom").

    Each row's cells are appended to one flat buffer of doubles, which becomes X without a copy;
    each distinct cell text is parsed once (see _CellValues).
    """
    path = Path(path)
    rows = read_csv(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty dataset file, header expected")
    labeled = bool(header) and header[-1] == LABEL_COLUMN
    columns = header[:-1] if labeled else header
    if not columns:
        raise ValueError(f"{path}: no feature columns in the header")
    value = _CellValues({"": math.nan}).__getitem__
    cells = array("d")
    y_rows = []
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line}: {len(row)} cell(s), but the header has {len(header)}")
        try:
            cells.fromlist(list(map(value, row[: len(columns)])))
            if labeled:
                label = float(row[-1])
                if label not in (0.0, 1.0):
                    raise ValueError(f"label {row[-1]!r} is not 0 or 1")
                y_rows.append(label == 1.0)  # a bool is shared, a float is 24 bytes per row
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    y = np.array(y_rows, dtype=np.int64) if labeled else None
    return TabularDataset(column_names=columns, X=np.frombuffer(cells).reshape(-1, len(columns)), y=y)
