import math
import tempfile
import tracemalloc
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import reference
from adherence import cli, features
from adherence.artifact import write_csv
from adherence.features import (
    LABEL_COLUMN,
    S_COLUMNS,
    VARIANT_COLUMN_COUNTS,
    VARIANT_COLUMNS,
    VARIANTS,
    ColumnCodes,
    PreprocessState,
    TabularDataset,
    _format_cell,
    build_variant,
    fit_preprocess,
    read_dataset_csv,
    static_matrix,
    transform,
    write_dataset_csv,
)
from adherence.ingestion import STATIC_COLUMNS
from adherence.sessionize import windows_for_database

from conftest import make_dataset, make_profiles, make_windows


EXPECTED_COUNTS = {"D0": 12, "D1": 15, "D2": 22, "D3": 34, "D4": 74, "D5": 84, "D6": 115}


SAMPLE_VALUES = (1, 0, 2, 0, 0, 3, 0, 1, 0, 0, 4, 2)


def sample_for(user_id="u1", end=date(2018, 11, 5)):
    """A one-window table."""
    return make_windows((user_id, SAMPLE_VALUES, (1, 1, 0), 1, end))


def profile_for(user_id="u1"):
    """A one-user table: every demographic field, spq at instance 1 and ucla at instance 3."""
    return make_profiles([user_id], status=["Finished"], birth_year=[1943], education=[2], technology=[1],
                         living_environment=[1], living_conditions=[1], living_status=[2], use_case=[5],
                         spq1=[(1, 2, 3, 4, 5, 1)], ucla3=[(2,) * 20])


class TestVariantColumns:
    def test_exact_counts(self):
        assert VARIANT_COLUMN_COUNTS == EXPECTED_COUNTS

    def test_counts_on_synthetic_pipeline(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        d6 = build_variant(windows, small_cleansed.profiles)
        for variant, count in EXPECTED_COUNTS.items():
            ds = d6.prefix(variant)
            assert ds.n_cols == count
            assert ds.n_rows == len(windows)
            assert ds.variant == variant
        assert make_dataset(d6.X[:, :13], d6.y, columns=d6.column_names[:13]).variant == "custom"

    def test_nesting_prefix_property(self):
        for prev, cur in zip(VARIANTS, VARIANTS[1:]):
            a, b = VARIANT_COLUMNS[prev], VARIANT_COLUMNS[cur]
            assert b[: len(a)] == a and len(b) > len(a)

    def test_unknown_variant(self):
        d6 = build_variant(sample_for(), profile_for())
        with pytest.raises(ValueError, match="'D7' is not a column prefix"):
            d6.prefix("D7")

    def test_prefix_of_a_narrower_dataset_rejected(self):
        d2 = build_variant(sample_for(), profile_for()).prefix("D2")
        assert d2.prefix("D1").column_names == VARIANT_COLUMNS["D1"]
        with pytest.raises(ValueError, match="'D3' is not a column prefix"):
            d2.prefix("D3")
        renamed = make_dataset(d2.X, d2.y, columns=["s1", *d2.column_names[1:]])
        with pytest.raises(ValueError, match="'D0' is not a column prefix"):
            renamed.prefix("D0")

    def test_prefix_shares_its_parents_memory(self, small_cleansed):
        d6 = build_variant(windows_for_database(small_cleansed), small_cleansed.profiles)
        for variant in VARIANTS:
            assert np.shares_memory(d6.prefix(variant).X, d6.X)
        assert np.array_equal(d6.prefix("D3").X, d6.X[:, : VARIANT_COLUMN_COUNTS["D3"]], equal_nan=True)

    def test_user_id_never_a_feature(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles)
        assert "user_id" not in ds.column_names


class TestBuildVariant:
    def test_unknown_user_errors(self):
        with pytest.raises(ValueError, match="unknown user_id"):
            build_variant(sample_for("ghost"), profile_for())

    def test_timestamp_features(self):
        ds = build_variant(sample_for(end=date(2018, 11, 5)), profile_for())
        week, month, year = ds.X[0, 12:15]
        assert (week, month, year) == (45, 11, 2018)

    def test_timestamps_per_window_over_repeated_dates(self):
        ends = [date(2019, 12, 30), date(2018, 11, 5), date(2019, 12, 30), date(2019, 1, 4)]
        windows = make_windows(*((u, SAMPLE_VALUES, (1, 1, 0), 1, d) for u, d in zip(["u2", "u1", "u1", "u2"], ends)))
        profiles = make_profiles(["u1", "u2"], status=["Finished", None], birth_year=[1943, None])
        ds = build_variant(windows, profiles)
        assert ds.X[:, 12:15].tolist() == [[1, 12, 2019], [45, 11, 2018], [1, 12, 2019], [1, 1, 2019]]
        assert ds.X[[1, 2], 15].tolist() == [1943, 1943]  # u1's birth year; u2 has no static value
        assert np.isnan(ds.X[[0, 3], 15:]).all()

    def test_static_matrix_rows_follow_users(self):
        profiles = make_profiles(["u1", "u2"], birth_year=[1943, 1950], spq1=[(1, 2, 3, 4, 5, 1), None])
        m = static_matrix(profiles, ["u2", "u1"])
        assert m.shape == (2, len(STATIC_COLUMNS)) and STATIC_COLUMNS == VARIANT_COLUMNS["D6"][15:]
        assert m[0, 0] == 1950 and np.isnan(m[0, 1:]).all()
        assert m[1, STATIC_COLUMNS.index("spq1_q3")] == 3 and np.isnan(m[1, STATIC_COLUMNS.index("spq3_q3")])
        with pytest.raises(ValueError, match="unknown user_id 'ghost'"):
            static_matrix(profiles, ["u1", "ghost"])
        with pytest.raises(ValueError, match="unknown user_id 'zz'"):  # sorts after every user
            static_matrix(profiles, ["zz"])

    def test_nulls_become_nan(self):
        # ucla instance 1 unanswered -> NaN block in D4
        ds = build_variant(sample_for(), profile_for()).prefix("D4")
        cols = ds.column_names
        ucla1 = [i for i, c in enumerate(cols) if c.startswith("ucla1_")]
        ucla3 = [i for i, c in enumerate(cols) if c.startswith("ucla3_")]
        assert np.isnan(ds.X[0, ucla1]).all()
        assert (ds.X[0, ucla3] == 2).all()

    def test_d0_needs_no_profiles(self):
        # D0 uses no profile value, but D6, which D0 is cut from, needs every window's user.
        ds = build_variant(sample_for(), make_profiles(["u1"])).prefix("D0")
        assert ds.n_cols == 12
        assert list(ds.X[0]) == list(map(float, SAMPLE_VALUES))
        with pytest.raises(ValueError, match="unknown user_id 'ghost'"):
            build_variant(sample_for("ghost"), make_profiles([]))


def mode_of(values):
    """The imputation mode fit_preprocess fits on one column."""
    return fit_preprocess(make_dataset(np.c_[values], None)).modes[0]


class TestPreprocess:
    def test_mode_ignores_nulls(self):
        assert mode_of([1.0, 2.0, 2.0, math.nan]) == 2.0

    def test_mode_tie_smallest(self):
        assert mode_of([1.0, 1.0, 2.0, 2.0]) == 1.0

    def test_mode_all_null_zero(self):
        assert mode_of([math.nan, math.nan]) == 0.0

    @pytest.mark.parametrize("column", [[0.0, -0.0], [-0.0, 0.0], [math.nan, -0.0]])
    def test_signed_zeros_fit_as_plus_zero(self, column):
        """Counts cannot tell the two zeros apart, so every zero statistic is +0.0, also with a row held out."""
        ds = make_dataset(np.c_[column + [5.0]], None, columns=["age"])
        for state in (fit_preprocess(TabularDataset(ds.column_names, ds.X[:2], None)), fit_preprocess(ds, held_out=[2])):
            for name in ("modes", "scale_min", "scale_max"):
                assert getattr(state, name).tobytes() == np.zeros(1).tobytes(), name
            assert state.fitted_on == 2

    def test_static_scaling(self):
        ds = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 0], columns=["age"])
        state = fit_preprocess(ds)
        out = transform(ds, state)
        assert list(out.X[:, 0]) == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        ds = make_dataset([[5.0], [5.0], [5.0]], [0, 1, 0], columns=["age"])
        out = transform(ds, fit_preprocess(ds))
        assert list(out.X[:, 0]) == [0.0, 0.0, 0.0]

    def test_out_of_range_clamped(self):
        train = make_dataset([[2.0], [6.0]], [0, 1], columns=["age"])
        state = fit_preprocess(train)
        test = make_dataset([[8.0], [0.0]], [0, 0], columns=["age"])
        out = transform(test, state)
        assert list(out.X[:, 0]) == [1.0, 0.0]

    def test_session_columns_not_scaled(self):
        cols = S_COLUMNS
        X = np.tile(np.arange(12, dtype=float), (3, 1))
        X[1] += 1
        ds = TabularDataset(cols, X, np.array([0, 1, 0]))
        out = transform(ds, fit_preprocess(ds))
        assert np.array_equal(out.X, X)

    def test_imputation_and_range(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles)
        state = fit_preprocess(ds)
        out = transform(ds, state)
        assert not np.isnan(out.X).any()
        static = out.static_mask()
        assert out.X[:, static].min() >= 0.0
        assert out.X[:, static].max() <= 1.0
        # non-constant static training columns attain both ends of the range
        spans = state.scale_max[static] - state.scale_min[static]
        block = out.X[:, static]
        attained = (block.min(axis=0) == 0.0) & (block.max(axis=0) == 1.0)
        assert attained[spans > 0].all()

    def test_column_mismatch_errors(self):
        ds = make_dataset([[1.0], [2.0]], [0, 1], columns=["a"])
        other = make_dataset([[1.0], [2.0]], [0, 1], columns=["b"])
        with pytest.raises(ValueError, match="columns do not match"):
            transform(other, fit_preprocess(ds))

    def test_empty_dataset_errors(self):
        ds = make_dataset(np.empty((0, 2)), np.empty(0, dtype=int), columns=["a", "b"])
        with pytest.raises(ValueError, match="empty"):
            fit_preprocess(ds)


# NaN, both zeros, both infinities, subnormals and the smallest normal, besides any float
PREPROCESS_VALUES = st.one_of(st.floats(), st.sampled_from(
    [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 3.0]))


@st.composite
def preprocess_case(draw):
    """A training set whose columns are free, constant or all null, validation rows drawn wider than
    it, and a state built directly whose bounds may be NaN or infinite, as a model file may carry."""
    n_cols = draw(st.integers(1, 6))
    names = draw(st.lists(st.sampled_from(["S1", "S2", "S12", "S", "age", "spq1_q1", "week", "x"]),
                          min_size=n_cols, max_size=n_cols, unique=True))
    n_rows = draw(st.integers(1, 8))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["free", "constant", "null"]), min_size=n_cols, max_size=n_cols)):
        if kind == "free":
            columns.append(draw(st.lists(PREPROCESS_VALUES, min_size=n_rows, max_size=n_rows)))
        else:
            value = draw(PREPROCESS_VALUES) if kind == "constant" else math.nan
            nulls = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
            columns.append([math.nan if null else value for null in nulls])
    train = make_dataset(np.array(columns).T, np.arange(n_rows) % 2, columns=names)
    wider = st.one_of(PREPROCESS_VALUES, st.floats(-1e300, 1e300))
    valid = make_dataset(draw(arrays(np.float64, (draw(st.integers(0, 6)), n_cols), elements=wider)), None,
                         columns=names)
    vector = arrays(np.float64, n_cols, elements=PREPROCESS_VALUES)
    direct = PreprocessState(
        column_names=list(names),
        modes=draw(arrays(np.float64, n_cols, elements=st.floats(allow_nan=False))),  # a fitted mode is never NaN
        scale_min=draw(vector),
        scale_max=draw(vector),
        static=draw(arrays(np.bool_, n_cols)),
        fitted_on=n_rows,
    )
    return train, valid, direct


class TestPreprocessOracle:
    @settings(max_examples=300, deadline=None)
    @given(preprocess_case())
    def test_matches_masked_reference_bytes(self, case):
        """The whole-matrix preprocessing gives the masked one's bytes: every state array and every X."""
        train, valid, direct = case
        with np.errstate(all="ignore"):  # inf - inf and overflowing spans warn alike in both
            state, ref_state = fit_preprocess(train), reference.fit_preprocess(train)
            assert (state.column_names, state.fitted_on) == (ref_state.column_names, ref_state.fitted_on)
            for name in ("modes", "scale_min", "scale_max", "static"):
                a, b = getattr(state, name), getattr(ref_state, name)
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
            for fitted, ref_fitted in ((state, ref_state), (direct, direct)):
                for ds in (train, valid):
                    out, ref = transform(ds, fitted), reference.transform(ds, ref_fitted)
                    assert (out.X.dtype, out.X.shape, out.X.tobytes()) == (ref.X.dtype, ref.X.shape, ref.X.tobytes())
                    assert out.column_names == ref.column_names
                    assert (out.y is None and ref.y is None) or out.y.tobytes() == ref.y.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(preprocess_case(), st.data())
    def test_selected_rows_match_reference_on_rows_gathered_first(self, case, data):
        """transform(ds, state, rows) has the bytes of the masked transform of ds's rows, for a boolean mask
        and for an index array that may repeat rows, in any order."""
        train, _, direct = case
        n = train.n_rows
        mask = data.draw(arrays(np.bool_, n))
        index = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.intp)
        with np.errstate(all="ignore"):
            for state in (fit_preprocess(train), direct):
                for rows in (mask, index):
                    out = transform(train, state, rows)
                    ref = reference.transform(TabularDataset(train.column_names, train.X[rows], train.y[rows]), state)
                    assert (out.X.dtype, out.X.shape, out.X.tobytes()) == (ref.X.dtype, ref.X.shape, ref.X.tobytes())
                    assert (out.y.dtype, out.y.tobytes()) == (ref.y.dtype, ref.y.tobytes())
                    assert out.column_names == ref.column_names


@st.composite
def held_out_case(draw):
    """A dataset, and distinct rows held out of it in any order that leave at least one row.

    Besides free, constant and all-null columns there are columns whose non-null values all sit in
    held-out rows, and columns whose held-out rows share one value that no other row holds: the
    mode of all rows, but not of the rest.
    """
    n_rows = draw(st.integers(1, 10))
    held = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows).filter(lambda h: not all(h)))
    n_cols = draw(st.integers(1, 6))
    names = draw(st.lists(st.sampled_from(["S1", "S2", "S12", "age", "spq1_q1", "week", "x"]),
                          min_size=n_cols, max_size=n_cols, unique=True))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["free", "constant", "null", "held only", "held value"]),
                              min_size=n_cols, max_size=n_cols)):
        values = draw(st.lists(PREPROCESS_VALUES, min_size=n_rows, max_size=n_rows))
        if kind == "constant":
            values = [math.nan if math.isnan(v) else values[0] for v in values]
        elif kind == "null":
            values = [math.nan] * n_rows
        elif kind == "held only":
            values = [v if h else math.nan for v, h in zip(values, held)]
        elif kind == "held value":
            values = [7.5 if h else draw(st.sampled_from([math.nan, -1.0, 3.0])) for h in held]
        columns.append(values)
    ds = make_dataset(np.array(columns).T, None, columns=names)
    return ds, draw(st.permutations(np.flatnonzero(held).tolist()))


class TestFoldPreprocessOracle:
    @settings(max_examples=300, deadline=None)
    @given(held_out_case())
    def test_held_out_rows_match_reference_on_the_rest(self, case):
        """Statistics fitted from one encoding with rows held out have the bytes of the masked fit on the rest."""
        ds, held_out = case
        rest = TabularDataset(ds.column_names, ds.X[np.setdiff1d(np.arange(ds.n_rows), held_out)], None)
        state = fit_preprocess(ds, held_out=np.array(held_out, dtype=int), codes=ColumnCodes(ds.X))
        ref = reference.fit_preprocess(rest)
        assert (state.column_names, state.fitted_on) == (ref.column_names, ref.fitted_on)
        for name in ("modes", "scale_min", "scale_max", "static"):
            a, b = getattr(state, name), getattr(ref, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


# nulls, both zeros, negatives, fractions, and the largest own code and the one past it
CODE_VALUES = st.sampled_from([math.nan, 0.0, -0.0, -1.0, -2.5, 0.5, 1.0, 3.0, 7.25, 32.0, 33.0])


@st.composite
def code_matrix(draw):
    """A matrix whose columns are free, all null, or integers in [0, 32] with or without nulls."""
    n_rows = draw(st.integers(1, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["free", "null", "ints", "ints and nulls"]), min_size=1, max_size=5)):
        if kind == "free":
            cells = CODE_VALUES
        elif kind == "null":
            cells = st.just(math.nan)
        else:
            ints = st.integers(0, 32).map(float)
            cells = ints if kind == "ints" else st.one_of(ints, st.just(math.nan))
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    return np.array(columns).T


class TestColumnCodesOracle:
    @settings(max_examples=300, deadline=None)
    @given(code_matrix())
    def test_slots_codes_and_totals(self, X):
        """Per column: its present slots are np.unique(column + 0.0), its codes decode to its cells, and
        its totals count them."""
        enc = ColumnCodes(X)
        ends = np.append(enc.start[1:], enc.values.size)
        assert enc.codes.shape == X.T.shape and enc.codes.dtype == np.min_scalar_type(enc.width - 1)
        assert enc.width == max(ends - enc.start) and enc.totals.sum() == X.size
        for j, column in enumerate(X.T + 0.0):
            values, totals = enc.values[enc.start[j] : ends[j]], enc.totals[enc.start[j] : ends[j]]
            assert values[totals > 0].tobytes() == np.unique(column).tobytes()
            assert values[enc.codes[j]].tobytes() == column.tobytes()
            assert totals.tolist() == [np.count_nonzero(np.isnan(column) if math.isnan(v) else column == v)
                                       for v in values]
            assert np.isnan(values).any() == np.isnan(column).any()  # a null slot only for a column with a null
            if 0 <= column.min() and column.max() <= 32 and np.array_equal(column, column.round()):
                assert values.tolist() == list(range(int(column.max()) + 1))  # own codes, with empty slots
            else:
                assert totals.all()  # ranks: a slot per distinct value


class TestCsvRoundTrip:
    def test_round_trip_values_and_metadata(self, tmp_path, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D3")
        path = tmp_path / "d3.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert back.variant == "D3"
        assert back.column_names == ds.column_names
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(np.isnan(back.X), np.isnan(ds.X))
        assert np.array_equal(back.X[~np.isnan(ds.X)], ds.X[~np.isnan(ds.X)])

    def test_scaled_floats_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.random((20, 3)), rng.integers(0, 2, 20))
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.X, ds.X)

    def test_variant_inferred_without_sidecar(self, tmp_path, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D0")
        path = tmp_path / "d0.csv"
        write_dataset_csv(ds, path)
        assert read_dataset_csv(path).variant == "D0"

    def test_variant_named_by_exact_header(self, tmp_path, small_cleansed):
        ds = build_variant(windows_for_database(small_cleansed), small_cleansed.profiles).prefix("D1")
        renamed = ["wk" if c == "week" else c for c in ds.column_names]
        path = tmp_path / "d1.csv"
        write_dataset_csv(TabularDataset(renamed, ds.X, ds.y), path)
        assert read_dataset_csv(path).variant == "custom"
        write_dataset_csv(ds, path)
        assert read_dataset_csv(path).variant == "D1"

    def test_infinite_values_round_trip(self, tmp_path):
        ds = make_dataset([[np.inf, 1.0], [-np.inf, 0.5], [2.0, np.nan]], [0, 1, 0])
        path = tmp_path / "inf.csv"
        write_dataset_csv(ds, path)
        assert path.read_text().splitlines()[1:3] == ["inf,1,0", "-inf,0.5,1"]
        back = read_dataset_csv(path)
        assert np.array_equal(back.X, ds.X, equal_nan=True)


def cell_by_cell_csv(ds, path):
    """The writer the blocked one replaced, kept as its reference: one _format_cell per cell, row by row."""

    def rows():
        for r in range(ds.n_rows):
            row = [_format_cell(v) for v in ds.X[r].tolist()]
            if ds.y is not None:
                row.append(str(int(ds.y[r])))
            yield row

    write_csv(path, list(ds.column_names) + ([LABEL_COLUMN] if ds.y is not None else []), rows())


def awkward_dataset(n_rows=2500, labeled=True):
    """Rows that span several of the writer's blocks, with the floats whose text is easiest to get wrong."""
    rng = np.random.default_rng(13)
    specials = [np.inf, -np.inf, 1e15 - 1, 1e15, -1e15, 1e16, 5e-324, -5e-324, 0.1 + 0.2, 2.5, -3.0]
    X = np.column_stack([
        rng.choice([np.nan, -0.0, 0.0], n_rows),
        rng.choice(specials, n_rows),
        rng.normal(size=n_rows),
        rng.integers(0, 5, n_rows).astype(float),
    ])
    if n_rows > 2100:
        X[2100, 3] = 7.5  # first appears in the last block
    return make_dataset(X, rng.integers(0, 2, n_rows) if labeled else None)


ORACLE_CASES = {
    "labeled": lambda: awkward_dataset(),
    "unlabeled": lambda: awkward_dataset(labeled=False),
    "one-column-with-nan": lambda: make_dataset(np.r_[np.arange(2499.0), np.nan][:, None], None),
    "zero-rows": lambda: awkward_dataset(0),
    "zero-rows-unlabeled": lambda: awkward_dataset(0, labeled=False),
}


class TestBlockedCsv:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_bytes_equal_cell_by_cell_writer(self, tmp_path, case):
        ds = ORACLE_CASES[case]()
        write_dataset_csv(ds, tmp_path / "blocked.csv")
        cell_by_cell_csv(ds, tmp_path / "reference.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_awkward_values_and_lone_null_text(self, tmp_path):
        ds = awkward_dataset()
        first, zeros = ds.X[:1024, 0], ds.X[:1024, 0][ds.X[:1024, 0] == 0]
        assert np.isnan(first).any() and np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert 7.5 not in ds.X[:2048, 3]
        write_dataset_csv(ds, tmp_path / "awkward.csv")
        text = (tmp_path / "awkward.csv").read_text()
        for cell in ("inf", "-inf", "999999999999999", "1000000000000000.0", "1e+16", "5e-324", "0.30000000000000004"):
            assert f",{cell}," in text
        assert ",-0," not in text and ",-0.0," not in text
        write_dataset_csv(ORACLE_CASES["one-column-with-nan"](), tmp_path / "one.csv")
        assert (tmp_path / "one.csv").read_bytes().endswith(b'2498\r\n""\r\n')

    def test_bad_cell_names_its_line_past_the_first_block(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset_csv(awkward_dataset(2000), path)
        lines = path.read_text().splitlines()
        lines[1499] = "x" + lines[1499]  # the header is line 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"ds.csv: line 1500: could not convert string to float: 'x"):
            read_dataset_csv(path)

    def test_two_whole_blocks_read_back_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.normal(size=(2048, 3)), rng.integers(0, 2, 2048))
        write_dataset_csv(ds, tmp_path / "ds.csv")
        back = read_dataset_csv(tmp_path / "ds.csv")
        assert back.X.shape == (2048, 3)
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)

    @pytest.mark.parametrize("header, labeled", [("f0,f1,f2,A", True), ("f0,f1,f2", False)])
    def test_header_only_file_has_no_rows(self, tmp_path, header, labeled):
        (tmp_path / "ds.csv").write_text(header + "\r\n")
        back = read_dataset_csv(tmp_path / "ds.csv")
        assert back.X.shape == (0, 3) and back.column_names == ["f0", "f1", "f2"]
        assert back.y.shape == (0,) if labeled else back.y is None

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 11), st.integers(1, 4)),
            elements=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e15])),
        ),
        st.booleans(),
    )
    def test_random_matrices_round_trip(self, X, labeled):
        y = np.arange(X.shape[0]) % 2 if labeled else None
        ds = make_dataset(X, y)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(features, "_BLOCK_ROWS", 3):
            write_dataset_csv(ds, Path(tmp) / "blocked.csv")
            cell_by_cell_csv(ds, Path(tmp) / "reference.csv")
            assert (Path(tmp) / "blocked.csv").read_bytes() == (Path(tmp) / "reference.csv").read_bytes()
            back = read_dataset_csv(Path(tmp) / "blocked.csv")
        assert np.array_equal(back.X, X, equal_nan=True)
        assert back.y is None if y is None else np.array_equal(back.y, y)

    def test_memory_is_bounded_by_one_block(self, tmp_path):
        """Every cell of this matrix formats to its own string, the writer's worst case."""
        rng = np.random.default_rng(21)
        X = rng.normal(size=(5000, 115))
        X[rng.random(X.shape) < 0.1] = np.nan
        ds = make_dataset(X, rng.integers(0, 2, 5000))
        tracemalloc.start()
        try:
            write_dataset_csv(ds, tmp_path / "ds.csv")
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_dataset_csv(tmp_path / "ds.csv")
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.X, X, equal_nan=True)
        assert back.X.dtype == np.float64 and back.X.flags.c_contiguous and back.X.flags.writeable
        assert write_peak < 10e6, write_peak  # one block for all 5,000 rows took 45 MB
        # the reader's one flat buffer is X itself, over-allocated by about a sixteenth as it grows, and one
        # row's Python floats are all else it holds. Blocks joined at the end would take 2 * X.nbytes.
        assert read_peak < 1.5 * back.X.nbytes, (read_peak, back.X.nbytes)


def awkward_d6(n_rows, labeled=True, past=None):
    """A D6-shaped dataset whose every column mixes the floats whose text is easiest to get wrong.

    past, if given, fills every column after the first `past` ones with the value 4242.25.
    """
    rng = np.random.default_rng(n_rows)
    specials = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e15 - 1, 1e15, 1e15 + 1, -1e15 - 1, 5e-324, -5e-324,
                2.2250738585072014e-308 / 3, 2.0**53, 2.0**53 + 2, 0.1 + 0.2, -2.5, 7.0, 1 / 3]
    shape = (n_rows, VARIANT_COLUMN_COUNTS["D6"])
    X = np.where(rng.random(shape) < 0.7, rng.choice(specials, shape), rng.normal(size=shape))
    if past is not None:
        X[:, past:] = 4242.25
    return make_dataset(X, rng.integers(0, 2, n_rows) if labeled else None, VARIANT_COLUMNS["D6"])


SHARED_SIZES = [0, 1, features._BLOCK_ROWS - 1, features._BLOCK_ROWS, features._BLOCK_ROWS + 1]


class TestSharedCsvLines:
    """build formats D6's rows once and cuts every variant's lines from them."""

    @pytest.mark.parametrize("n_rows", SHARED_SIZES)
    def test_build_writes_what_each_prefix_writes_alone(self, tmp_path, db_dir, monkeypatch, n_rows):
        d6 = awkward_d6(n_rows)
        monkeypatch.setattr(cli, "build_variant", lambda windows, profiles: d6)
        assert cli.main(["build", "--db", str(db_dir), "--out", str(tmp_path / "built")]) == 0
        for v in VARIANTS:
            write_dataset_csv(d6.prefix(v), tmp_path / "alone.csv")
            cell_by_cell_csv(d6.prefix(v), tmp_path / "reference.csv")
            built = (tmp_path / "built" / f"dataset_{v}.csv").read_bytes()
            assert built == (tmp_path / "alone.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes(), v

    @pytest.mark.parametrize("labeled", [True, False])
    def test_every_prefix_of_shared_lines_equals_its_own_lines(self, tmp_path, labeled):
        d6 = awkward_d6(features._BLOCK_ROWS + 1, labeled)
        lines = features.CsvLines(d6.X)
        for v in reversed(VARIANTS):  # the first write formats, whichever variant it is
            write_dataset_csv(d6.prefix(v), tmp_path / "shared.csv", lines)
            write_dataset_csv(d6.prefix(v), tmp_path / "alone.csv")
            assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes(), v

    def test_one_variant_formats_only_its_columns(self, tmp_path, db_dir, monkeypatch):
        width = VARIANT_COLUMN_COUNTS["D3"]
        d6 = awkward_d6(features._BLOCK_ROWS + 1, past=width)
        assert 4242.25 not in d6.X[:, :width]
        monkeypatch.setattr(cli, "build_variant", lambda windows, profiles: d6)
        formatted = []
        real = features._format_cell
        monkeypatch.setattr(features, "_format_cell", lambda v: formatted.append(v) or real(v))
        assert cli.main(["build", "--db", str(db_dir), "--variant", "D3", "--out", str(tmp_path / "built")]) == 0
        assert formatted and 4242.25 not in formatted
        assert sorted(p.name for p in (tmp_path / "built").glob("dataset_*.csv")) == ["dataset_D3.csv"]
        write_dataset_csv(d6.prefix("D3"), tmp_path / "alone.csv")
        assert (tmp_path / "built" / "dataset_D3.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


class TestReaderMemo:
    """The reader parses each distinct cell text once, and stops keeping texts at _MEMO_TEXTS."""

    @staticmethod
    def float_oracle(path):
        """X as one float() per cell, the empty cell NaN."""
        rows = path.read_text().splitlines()[1:]
        return np.array([[math.nan if c == "" else float(c) for c in row.split(",")[:-1]] for row in rows])

    def test_signed_zeros_and_exponents_keep_their_bits(self, tmp_path):
        path = tmp_path / "ds.csv"
        texts = ["0", "-0", "-0.0", "1e5", "inf", ""]
        rows = [",".join(texts[(i + j) % len(texts)] for j in range(5)) + f",{i % 2}" for i in range(12)]
        path.write_text("\r\n".join(["f0,f1,f2,f3,f4,A", *rows]) + "\r\n")
        back = read_dataset_csv(path)
        assert back.X.tobytes() == self.float_oracle(path).tobytes()
        negative_zeros = sum(c in ("-0", "-0.0") for row in rows for c in row.split(",")[:-1])
        assert negative_zeros and np.signbit(back.X[back.X == 0]).sum() == negative_zeros

    def test_more_distinct_texts_than_the_memo_keeps(self, tmp_path, monkeypatch):
        memos = []

        class Recorded(features._CellValues):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(self)

        monkeypatch.setattr(features, "_CellValues", Recorded)
        rng = np.random.default_rng(8)
        ds = make_dataset(rng.normal(size=(features._MEMO_TEXTS // 3 + 10, 4)), None)
        ds.X[::7, 1] = 0.5  # a text met again after the memo is full
        write_dataset_csv(ds, tmp_path / "ds.csv")
        back = read_dataset_csv(tmp_path / "ds.csv")
        assert back.X.tobytes() == ds.X.tobytes()
        [memo] = memos
        assert len(memo) == features._MEMO_TEXTS

    def test_bad_cell_after_the_memo_is_full_names_its_line(self, tmp_path):
        rng = np.random.default_rng(9)
        n_rows = features._MEMO_TEXTS // 2 + 50
        write_dataset_csv(make_dataset(rng.normal(size=(n_rows, 3)), rng.integers(0, 2, n_rows)), tmp_path / "ds.csv")
        lines = (tmp_path / "ds.csv").read_text().splitlines()
        lines[-20] = "x" + lines[-20]
        (tmp_path / "ds.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"ds.csv: line {len(lines) - 19}: could not convert string to float: 'x"):
            read_dataset_csv(tmp_path / "ds.csv")
