import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adherence import synthgen
from adherence.analytics import (
    acquisition_distribution,
    cronbach_alpha,
    demographic_summary,
    duplicate_analysis,
    null_rates,
    pearson,
    questionnaire_alpha_reports,
    session_correlation_matrix,
)
from adherence.features import build_variant
from adherence.sessionize import windows_for_database
from datetime import date

from conftest import make_dataset, make_profiles, make_windows


class TestPearson:
    def test_identity(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson(x, x) == 1.0

    def test_negation(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson(x, -x) == -1.0

    def test_hand_value(self):
        # covariance oracle: cov=1.5, sd_x=1, sd_y=sqrt(7/3) -> r = 1.5/sqrt(7/3)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=1e-4)

    def test_constant_input_errors(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError, match="constant"):
            pearson([1, 2, 3], [2, 2, 2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    @given(st.integers(0, 10_000))
    def test_bounded_symmetric_scale_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        r = pearson(x, y)
        assert -1.0 <= r <= 1.0
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)
        a, b = 2.5, -7.0
        assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-9)


class TestSessionCorrelationMatrix:
    def test_shape_diagonal_symmetry(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D0")
        corr, names = session_correlation_matrix(ds)
        assert corr.shape == (13, 13)
        assert names[-1] == "A"
        assert np.array_equal(np.diag(corr), np.ones(13))
        assert np.array_equal(corr, corr.T)

    def test_recency_structure(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D0")
        corr, _ = session_correlation_matrix(ds)
        assert corr[11, 12] > corr[0, 12]

    def test_constant_column_flagged(self):
        X = np.ones((10, 12))
        X[:, 1:] = np.arange(10)[:, None] % 3
        ds = make_dataset(X, [0, 1] * 5, columns=[f"S{i}" for i in range(1, 13)])
        corr, _ = session_correlation_matrix(ds)
        assert math.isnan(corr[0, 12])
        assert corr[0, 0] == 1.0

    def test_requires_d0(self):
        ds = make_dataset(np.zeros((3, 2)), [0, 1, 0])
        with pytest.raises(ValueError, match="D0"):
            session_correlation_matrix(ds)


def direct_alpha(matrix):
    """Independent direct-formula oracle (complete rows, ddof=1)."""
    m = np.asarray(matrix, dtype=float)
    k = m.shape[1]
    item_vars = [np.var(m[:, j], ddof=1) for j in range(k)]
    total_var = np.var(m.sum(axis=1), ddof=1)
    return k / (k - 1) * (1 - sum(item_vars) / total_var)


class TestCronbachAlpha:
    def test_identical_items_alpha_one(self):
        report = cronbach_alpha(np.array([[1, 1], [2, 2], [3, 3]], dtype=float))
        assert report["alpha"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_total_variance_undefined(self):
        report = cronbach_alpha(np.array([[1, 3], [2, 2], [3, 1]], dtype=float))
        assert report["alpha"] is None
        assert report["n_respondents"] == 3

    def test_hand_value(self):
        report = cronbach_alpha(np.array([[1, 2], [2, 1], [3, 3]], dtype=float))
        assert report["alpha"] == pytest.approx(0.6667, abs=1e-4)

    def test_matches_direct_formula_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.integers(1, 6, size=(5, 4)).astype(float)
            report = cronbach_alpha(m)
            if report["alpha"] is None:
                continue
            assert report["alpha"] == pytest.approx(direct_alpha(m), abs=1e-10)

    def test_listwise_deletion(self):
        m = np.array([[1, 2], [2, 1], [3, 3], [math.nan, 5]])
        report = cronbach_alpha(m)
        assert report["n_respondents"] == 3
        assert report["alpha"] == pytest.approx(0.6667, abs=1e-4)

    def test_too_few_complete_rows_undefined(self):
        m = np.array([[1, 2], [math.nan, 1]])
        assert cronbach_alpha(m)["alpha"] is None

    def test_single_item_undefined(self):
        assert cronbach_alpha(np.array([[1.0], [2.0]]))["alpha"] is None

    def test_pipeline_reports_seven_rows(self, small_cleansed):
        reports = questionnaire_alpha_reports(small_cleansed.profiles)
        keys = {(r["questionnaire"], r["instance"]) for r in reports}
        assert keys == {("spq", 1), ("spq", 3), ("ucla", 1), ("ucla", 3), ("eq5d3l", 1), ("eq5d3l", 3), ("utaut", 3)}
        # correlated-latent generator makes answered questionnaires consistent
        for r in reports:
            if r["alpha"] is not None:
                assert r["alpha"] > 0.0


class TestNullRates:
    def test_two_of_eight(self):
        profiles = make_profiles([f"u{i}" for i in range(8)], status=["Finished"] * 8,
                                 utaut3=[None, None, *[(3,) * 31] * 6])
        rows = [r for r in null_rates(profiles) if r["questionnaire"] == "utaut"]
        assert rows[0]["feature_group"] == "all"
        assert rows[0]["pct_null"] == pytest.approx(25.0)

    def test_fully_answered_zero(self):
        profiles = make_profiles(["u1"], status=["Finished"], spq1=[(1, 2, 3, 4, 5, 1)])
        rows = [r for r in null_rates(profiles) if r["questionnaire"] == "spq" and r["instance"] == 1]
        assert rows == [rows[0]]
        assert rows[0]["pct_null"] == 0.0
        assert rows[0]["feature_group"] == "all"

    def test_item_groups_split_by_rate(self):
        # Q1..Q3 answered by all, Q4..Q6 only by u1 -> two groups
        profiles = make_profiles(["u1", "u2"], status=["Finished"] * 2,
                                 spq1=[(1, 2, 3, 4, 5, 1), (1, 2, 3, None, None, None)])
        rows = [r for r in null_rates(profiles) if r["questionnaire"] == "spq" and r["instance"] == 1]
        assert [(r["feature_group"], r["pct_null"]) for r in rows] == [("Q1-Q3", 0.0), ("Q4-Q6", 50.0)]

    def test_synthetic_rate_recovered(self):
        cfg = synthgen.SynthConfig(seed=5, n_users=400, null_rates={**synthgen.DEFAULT_NULL_RATES, ("ucla", 3): 0.5})
        db = synthgen.generate(cfg)
        rows = [r for r in null_rates(db.profiles) if r["questionnaire"] == "ucla" and r["instance"] == 3]
        assert rows[0]["pct_null"] == pytest.approx(50.0, abs=5.0)


def ones(n):
    """Education, technology and the three living fields at 1 for n users."""
    return {name: [1] * n for name in ("education", "technology", "living_environment", "living_conditions",
                                       "living_status")}


class TestDemographicSummary:
    def test_hand_values(self):
        profiles = make_profiles(["u0", "u1", "u2"], status=["Finished"] * 3, birth_year=[1940, 1950, 1950],
                                 **ones(3), use_case=[3] * 3)
        s = demographic_summary(profiles)["birth_year"]
        assert (s["minimum"], s["maximum"], s["mode"]) == (1940.0, 1950.0, 1950.0)
        assert s["mean"] == pytest.approx(1946.67, abs=0.01)

    def test_single_user(self):
        profiles = make_profiles(["u"], status=["Finished"], birth_year=[1944], education=[2], technology=[1],
                                 living_environment=[1], living_conditions=[1], living_status=[2], use_case=[4])
        for s in demographic_summary(profiles).values():
            assert s["minimum"] == s["maximum"] == s["mean"] == s["mode"]

    def test_mode_tie_smallest(self):
        profiles = make_profiles(["u0", "u1", "u2", "u3"], status=["Finished"] * 4, birth_year=[1940] * 4,
                                 **{**ones(4), "education": [1, 1, 2, 2]}, use_case=[3] * 4)
        assert demographic_summary(profiles)["education"]["mode"] == 1.0

    def test_mean_within_bounds(self, small_cleansed):
        for s in demographic_summary(small_cleansed.profiles).values():
            assert s["minimum"] <= s["mean"] <= s["maximum"]

    def test_empty_field_errors(self):
        profiles = make_profiles(["u"], status=["Finished"])
        with pytest.raises(ValueError, match="no non-null values"):
            demographic_summary(profiles)

    def test_no_users_no_fields(self):
        assert demographic_summary(make_profiles([])) == {}


def window(user, values, label=0):
    """One row for make_windows."""
    return (user, values, (0, 0, 0) if label == 0 else (1, 1, 0), label, date(2018, 11, 5))


class TestAcquisitionDistribution:
    def test_single_window(self):
        stats = acquisition_distribution(make_windows(window("u", [1] + [0] * 11)))
        assert stats["mean"] == stats["min"] == stats["max"] == 1.0
        assert [b for b in stats["bins"] if b[2]] == [[1.0, 2.0, 1]]

    def test_all_zero(self):
        stats = acquisition_distribution(make_windows(window("u", [0] * 12)))
        assert stats["mean"] == 0.0

    def test_user_mean_of_window_sums(self):
        stats = acquisition_distribution(make_windows(window("u", [4] + [0] * 11), window("u", [3, 3] + [0] * 10),
                                                      window("v", [1] + [0] * 11)))
        assert (stats["mean"], stats["min"], stats["max"]) == (3.0, 1.0, 5.0)  # users u at 5 and v at 1
        assert [b for b in stats["bins"] if b[2]] == [[1.0, 2.0, 1], [5.0, 6.0, 1]]

    def test_bins_cover_range_and_sum(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        stats = acquisition_distribution(windows)
        assert [b[:2] for b in stats["bins"]] == [[float(i), float(i + 1)] for i in range(48)]
        assert sum(b[2] for b in stats["bins"]) == len(set(windows.user_id.tolist()))
        assert 0.0 <= stats["min"] <= stats["mean"] <= stats["max"] <= 48.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            acquisition_distribution(make_windows())


class TestDuplicateAnalysis:
    def test_three_identical_rows(self):
        ds = make_dataset([[1.0, 2.0]] * 3, [0, 0, 1])
        report = duplicate_analysis(ds)
        assert report["n_rows"] == 3
        assert report["n_distinct"] == 1
        assert report["multiplicity_histogram"] == {3: 1}
        assert report["duplicates"] == [{"multiplicity": 3, "n_low": 2, "n_high": 1}]

    def test_all_distinct(self):
        ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
        report = duplicate_analysis(ds)
        assert report["n_distinct"] == 3
        assert report["duplicates"] == []

    def test_multiplicities_sum_to_rows(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D0")
        report = duplicate_analysis(ds)
        assert sum(m * c for m, c in report["multiplicity_histogram"].items()) == ds.n_rows

    def test_binarized_d0_within_4096(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D0")
        binarized = make_dataset((ds.X >= 1).astype(float), ds.y, columns=ds.column_names)
        report = duplicate_analysis(binarized)
        assert report["n_distinct"] <= 4096

    def test_permutation_invariant(self, small_cleansed):
        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D0")
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n_rows)
        shuffled = make_dataset(ds.X[perm], ds.y[perm], columns=ds.column_names)
        a, b = duplicate_analysis(ds), duplicate_analysis(shuffled)
        assert a["multiplicity_histogram"] == b["multiplicity_histogram"]
        assert a["duplicates"] == b["duplicates"]

    def test_any_memory_layout(self, small_cleansed):
        """A prefix (rows strided) and a Fortran-order copy (last axis strided) group as the C-order copy does."""
        ds = build_variant(windows_for_database(small_cleansed), small_cleansed.profiles).prefix("D3")
        assert not ds.X.flags.c_contiguous
        expected = duplicate_analysis(make_dataset(np.ascontiguousarray(ds.X), ds.y, columns=ds.column_names))
        fortran = make_dataset(np.asfortranarray(ds.X), ds.y, columns=ds.column_names)
        assert fortran.X.flags.f_contiguous and not fortran.X.flags.c_contiguous
        assert duplicate_analysis(fortran) == duplicate_analysis(ds) == expected
        assert expected["duplicates"]  # the windows hold repeated tuples, so the groups are compared too

    @pytest.mark.parametrize("n_rows", [0, 1, 3])
    def test_rows_without_columns_are_one_group(self, n_rows):
        report = duplicate_analysis(make_dataset(np.empty((n_rows, 0)), [1] * n_rows, columns=[]))
        assert (report["n_rows"], report["n_distinct"]) == (n_rows, min(n_rows, 1))
        assert report["multiplicity_histogram"] == ({n_rows: 1} if n_rows else {})
        assert report["duplicates"] == ([{"multiplicity": 3, "n_low": 0, "n_high": 3}] if n_rows == 3 else [])

    def test_rows_compare_as_bytes(self):
        """0.0 and -0.0 are two tuples; NaNs of one bit pattern are one."""
        ds = make_dataset([[0.0, math.nan], [-0.0, math.nan], [0.0, math.nan], [-0.0, 1.0]], [1, 0, 1, 0])
        report = duplicate_analysis(ds)
        assert report["n_distinct"] == 3 and report["multiplicity_histogram"] == {1: 2, 2: 1}
        assert report["duplicates"] == [{"multiplicity": 2, "n_low": 0, "n_high": 2}]

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, math.nan]), st.sampled_from([0.0, 2.0]),
                              st.integers(0, 1)), max_size=40))
    def test_matches_row_bytes_reference(self, rows):
        """The grouping of the per-row tobytes() loop it replaced, labels split and sorted the same way."""
        X = np.array([r[:2] for r in rows], dtype=np.float64).reshape(-1, 2)
        y = np.array([r[2] for r in rows], dtype=np.int64)
        groups = {}
        for r in range(len(rows)):
            groups.setdefault(X[r].tobytes(), []).append(r)
        histogram = {}
        duplicates = []
        for members in groups.values():
            histogram[len(members)] = histogram.get(len(members), 0) + 1
            if len(members) >= 2:
                n_high = int(y[members].sum())
                duplicates.append({"multiplicity": len(members), "n_low": len(members) - n_high, "n_high": n_high})
        duplicates.sort(key=lambda g: (-g["multiplicity"], g["n_low"], g["n_high"]))
        report = duplicate_analysis(make_dataset(X, y))
        assert (report["n_rows"], report["n_distinct"]) == (len(rows), len(groups))
        assert report["multiplicity_histogram"] == dict(sorted(histogram.items()))
        assert report["duplicates"] == duplicates
