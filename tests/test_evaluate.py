import csv
import json
import math

import numpy as np
import pytest

from adherence.evaluate import (
    compute_metrics,
    cross_validate,
    geometric_score,
    kfold_split,
    majority_baseline,
    metrics_from_counts,
    write_report,
)
from adherence.learn import ForestConfig, KnnConfig, MajorityConfig
from adherence.resample import ResampleConfig

from conftest import make_dataset, random_imbalanced


class TestComputeMetrics:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 0, 1])
        m = compute_metrics(y, y)
        assert (m.accuracy, m.sensitivity, m.specificity, m.score) == (1.0, 1.0, 1.0, 1.0)

    def test_zero_sensitivity_zero_score(self):
        y_true = np.array([1, 1, 0, 0])
        y_pred = np.array([0, 0, 0, 0])
        m = compute_metrics(y_true, y_pred)
        assert m.sensitivity == 0.0 and m.specificity == 1.0 and m.score == 0.0

    def test_published_score_identities(self):
        # score reproduces sqrt(sens*spec) for the reference sens/spec pairs
        assert geometric_score(0.7322, 0.9468) == pytest.approx(0.8326, abs=5e-4)
        assert geometric_score(0.6778, 0.9589) == pytest.approx(0.8061, abs=5e-4)
        assert geometric_score(0.7727, 0.9438) == pytest.approx(0.8540, abs=5e-4)

    def test_undefined_when_class_absent(self):
        m = compute_metrics(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        assert m.sensitivity is None and m.score is None
        assert m.specificity == 1.0

    def test_swapping_classes_swaps_recalls(self):
        rng = np.random.default_rng(71)
        y_true = rng.integers(0, 2, 50)
        y_pred = rng.integers(0, 2, 50)
        a = compute_metrics(y_true, y_pred)
        b = compute_metrics(1 - y_true, 1 - y_pred)
        assert a.sensitivity == b.specificity and a.specificity == b.sensitivity

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            compute_metrics(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_score_invariant(self):
        m = metrics_from_counts(tp=30, tn=50, fp=10, fn=10)
        assert m.score == pytest.approx(math.sqrt(m.sensitivity * m.specificity), abs=1e-12)


class TestMajorityBaseline:
    def test_paper_class_prior(self):
        y = np.array([0] * 7509 + [1] * 2491)
        m = majority_baseline(y)
        assert m.accuracy == pytest.approx(0.7509, abs=1e-12)
        assert m.score == 0.0

    def test_balanced_data(self):
        m = majority_baseline(np.array([0, 1, 0, 1]))
        assert m.accuracy == 0.5

    def test_single_class(self):
        m = majority_baseline(np.zeros(5, dtype=int))
        assert m.accuracy == 1.0
        assert m.score is None


class TestKfoldSplit:
    def test_even_folds(self):
        folds = kfold_split(100, k=10, seed=1)
        assert [len(f) for f in folds] == [10] * 10

    def test_remainder_rule(self):
        folds = kfold_split(105, k=10, seed=1)
        assert sorted(len(f) for f in folds) == [10] * 5 + [11] * 5

    def test_stratified_positive_counts(self):
        labels = np.array([1] * 30 + [0] * 70)
        folds = kfold_split(100, k=10, labels=labels, seed=2)
        for f in folds:
            assert labels[f].sum() == 3
            assert len(f) == 10

    def test_partition_property(self):
        labels = np.random.default_rng(3).integers(0, 2, 83)
        folds = kfold_split(83, k=10, labels=labels, seed=3)
        all_idx = np.concatenate(folds)
        assert len(all_idx) == 83
        assert len(np.unique(all_idx)) == 83

    def test_uneven_class_counts_within_one(self):
        labels = np.array([1] * 37 + [0] * 66)
        folds = kfold_split(103, k=10, labels=labels, seed=4)
        pos = sorted(int(labels[f].sum()) for f in folds)
        assert pos[0] >= 3 and pos[-1] <= 4
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="cannot split"):
            kfold_split(5, k=10)

    def test_small_class_falls_back_with_warning(self):
        labels = np.array([1] * 3 + [0] * 97)
        with pytest.warns(UserWarning, match="fewer than"):
            folds = kfold_split(100, k=10, labels=labels, seed=5)
        assert sum(len(f) for f in folds) == 100

    def test_seeded_determinism(self):
        a = kfold_split(50, k=5, seed=9)
        b = kfold_split(50, k=5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestCrossValidate:
    def test_majority_stub_matches_prior(self):
        rng = np.random.default_rng(72)
        ds = random_imbalanced(rng, 200, 3, pos_fraction=0.25)
        report = cross_validate(ds, MajorityConfig(), k=10, seed=1)
        prior = 1.0 - ds.labels().mean()
        assert report.macro["accuracy"] == pytest.approx(prior, abs=0.02)
        assert report.pooled.accuracy == pytest.approx(prior, abs=1e-12)

    def test_validation_sets_partition_rows(self):
        rng = np.random.default_rng(73)
        ds = random_imbalanced(rng, 120, 3)
        folds = kfold_split(ds.n_rows, k=10, labels=ds.labels(), seed=42)
        seen = np.concatenate(folds)
        assert sorted(seen.tolist()) == list(range(120))

    def test_pooled_accuracy_identity(self):
        rng = np.random.default_rng(74)
        ds = random_imbalanced(rng, 150, 4, pos_fraction=0.3)
        report = cross_validate(ds, ForestConfig(n_trees=10), k=5, seed=2)
        p = report.pooled
        n_pos = ds.labels().sum()
        n_neg = ds.n_rows - n_pos
        identity = p.specificity * (n_neg / ds.n_rows) + p.sensitivity * (n_pos / ds.n_rows)
        assert p.accuracy == pytest.approx(identity, abs=1e-12)

    def test_deterministic_reports(self):
        rng = np.random.default_rng(75)
        ds = random_imbalanced(rng, 100, 3)
        kwargs = dict(model_cfg=ForestConfig(n_trees=5), resample_cfg=ResampleConfig(method="smote", seed=0), k=5, seed=3)
        a = cross_validate(ds, **kwargs)
        b = cross_validate(ds, **kwargs)
        assert a.to_json() == b.to_json()

    def test_parallel_folds_identical(self):
        rng = np.random.default_rng(76)
        ds = random_imbalanced(rng, 100, 3)
        a = cross_validate(ds, ForestConfig(n_trees=5), k=5, seed=4, n_jobs=1)
        b = cross_validate(ds, ForestConfig(n_trees=5), k=5, seed=4, n_jobs=8)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_nonpositive_jobs_rejected(self, n_jobs):
        ds = random_imbalanced(np.random.default_rng(76), 20, 2)
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            cross_validate(ds, ForestConfig(n_trees=2), k=2, n_jobs=n_jobs)

    def test_planted_signal_beats_baseline(self):
        rng = np.random.default_rng(77)
        X = rng.normal(size=(300, 5))
        y = (X[:, 4] > 0.5).astype(int)  # planted, noiseless
        ds = make_dataset(X, y)
        report = cross_validate(ds, ForestConfig(n_trees=30), k=10, seed=5)
        assert report.pooled.score is not None and report.pooled.score > 0.8
        assert report.pooled.accuracy > majority_baseline(ds).accuracy

    def test_error_annotated_with_fold(self):
        rng = np.random.default_rng(78)
        ds = random_imbalanced(rng, 60, 2)
        with pytest.raises(RuntimeError, match="fold 0"):
            cross_validate(ds, KnnConfig(k=10_000), k=5, seed=6)  # k exceeds the training rows

    def test_resampling_inside_folds_only(self):
        # fold training rows get balanced; the validation confusion counts must
        # still sum to the original dataset row count
        rng = np.random.default_rng(79)
        ds = random_imbalanced(rng, 90, 3, pos_fraction=0.2)
        report = cross_validate(ds, ForestConfig(n_trees=5), ResampleConfig(method="random", seed=0), k=5, seed=7)
        p = report.pooled
        assert p.tp + p.tn + p.fp + p.fn == 90

    def test_fingerprint_contents(self):
        rng = np.random.default_rng(80)
        ds = random_imbalanced(rng, 60, 2)
        report = cross_validate(ds, ForestConfig(n_trees=3), k=5, seed=8)
        fp = report.fingerprint
        assert fp["model"]["kind"] == "forest"
        assert fp["k"] == 5 and fp["seed"] == 8
        assert fp["dataset"]["n_rows"] == 60
        assert len(report.fingerprint_sha256) == 64

    def test_null_bearing_variant_imputed_per_fold(self, small_cleansed):
        # D3 carries NaN questionnaire cells; fold-internal preprocessing must
        # absorb them for every learner that rejects nulls
        from adherence.features import build_variant
        from adherence.sessionize import windows_for_database

        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D3")
        assert np.isnan(ds.X).any()
        report = cross_validate(ds, ForestConfig(n_trees=5), k=5, seed=10)
        assert report.pooled.accuracy > 0.0

    def test_gbt_and_knn_through_cv(self, small_cleansed):
        from adherence.features import build_variant
        from adherence.learn import GbtConfig, KnnConfig
        from adherence.sessionize import windows_for_database

        windows = windows_for_database(small_cleansed)
        ds = build_variant(windows, small_cleansed.profiles).prefix("D0")
        gbt = cross_validate(ds, GbtConfig(n_rounds=10, max_depth=3), k=5, seed=11)
        knn = cross_validate(ds, KnnConfig(k=5), k=5, seed=11)
        for rep in (gbt, knn):
            p = rep.pooled
            assert p.tp + p.tn + p.fp + p.fn == ds.n_rows

    def test_mlp_parallel_folds_deterministic(self):
        from adherence.learn import MlpConfig

        rng = np.random.default_rng(82)
        ds = random_imbalanced(rng, 120, 4, pos_fraction=0.3)
        cfg = MlpConfig(hidden_layers=(16, 8), max_epochs=5, seed=1)
        a = cross_validate(ds, cfg, k=4, seed=12, n_jobs=1)
        b = cross_validate(ds, cfg, k=4, seed=12, n_jobs=4)
        assert a.to_json() == b.to_json()


class TestReportFiles:
    def test_json_and_csv_written(self, tmp_path):
        """Three positives in five folds leave the folds plain, and a fold without one has no sensitivity."""
        rng = np.random.default_rng(81)
        y = np.zeros(60, dtype=np.int64)
        y[:3] = 1
        with pytest.warns(UserWarning, match="fewer than 5 members"):
            report = cross_validate(make_dataset(rng.normal(size=(60, 2)), y), MajorityConfig(), k=5, seed=9)
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        write_report(report, jp, cp)
        doc = json.loads(jp.read_text())
        assert {"fingerprint", "folds", "macro", "pooled"} <= doc.keys()
        assert [f["fold"] for f in doc["folds"]] == list(range(5))
        undefined = [f["fold"] for f in doc["folds"] if f["tp"] + f["fn"] == 0]
        assert undefined
        with open(cp, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["row_kind"] for r in rows] == ["fold"] * 5 + ["macro", "pooled"]
        # undefined metrics stay null in JSON and empty in CSV, never coerced to 0
        for f in undefined:
            assert doc["folds"][f]["sensitivity"] is None and doc["folds"][f]["score"] is None
            assert (rows[f]["fold"], rows[f]["sensitivity"], rows[f]["score"]) == (str(f), "", "")
        assert doc["macro"]["defined"]["sensitivity"] < doc["macro"]["n_folds"] == 5
        assert rows[5]["tp"] == rows[5]["fold"] == ""
