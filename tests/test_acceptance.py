"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they happen.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from adherence.analytics import cronbach_alpha, pearson
from adherence.cli import main as cli_main
from adherence.evaluate import cross_validate, geometric_score, majority_baseline
from adherence.features import VARIANT_COLUMN_COUNTS, build_variant, read_dataset_csv
from adherence.learn import (
    ForestConfig,
    GbtConfig,
    GradientBoostedTrees,
    KnnClassifier,
    KnnConfig,
    RandomForest,
)
from adherence.resample import ResampleConfig, adasyn_allocation, oversample
from adherence.sessionize import label_adherence, windows_for_database

from conftest import make_dataset, one_series
from test_knn import brute_force_knn_proba
from test_mlp import finite_difference_check, tiny_net
from test_resample import adasyn_oracle_allocation, assert_segment_property
from test_analytics import direct_alpha


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {summary}")
        raise
    print(f"[criterion {number}] PASS - {summary}")


# Reference evaluation rows: (specificity, sensitivity, printed score, printed accuracy)
REFERENCE_ROWS = {
    "rf": (0.9468, 0.7322, 0.8326, 0.8934),
    "knn": (0.9589, 0.6778, 0.8061, 0.8889),
    "xgboost": (0.9438, 0.7727, 0.8540, 0.8966),
    "mlp": (0.9596, 0.7671, 0.8451, 0.8940),
}
MAJORITY_FRACTION = 0.7509


def test_criterion_1_score_identity():
    with criterion(1, "geometric-mean score reproduces the reference score column"):
        for name in ("rf", "knn", "xgboost"):
            spec, sens, printed_score, _ = REFERENCE_ROWS[name]
            assert geometric_score(sens, spec) == pytest.approx(printed_score, abs=5e-4), name
        # The reference MLP row does not satisfy the identity; assert the
        # discrepancy instead of papering over it.
        spec, sens, printed_score, _ = REFERENCE_ROWS["mlp"]
        computed = geometric_score(sens, spec)
        assert computed == pytest.approx(0.8580, abs=5e-4)
        assert abs(computed - printed_score) > 5e-3


def test_criterion_2_accuracy_identity():
    with criterion(2, "pooled accuracy identity reproduces the reference accuracy column"):
        for name, tol in (("rf", 1e-3), ("knn", 1e-3)):
            spec, sens, _, printed_acc = REFERENCE_ROWS[name]
            pooled = spec * MAJORITY_FRACTION + sens * (1.0 - MAJORITY_FRACTION)
            assert pooled == pytest.approx(printed_acc, abs=tol), name


def test_criterion_3_labeling_oracles():
    with criterion(3, "adherence labeling matches truth table; windows match naive enumeration"):
        for fs in itertools.product((0, 1), repeat=3):
            assert label_adherence(fs) == (0 if sum(fs) < 2 else 1)
        rng = np.random.default_rng(1003)
        for _ in range(1000):
            values = [int(rng.integers(0, 5)) for _ in range(int(rng.integers(0, 31)))]
            naive = []
            for i in range(max(0, len(values) - 14)):
                chunk = values[i : i + 15]
                fs = tuple(1 if v >= 1 else 0 for v in chunk[12:])
                naive.append((tuple(chunk[:12]), fs, 0 if sum(fs) < 2 else 1))
            w = one_series(values)
            got = list(zip(map(tuple, w.values.tolist()), map(tuple, w.future.tolist()), w.label.tolist()))
            assert got == naive


def test_criterion_4_dataset_shape_contract(small_cleansed):
    with criterion(4, "variants D0..D6 have exactly 12/15/22/34/74/84/115 feature columns"):
        assert VARIANT_COLUMN_COUNTS == {"D0": 12, "D1": 15, "D2": 22, "D3": 34, "D4": 74, "D5": 84, "D6": 115}
        windows = windows_for_database(small_cleansed)
        d6 = build_variant(windows, small_cleansed.profiles)
        for variant, expected in VARIANT_COLUMN_COUNTS.items():
            ds = d6.prefix(variant)
            assert ds.n_cols == expected
            assert ds.n_rows == len(windows)


def test_criterion_5_oversampler_suite():
    with criterion(5, "oversamplers balance, SMOTE segments verify, ADASYN matches its oracle, thread-invariant"):
        rng = np.random.default_rng(1005)
        for trial in range(100):
            n = int(rng.integers(20, 301))
            d = int(rng.integers(2, 11))
            n_pos = int(rng.integers(2, max(3, n // 3)))
            X = rng.normal(size=(n, d))
            y = np.array([1] * n_pos + [0] * (n - n_pos))
            ds = make_dataset(X, y)
            method = ("random", "smote", "adasyn")[trial % 3]
            out = oversample(ds, ResampleConfig(method=method, seed=trial))
            n_low = int((out.y == 0).sum())
            n_high = int((out.y == 1).sum())
            assert abs(n_high - n_low) <= 1, f"trial {trial} ({method})"
            assert np.array_equal(out.X[:n], X) and np.array_equal(out.y[:n], y)
            if method == "smote" and trial % 15 == 1 and n <= 200:
                assert_segment_property(out.X[n:], X[y == 1], 5)

        # ADASYN allocation against an independent oracle on a fixed 20-point set
        X = np.zeros((20, 2))
        X[:14] = np.mgrid[0:7, 0:2].reshape(2, -1).T
        X[14] = [1.4, 0.6]
        X[15] = [4.4, 0.6]
        X[16:] = [[30.0, 30.0], [30.5, 30.0], [30.0, 30.5], [30.5, 30.5]]
        y = np.array([0] * 14 + [1] * 6)
        ds = make_dataset(X, y)
        alloc = adasyn_allocation(ds, ResampleConfig(method="adasyn", k_neighbors=3, seed=0))
        oracle = adasyn_oracle_allocation(X.tolist(), y.tolist(), 3, 8)
        assert list(alloc) == oracle
        assert alloc.sum() == 8

        # determinism: same seed, same output
        rng = np.random.default_rng(1055)
        big = make_dataset(rng.normal(size=(250, 8)), np.array([1] * 50 + [0] * 200))
        for method in ("random", "smote", "adasyn"):
            a = oversample(big, ResampleConfig(method=method, seed=9))
            b = oversample(big, ResampleConfig(method=method, seed=9))
            assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

        # thread invariance: in-fold resampling under the fold pool at 1 vs 8 workers
        for method in ("smote", "adasyn"):
            cfg = ResampleConfig(method=method, seed=9)
            serial = cross_validate(big, KnnConfig(k=5), resample_cfg=cfg, k=5, seed=9, n_jobs=1)
            pooled = cross_validate(big, KnnConfig(k=5), resample_cfg=cfg, k=5, seed=9, n_jobs=8)
            assert serial.to_json() == pooled.to_json()


def test_criterion_6_learner_oracles():
    with criterion(6, "k-NN matches brute force; MLP gradients check; GBT loss monotone; RF importance sane"):
        rng = np.random.default_rng(1006)
        for trial in range(50):
            n = int(rng.integers(20, 501))
            d = int(rng.integers(2, 8))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n)
            queries = rng.normal(size=(15, d))
            k = int(rng.integers(1, min(12, n + 1)))
            model = KnnClassifier(KnnConfig(k=k)).fit(X, y)
            proba = model.predict_proba(queries)[:, 1]
            oracle = brute_force_knn_proba(X, y, queries, k)
            assert np.allclose(proba, oracle, atol=1e-12), f"knn trial {trial}"

        model, X, y = tiny_net(seed=1)
        assert finite_difference_check(model, X, y, n_coords=20) < 1e-4

        X = rng.normal(size=(400, 6))
        logits = 1.2 * X[:, 0] - 0.8 * X[:, 3] + 0.3 * rng.normal(size=400)
        y = (logits > 0).astype(int)
        gbt = GradientBoostedTrees(GbtConfig(n_rounds=50, learning_rate=0.3, max_depth=4)).fit(X, y)
        for before, after in zip(gbt.train_losses_, gbt.train_losses_[1:]):
            assert after <= before + 1e-12

        X = rng.normal(size=(300, 7))
        y = (X[:, 5] > 0).astype(int)
        forest = RandomForest(ForestConfig(n_trees=40, seed=2)).fit(X, y)
        importances = forest.feature_importances()
        assert importances.sum() == pytest.approx(1.0, abs=1e-9)
        assert int(np.argmax(importances)) == 5


def test_criterion_7_statistics_oracles():
    with criterion(7, "Cronbach alpha matches its direct formula; Pearson is bounded, symmetric, scale-invariant"):
        rng = np.random.default_rng(1007)
        checked = 0
        for _ in range(100):
            m = rng.integers(1, 6, size=(5, 4)).astype(float)
            report = cronbach_alpha(m)
            if report["alpha"] is not None:
                assert report["alpha"] == pytest.approx(direct_alpha(m), abs=1e-10)
                checked += 1
        assert checked > 80  # random matrices rarely degenerate

        dup = np.tile(rng.integers(1, 6, size=(6, 1)).astype(float), (1, 3))
        assert cronbach_alpha(dup)["alpha"] == pytest.approx(1.0, abs=1e-12)

        for _ in range(50):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            r = pearson(x, y)
            assert -1.0 <= r <= 1.0
            assert pearson(y, x) == pytest.approx(r, abs=1e-12)
            assert pearson(3.0 * x + 1.0, y) == pytest.approx(r, abs=1e-9)


@pytest.fixture(scope="module")
def e2e_dirs(tmp_path_factory):
    """Generate a 200-user database and build D0 once, via the CLI."""
    root = tmp_path_factory.mktemp("e2e")
    db = root / "db"
    built = root / "built"
    cfg = root / "generate.json"
    cfg.write_text(json.dumps({"generate": {"n_users": 200, "start_date": "2018-08-01", "end_date": "2019-03-31"}}))
    t0 = time.time()
    assert cli_main(["generate", "--config", str(cfg), "--seed", "7", "--out", str(db)]) == 0
    assert cli_main(["build", "--db", str(db), "--variant", "D0", "--out", str(built)]) == 0
    return {"db": db, "built": built, "elapsed": time.time() - t0}


def test_criterion_8_end_to_end_run(e2e_dirs, tmp_path):
    with criterion(8, "desk-scale pipeline: RF beats the baseline and 0.75; SMOTE+MLP completes; under 10 minutes"):
        t0 = time.time()
        dataset = e2e_dirs["built"] / "dataset_D0.csv"
        ds = read_dataset_csv(dataset)
        assert ds.y.mean() < 0.5  # majority low adherence

        rf_out = tmp_path / "cv_rf"
        assert cli_main(["cv", "--dataset", str(dataset), "--model", "forest", "--seed", "42", "--out", str(rf_out)]) == 0
        rf_report = json.loads((rf_out / "cv_report.json").read_text())
        assert rf_report["fingerprint"]["model"]["n_trees"] == 200
        baseline = majority_baseline(ds)
        pooled_score = rf_report["pooled"]["score"]
        assert pooled_score > baseline.accuracy
        assert pooled_score > 0.75

        mlp_cfg = tmp_path / "mlp.json"
        mlp_cfg.write_text(json.dumps({"resampler": {"k_neighbors": 5}}))
        mlp_out = tmp_path / "cv_mlp"
        assert cli_main(["cv", "--dataset", str(dataset), "--model", "mlp", "--resampler", "smote",
                         "--config", str(mlp_cfg), "--seed", "42", "--out", str(mlp_out)]) == 0
        mlp_report = json.loads((mlp_out / "cv_report.json").read_text())
        assert mlp_report["macro"]["score"] is not None
        assert mlp_report["pooled"]["score"] is not None

        elapsed = e2e_dirs["elapsed"] + (time.time() - t0)
        assert elapsed < 600, f"pipeline took {elapsed:.0f}s"


def test_criterion_9_reproducible_cv_reports(e2e_dirs, tmp_path):
    with criterion(9, "repeated cv runs with identical config and seed emit byte-identical JSON"):
        dataset = e2e_dirs["built"] / "dataset_D0.csv"
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps({"model": {"n_trees": 40}, "cv": {"n_jobs": 4}}))
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert cli_main(["cv", "--dataset", str(dataset), "--model", "forest",
                             "--config", str(cfg), "--seed", "13", "--out", str(out)]) == 0
        a = (outs[0] / "cv_report.json").read_bytes()
        b = (outs[1] / "cv_report.json").read_bytes()
        assert a == b
