import argparse
import csv
import functools
import io
import json
import math
import operator
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adherence.cli import build_parser, main
from adherence.features import read_dataset_csv, write_dataset_csv
from adherence.learn.serialize import decode_array, encode_array

from conftest import make_dataset, run_python
from test_artifact_pin import COMMANDS


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def built(tmp_path, db_dir):
    out = tmp_path / "built"
    assert run("build", "--db", str(db_dir), "--out", str(out)) == 0
    return out


class TestGenerate:
    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--seed", "7", "--n-users", "25", "--out", str(a)) == 0
        assert run("generate", "--seed", "7", "--n-users", "25", "--out", str(b)) == 0
        for name in ("demographics.csv", "acquisitions_physical.csv", "manifest_generate.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_users_is_config_error(self, tmp_path):
        assert run("generate", "--n-users", "0", "--out", str(tmp_path / "x")) == 2

    def test_generated_files_ingest(self, tmp_path):
        out = tmp_path / "db"
        assert run("generate", "--seed", "3", "--n-users", "30", "--out", str(out)) == 0
        assert run("ingest", "--db", str(out), "--out", str(tmp_path / "rep")) == 0
        summary = json.loads((tmp_path / "rep" / "ingest_summary.json").read_text())
        assert summary["n_input_users"] == 30
        assert summary["n_rejected_rows"] == 0

    def test_demographic_range_ingest_rejects_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"generate": {"demographic_ranges": {"education": [0, 20], "use_case": [1, 9]}}}))
        capsys.readouterr()
        assert run("generate", "--config", str(tmp_path / "cfg.json"), "--n-users", "50", "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid generation config: range for education (0, 20) reaches outside [0,8], which ingest accepts"]
        assert list((tmp_path / "o").iterdir()) == []

    def test_demographic_range_inside_ingests_without_rejects(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"generate": {"demographic_ranges": {"education": [2, 5]}}}))
        assert run("generate", "--config", str(tmp_path / "cfg.json"), "--n-users", "50", "--out", str(tmp_path / "db")) == 0
        assert run("ingest", "--db", str(tmp_path / "db"), "--out", str(tmp_path / "rep")) == 0
        summary = json.loads((tmp_path / "rep" / "ingest_summary.json").read_text())
        assert (summary["n_input_users"], summary["n_rejected_rows"]) == (50, 0)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "generate": {"n_users": 10}}))
        out = tmp_path / "o"
        assert run("generate", "--config", str(cfg), "--n-users", "12", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest_generate.json").read_text())
        assert manifest["config"]["generate"]["n_users"] == 12

    @pytest.mark.parametrize(
        "config, flag, used",
        [
            ({"seed": 1, "generate": {"seed": 3}}, ["--seed", "5"], 5),
            ({"seed": 1, "generate": {"seed": 3}}, [], 3),
            ({"seed": 1}, [], 1),
        ],
        ids=["flag", "generate-section", "top-level"],
    )
    def test_seed_precedence(self, tmp_path, config, flag, used):
        """--seed, then generate.seed, then the top-level seed; the manifest records the one used."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "generate": {"n_users": 3, **config.get("generate", {})}}))
        assert run("generate", "--config", str(cfg), *flag, "--out", str(tmp_path / "a")) == 0
        assert run("generate", "--seed", str(used), "--n-users", "3", "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "demographics.csv").read_bytes() == (tmp_path / "b" / "demographics.csv").read_bytes()
        manifest = json.loads((tmp_path / "a" / "manifest_generate.json").read_text())
        assert manifest["config"]["seed"] == manifest["config"]["generate"]["seed"] == used


class TestBuild:
    def test_d0_has_12_features_plus_label(self, tmp_path, db_dir):
        out = tmp_path / "b"
        assert run("build", "--db", str(db_dir), "--variant", "D0", "--out", str(out)) == 0
        with open(out / "dataset_D0.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert len(header) == 13 and header[-1] == "A"

    def test_all_variants_by_default(self, built):
        for variant, count in {"D0": 12, "D3": 34, "D6": 115}.items():
            ds = read_dataset_csv(built / f"dataset_{variant}.csv")
            assert ds.n_cols == count

    def test_cleansed_out_user_absent_from_windows(self, built, db_dir, small_db):
        from adherence.ingestion import cleanse

        _, report = cleanse(small_db)
        removed = {r.user_id for r in report.removed}
        assert removed  # the small database does produce removals
        with open(built / "windows.csv", newline="") as fh:
            users = {row["user_id"] for row in csv.DictReader(fh)}
        assert users.isdisjoint(removed)

    def test_empty_database_warns_but_succeeds(self, tmp_path, capsys):
        from test_ingestion import write_csv
        from adherence import ingestion

        d = tmp_path / "empty"
        for stem in ingestion.ACTIVITY_FILE_STEMS.values():
            write_csv(d / f"acquisitions_{stem}.csv", [["user_id", "timestamp"]])
        write_csv(d / "demographics.csv", [["user_id", "status", *ingestion.DEMOGRAPHIC_FIELDS]])
        for qid, instances in ingestion.QUESTIONNAIRE_INSTANCES.items():
            n = ingestion.QUESTIONNAIRE_ITEMS[qid]
            for inst in instances:
                write_csv(d / f"{qid}_{inst}.csv", [["user_id", *(f"Q{i}" for i in range(1, n + 1))]])
        assert run("build", "--db", str(d), "--variant", "D0", "--out", str(tmp_path / "o")) == 0
        assert "no window samples" in capsys.readouterr().err

    def test_missing_db_usage_error(self, tmp_path):
        assert run("build", "--db", str(tmp_path / "nope"), "--out", str(tmp_path / "o")) == 2


class TestWarnings:
    def test_ingest_extra_column_is_one_line(self, tmp_path, capsys, db_dir):
        path = db_dir / "demographics.csv"
        rows = list(csv.reader(path.open(newline="")))
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([[*row, "extra" if i == 0 else "1"] for i, row in enumerate(rows)])
        capsys.readouterr()
        assert run("ingest", "--db", str(db_dir), "--out", str(tmp_path / "o")) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning [ingest]: demographics: ignoring extra column(s) ['extra']"]

    def test_ingest_repeated_column_is_one_line(self, tmp_path, capsys, db_dir):
        """A second timestamp column of other dates is warned about once; the first one is read."""
        assert run("ingest", "--db", str(db_dir), "--out", str(tmp_path / "first")) == 0
        path = db_dir / "acquisitions_physical.csv"
        rows = list(csv.reader(path.open(newline="")))
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([[*row, "timestamp" if i == 0 else "2017-01-01"] for i, row in enumerate(rows)])
        capsys.readouterr()
        assert run("ingest", "--db", str(db_dir), "--out", str(tmp_path / "o")) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning [ingest]: acquisitions_physical: reading only the first of each repeated column(s) "
                       "['timestamp']"]
        for name in ("cleanse_report.csv", "ingest_summary.json", "rejects.csv"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()

    def test_cv_small_class_is_one_line(self, tmp_path, capsys):
        y = np.zeros(12, dtype=int)
        y[4] = 1
        write_dataset_csv(make_dataset(np.arange(24.0).reshape(12, 2), y), tmp_path / "ds.csv")
        capsys.readouterr()
        code = run("cv", "--dataset", str(tmp_path / "ds.csv"), "--model", "majority", "--k", "3",
                   "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.splitlines()
        assert code == 0
        assert err == ["warning [cv]: a class has fewer than 3 members; falling back to non-stratified folds"]
        assert ".py:" not in "".join(err)

    def test_python_display_is_restored(self, tmp_path):
        import warnings

        shown = warnings.showwarning
        assert run("generate", "--n-users", "3", "--out", str(tmp_path / "o")) == 0
        assert warnings.showwarning is shown


class TestStats:
    def test_reports_written(self, tmp_path, db_dir):
        out = tmp_path / "stats"
        assert run("stats", "--db", str(db_dir), "--out", str(out)) == 0
        with open(out / "cronbach_alpha.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["questionnaire"], r["instance"]) for r in rows} == {
            ("spq", "1"), ("spq", "3"), ("ucla", "1"), ("ucla", "3"),
            ("eq5d3l", "1"), ("eq5d3l", "3"), ("utaut", "3"),
        }
        with open(out / "session_correlation.csv", newline="") as fh:
            matrix_rows = list(csv.reader(fh))
        assert len(matrix_rows) == 14  # header + 13 axis rows
        assert len(matrix_rows[0]) == 14
        doc = json.loads((out / "stats.json").read_text())
        dup = doc["duplicates"]
        histogram_total = 0
        with open(out / "duplicates.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                histogram_total += int(row["multiplicity"]) * int(row["n_tuples"])
        assert histogram_total == dup["n_rows"]

    def test_csvs_agree_with_stats_json(self, tmp_path, db_dir):
        """Every stats CSV row is its stats.json entry in the CSV's cell format."""
        out = tmp_path / "stats"
        assert run("stats", "--db", str(db_dir), "--variant", "D3", "--out", str(out)) == 0
        doc = json.loads((out / "stats.json").read_text())

        def rows(name):
            with open(out / f"{name}.csv", newline="") as fh:
                return list(csv.DictReader(fh))

        assert [[r["questionnaire"], r["feature_group"], int(r["instance"]), r["pct_null"]]
                for r in rows("null_rates")] == [
            [e["questionnaire"], e["feature_group"], e["instance"], f"{e['pct_null']:.2f}"] for e in doc["null_rates"]]
        alphas = rows("cronbach_alpha")
        assert [[r["questionnaire"], int(r["instance"]), r["alpha"], int(r["n_respondents"])] for r in alphas] == [
            [e["questionnaire"], e["instance"], "" if e["alpha"] is None else f"{e['alpha']:.4f}", e["n_respondents"]]
            for e in doc["cronbach_alpha"]]
        assert any(r["alpha"] for r in alphas)
        demographics = rows("demographics")
        assert sorted(r["field"] for r in demographics) == list(doc["demographics"])  # stats.json sorts its keys
        for r in demographics:
            e = doc["demographics"][r["field"]]
            assert (float(r["min"]), float(r["max"]), float(r["mode"])) == (e["minimum"], e["maximum"], e["mode"])
            assert r["mean"] == f"{e['mean']:.4f}"
        # stats writes no windows, so the users with windows are counted in build's windows.csv
        assert run("build", "--db", str(db_dir), "--variant", "D0", "--out", str(tmp_path / "built")) == 0
        with open(tmp_path / "built" / "windows.csv", newline="") as fh:
            n_users = len({r["user_id"] for r in csv.DictReader(fh)})
        assert sum(int(r["count"]) for r in rows("acquisition_distribution")) == n_users
        assert set(doc["acquisition_distribution"]) == {"mean", "min", "max"}
        dup, histogram = doc["duplicates"], rows("duplicates")
        assert dup["variant"] == "D3"
        assert sum(int(r["multiplicity"]) * int(r["n_tuples"]) for r in histogram) == dup["n_rows"]
        assert sum(int(r["n_tuples"]) for r in histogram) == dup["n_distinct"]
        assert sum(int(r["n_tuples"]) for r in histogram if int(r["multiplicity"]) >= 2) == dup["n_duplicate_groups"]

    def test_database_cleansed_of_every_user_warns_but_succeeds(self, tmp_path, capsys):
        """Users with no events are all removed: stats warns as build does and reports no users."""
        (tmp_path / "cfg.json").write_text(json.dumps({"generate": {"start_date": "2018-08-01",
                                                                    "end_date": "2018-08-20"}}))
        db, out = tmp_path / "db", tmp_path / "stats"
        assert run("generate", "--config", str(tmp_path / "cfg.json"), "--n-users", "5", "--out", str(db)) == 0
        capsys.readouterr()
        assert run("stats", "--db", str(db), "--out", str(out)) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning [stats]: no window samples produced (empty or too-short database)"]
        doc = json.loads((out / "stats.json").read_text())
        assert (doc["n_users"], doc["n_windows"], doc["demographics"]) == (0, 0, {})


class TestCv:
    def test_majority_macro_near_prior(self, tmp_path, built):
        out = tmp_path / "cv"
        assert run("cv", "--dataset", str(built / "dataset_D0.csv"), "--model", "majority",
                   "--k", "5", "--seed", "3", "--out", str(out)) == 0
        report = json.loads((out / "cv_report.json").read_text())
        ds = read_dataset_csv(built / "dataset_D0.csv")
        pos = ds.labels().mean()
        prior = max(pos, 1.0 - pos)
        assert abs(report["macro"]["accuracy"] - prior) < 0.05

    def test_byte_identical_reports(self, tmp_path, built):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["cv", "--dataset", str(built / "dataset_D0.csv"), "--model", "forest",
                "--k", "4", "--seed", "11", "--jobs", "4"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"n_trees": 10}}))
        assert run(*args, "--config", str(cfg), "--out", str(a)) == 0
        assert run(*args, "--config", str(cfg), "--out", str(b)) == 0
        assert (a / "cv_report.json").read_bytes() == (b / "cv_report.json").read_bytes()

    def test_unknown_model_is_usage_error(self, tmp_path, built):
        code = run("cv", "--dataset", str(built / "dataset_D0.csv"), "--model", "svm",
                   "--out", str(tmp_path / "o"))
        assert code == 2

    def test_unknown_resampler_is_usage_error(self, tmp_path, built):
        code = run("cv", "--dataset", str(built / "dataset_D0.csv"), "--model", "majority",
                   "--resampler", "ctgan", "--out", str(tmp_path / "o"))
        assert code == 2

    def test_missing_dataset_usage_error(self, tmp_path):
        assert run("cv", "--dataset", str(tmp_path / "nope.csv"), "--model", "majority",
                   "--out", str(tmp_path / "o")) == 2

    def test_bad_jobs_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        write_dataset_csv(make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20)), tmp_path / "ds.csv")
        cases = [
            (["--jobs", "0"], None, "--jobs (cv.n_jobs) must be >= 1, got 0"),
            ([], {"cv": {"n_jobs": 0}}, "--jobs (cv.n_jobs) must be >= 1, got 0"),
            ([], {"resampler": {"method": "smote", "n_jobs": 2}}, "bad resampler config"),
        ]
        for i, (flags, config, message) in enumerate(cases):
            if config is not None:
                (tmp_path / "cfg.json").write_text(json.dumps(config))
                flags = [*flags, "--config", str(tmp_path / "cfg.json")]
            capsys.readouterr()
            code = run("cv", "--dataset", str(tmp_path / "ds.csv"), "--model", "majority", "--k", "2",
                       *flags, "--out", str(tmp_path / f"o{i}"))
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 2, flags
            assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_bad_k_is_usage_error(self, tmp_path, capsys, k):
        rng = np.random.default_rng(10)
        write_dataset_csv(make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20)), tmp_path / "ds.csv")
        capsys.readouterr()
        code = run("cv", "--dataset", str(tmp_path / "ds.csv"), "--model", "majority", "--k", k,
                   "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == [f"error: --k (cv.k) must be >= 2, got {k}"]

    @pytest.mark.parametrize("sidecar", ["[1]", '{"variant": []}', "not json"],
                             ids=["list", "list-variant", "not-json"])
    def test_sidecar_is_not_read(self, tmp_path, built, sidecar):
        reports = []
        for name, text in (("plain", None), ("sidecar", sidecar)):
            dataset = tmp_path / name / "ds.csv"
            dataset.parent.mkdir()
            dataset.write_bytes((built / "dataset_D0.csv").read_bytes())
            if text is not None:
                dataset.with_name("ds.csv.meta.json").write_text(text)
            assert run("cv", "--dataset", str(dataset), "--model", "majority", "--k", "4",
                       "--out", str(tmp_path / name / "cv")) == 0
            reports.append((tmp_path / name / "cv" / "cv_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[1])["fingerprint"]["dataset"]["variant"] == "D0"


class TestTrainPredict:
    def test_round_trip_reproduces_predictions(self, tmp_path, built):
        train_out = tmp_path / "t"
        assert run("train", "--dataset", str(built / "dataset_D0.csv"), "--model", "gbt",
                   "--seed", "5", "--out", str(train_out),
                   "--config", str(self.gbt_cfg(tmp_path))) == 0
        pred_out = tmp_path / "p"
        assert run("predict", "--model-file", str(train_out / "model.json"),
                   "--dataset", str(built / "dataset_D0.csv"), "--out", str(pred_out)) == 0
        # in-memory reference
        from adherence.learn import load_model
        from adherence.features import transform

        model, state = load_model(train_out / "model.json")
        ds = read_dataset_csv(built / "dataset_D0.csv")
        proba = model.predict_proba(transform(ds, state).X)
        with open(pred_out / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == ds.n_rows
        got = np.array([float(r["p_high"]) for r in rows])
        assert np.array_equal(got, proba[:, 1])

    def gbt_cfg(self, tmp_path):
        cfg = tmp_path / "gbt.json"
        cfg.write_text(json.dumps({"model": {"n_rounds": 10, "max_depth": 3}}))
        return cfg

    def test_schema_mismatch_is_runtime_error(self, tmp_path, built):
        train_out = tmp_path / "t2"
        assert run("train", "--dataset", str(built / "dataset_D0.csv"), "--model", "majority",
                   "--out", str(train_out)) == 0
        bad = make_dataset(np.zeros((3, 2)), [0, 1, 0], columns=["S1", "S2"])
        write_dataset_csv(bad, tmp_path / "bad.csv")
        code = run("predict", "--model-file", str(train_out / "model.json"),
                   "--dataset", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "o"))
        assert code == 1

    def test_predict_accepts_unlabeled_features(self, tmp_path, built):
        t = tmp_path / "t4"
        assert run("train", "--dataset", str(built / "dataset_D0.csv"), "--model", "majority",
                   "--out", str(t)) == 0
        labeled = read_dataset_csv(built / "dataset_D0.csv")
        unlabeled = make_dataset(labeled.X, None, columns=labeled.column_names)
        write_dataset_csv(unlabeled, tmp_path / "features_only.csv")
        p = tmp_path / "p4"
        assert run("predict", "--model-file", str(t / "model.json"),
                   "--dataset", str(tmp_path / "features_only.csv"), "--out", str(p)) == 0
        with open(p / "predictions.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == labeled.n_rows

    def test_bom_before_header_reads_like_plain_file(self, tmp_path, built):
        plain = built / "dataset_D0.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_dataset_csv(bom).column_names == read_dataset_csv(plain).column_names
        t = tmp_path / "t5"
        assert run("train", "--dataset", str(plain), "--model", "tree", "--out", str(t)) == 0
        for name, path in (("plain", plain), ("bom", bom)):
            assert run("predict", "--model-file", str(t / "model.json"), "--dataset", str(path),
                       "--out", str(tmp_path / name)) == 0
        predictions = [(tmp_path / name / "predictions.csv").read_bytes() for name in ("plain", "bom")]
        assert predictions[0] == predictions[1]

    def test_cv_on_null_bearing_variant(self, tmp_path, db_dir):
        out = tmp_path / "b3"
        assert run("build", "--db", str(db_dir), "--variant", "D3", "--out", str(out)) == 0
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"model": {"n_trees": 5}}))
        cv_out = tmp_path / "cv3"
        assert run("cv", "--dataset", str(out / "dataset_D3.csv"), "--model", "forest",
                   "--config", str(cfg), "--k", "5", "--seed", "2", "--out", str(cv_out)) == 0
        report = json.loads((cv_out / "cv_report.json").read_text())
        assert report["fingerprint"]["dataset"]["variant"] == "D3"

    def test_half_probability_labels_zero(self, tmp_path):
        # majority model on balanced data answers exactly 0.5 -> label 0
        ds = make_dataset(np.arange(12.0).reshape(6, 2), [0, 1, 0, 1, 0, 1])
        write_dataset_csv(ds, tmp_path / "bal.csv")
        t = tmp_path / "t3"
        assert run("train", "--dataset", str(tmp_path / "bal.csv"), "--model", "majority",
                   "--no-preprocess", "--out", str(t)) == 0
        p = tmp_path / "p3"
        assert run("predict", "--model-file", str(t / "model.json"),
                   "--dataset", str(tmp_path / "bal.csv"), "--out", str(p)) == 0
        with open(p / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["p_high"]) == 0.5 and r["label"] == "0" for r in rows)


class TestManifests:
    def test_every_command_writes_manifest(self, tmp_path, db_dir, built):
        assert (built / "manifest_build.json").exists()
        out = tmp_path / "g"
        run("generate", "--seed", "1", "--n-users", "5", "--out", str(out))
        doc = json.loads((out / "manifest_generate.json").read_text())
        assert doc["command"] == "generate"
        assert "config_sha256" in doc and "artifact_version" in doc

    def test_env_var_overrides_default_out(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("ADHERENCE_OUT", str(target))
        assert run("generate", "--seed", "1", "--n-users", "5") == 0
        assert (target / "manifest_generate.json").exists()

    def test_outputs_are_the_files_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("tree.json").write_text(json.dumps({"model": {"kind": "tree", "max_depth": 3}}))
        for argv in COMMANDS:
            assert main(argv) == 0, argv
            out = Path(argv[argv.index("--out") + 1])
            manifest = f"manifest_{argv[0]}.json"
            written = {p.name for p in out.iterdir() if p.name != manifest}
            assert sorted(written) == json.loads((out / manifest).read_text())["outputs"], argv


# Every subcommand's flags and value types, recorded from the parser before
# its flags were declared in one table. ingest, build, stats and predict lost
# --seed later: they draw no random numbers, so the flag did nothing there.
FLAGS = {
    "generate": ["-h/--help flag", "--config str", "--seed int", "--out str", "--n-users int"],
    "ingest": ["-h/--help flag", "--config str", "--out str", "--db str"],
    "build": ["-h/--help flag", "--config str", "--out str", "--db str", "--variant str"],
    "stats": ["-h/--help flag", "--config str", "--out str", "--db str", "--variant str"],
    "cv": ["-h/--help flag", "--config str", "--seed int", "--out str", "--dataset str", "--model str",
           "--resampler str", "--k int", "--jobs int"],
    "train": ["-h/--help flag", "--config str", "--seed int", "--out str", "--dataset str", "--model str",
              "--resampler str", "--no-preprocess flag"],
    "predict": ["-h/--help flag", "--config str", "--out str", "--model-file str", "--dataset str"],
}


def test_every_command_keeps_its_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: [f"{'/'.join(a.option_strings)} {'flag' if a.nargs == 0 else (a.type or str).__name__}"
               for a in parser._actions]
        for name, parser in sub.choices.items()
    }
    assert flags == FLAGS


@pytest.mark.parametrize("command", ["ingest", "build", "stats", "predict"])
def test_seed_is_a_usage_error_where_nothing_is_random(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, "--seed", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_python_m_adherence_runs_the_cli():
    proc = run_python(["-m", "adherence", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: adherence")


# Model-section fields of the wrong type, with the test id of each.
MODEL_FIELD_CASES = [
    ({"kind": "forest", "n_trees": "3"}, "str-n_trees"),
    ({"kind": "forest", "n_trees": True}, "bool-n_trees"),
    ({"kind": "forest", "n_trees": None}, "null-n_trees"),
    ({"kind": "knn", "k": 2.5}, "float-k"),
    ({"kind": "gbt", "learning_rate": "0.1"}, "str-learning_rate"),
    ({"kind": "mlp", "dtype": "foo"}, "unknown-dtype"),
]

# (kind, field, value, message): a value of the right type outside its field's range.
MODEL_RANGE_CASES = [
    ("knn", "k", 0, "k must be >= 1"),
    ("forest", "n_trees", 0, "n_trees must be >= 1"),
    ("forest", "features_per_split", 0, "features_per_split must be >= 1"),
    ("forest", "max_depth", -1, "max_depth must be >= 0"),
    ("tree", "max_features", 0, "max_features must be >= 1"),
    ("tree", "max_depth", -1, "max_depth must be >= 0"),
    ("gbt", "max_depth", -1, "max_depth must be >= 0"),
    ("gbt", "learning_rate", 0.0, "learning_rate must be > 0"),
    ("gbt", "l2_lambda", math.nan, "l2_lambda must be >= 0"),
    ("gbt", "min_child_weight", math.nan, "min_child_weight must be >= 0"),
    ("mlp", "learning_rate", -0.1, "learning_rate must be > 0"),
    ("mlp", "beta1", 1.0, "beta1 must lie in [0, 1)"),
    ("mlp", "beta2", 1.5, "beta2 must lie in [0, 1)"),
    ("mlp", "adam_eps", 0.0, "adam_eps must be > 0"),
    ("mlp", "max_epochs", -3, "max_epochs must be >= 0"),
    ("mlp", "patience", 0, "patience must be >= 1"),
]


def edit_tree(array, edit):
    """A params edit: decode the tree's node array, change it with edit and encode it back."""
    def apply(params):
        params["tree"][array] = encode_array(edit(decode_array(params["tree"][array])))
    return apply


def recast(*path, dtype):
    """A params edit: decode the array at path and encode it back cast to dtype."""
    def apply(params):
        parent = functools.reduce(operator.getitem, path[:-1], params)
        parent[path[-1]] = encode_array(decode_array(parent[path[-1]]).astype(dtype))
    return apply


def preprocess_block(**arrays):
    """The preprocess block of a model on columns f0..f2, with the arrays given replacing its own."""
    arrays = {"modes": np.zeros(3), "scale_min": np.zeros(3), "scale_max": np.ones(3),
              "static": np.ones(3, dtype=bool), **arrays}
    return {"column_names": ["f0", "f1", "f2"], "fitted_on": 40,
            **{name: encode_array(a) for name, a in arrays.items()}}


def not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


@st.composite
def malformed_dataset(draw):
    """The bytes of a valid 8-row dataset (3 features and a label) with one defect no reader may accept."""
    cells = [[str(draw(st.integers(-9, 9))) for _ in range(3)] + [str(r % 2)] for r in range(8)]
    row, col = draw(st.integers(0, 7)), draw(st.integers(0, 3))
    defect = draw(st.sampled_from(["junk", "label", "short", "long", "quote", "bytes", "header"]))
    if defect == "junk":  # a cell that is not a number; commas, quotes and line ends would change the rows
        junk = st.characters(blacklist_categories=("Cs",), blacklist_characters=',\r\n"')
        cells[row][col] = draw(st.text(junk, min_size=1).filter(not_a_float))
    elif defect == "label":
        cells[row][-1] = repr(draw(st.floats().filter(lambda v: v not in (0.0, 1.0))))
    elif defect == "short":
        del cells[row][col]
    elif defect == "long":
        cells[row].insert(col, draw(st.text("0123456789.e-")))
    elif defect == "quote":  # the quoted cell runs to the end of the file, so the row has one cell
        cells[row][0] = '"' + cells[row][0]
    data = "\r\n".join(["f0,f1,f2,A", *map(",".join, cells)]).encode() + b"\r\n"
    if defect == "bytes":  # never valid UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    if defect == "header":
        data = draw(st.sampled_from([b"", b"\r\n", b"A\r\n0\r\n1\r\n"]))
    return data


@st.composite
def malformed_table(draw, db):
    """The name of one of the database's tables in directory db, and its bytes with one defect."""
    table = draw(st.sampled_from(sorted(path.stem for path in db.glob("*.csv"))))  # a file's stem is its table
    lines = (db / f"{table}.csv").read_bytes().decode().split("\r\n")[:-1]
    defect = draw(st.sampled_from(["bytes", "short", "junk", "quote", "empty"]))
    row = draw(st.integers(1, len(lines) - 1))  # a data row, so a row defect is a reject
    cells = lines[row].split(",")
    if defect == "short":  # user_id stays, so the row is not blank
        del cells[draw(st.integers(1, len(cells) - 1))]
    elif defect == "junk":  # into a date or integer cell: every column but user_id (0) and status (1)
        first = 2 if table == "demographics" else 1
        cells[draw(st.integers(first, len(cells) - 1))] = draw(st.text("xyz!?", min_size=1))
    elif defect == "quote":  # the quoted cell runs to the end of the file
        cells[0] = '"' + cells[0]
    lines[row] = ",".join(cells)
    data = "\r\n".join(lines).encode() + b"\r\n"
    if defect == "bytes":  # never valid UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return table, defect, b"" if defect == "empty" else data


def json_paths(doc, path=()):
    """The key path of every value inside doc, containers included."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield (*path, key)
        yield from json_paths(child, (*path, key))


JSON_TYPES = {type(None): None, bool: True, int: 7, float: 0.5, str: "x", list: [1], dict: {"a": 1}}


@st.composite
def mutated_model(draw, models):
    """A model kind and the document of its model in models/<kind>/model.json with one field replaced."""
    kind = draw(st.sampled_from(["forest", "knn", "gbt", "majority", "tree", "mlp"]))
    doc = json.loads((models / kind / "model.json").read_text())
    paths = list(json_paths(doc))
    at = lambda path: functools.reduce(operator.getitem, path, doc)  # noqa: E731
    arrays = [p for p in paths if isinstance(at(p), dict) and at(p).keys() == {"dtype", "shape", "data"}]
    if draw(st.booleans()):  # a value of another JSON type
        path = draw(st.sampled_from(paths))
        parent = at(path[:-1])
        kinds = [t for t in JSON_TYPES if not isinstance(parent[path[-1]], t)]
        parent[path[-1]] = JSON_TYPES[draw(st.sampled_from(kinds))]
    else:  # an array of another dtype or length
        path = draw(st.sampled_from(arrays))
        parent = at(path[:-1])
        a = decode_array(parent[path[-1]])
        if draw(st.booleans()):
            dtypes = ("<f8", "<f4", "<i8", "<i4", "|b1", "<U1", "<m8", "<c16")
            a = a.astype(draw(st.sampled_from([t for t in dtypes if t != a.dtype.str])))
        else:
            a = a[:-1] if draw(st.booleans()) else np.concatenate([a, a[-1:]])  # every array has a row
        parent[path[-1]] = encode_array(a)
    return kind, path, doc


@pytest.fixture(scope="module")
def database(tmp_path_factory, small_db):
    """The directory of the small database's twelve tables."""
    from adherence.ingestion import write_database

    d = tmp_path_factory.mktemp("db")
    write_database(small_db, d)
    return d


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A directory with a small dataset ds.csv and <kind>/model.json trained on it with preprocessing."""
    d = tmp_path_factory.mktemp("models")
    rng = np.random.default_rng(8)
    write_dataset_csv(make_dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, 40)), d / "ds.csv")
    configs = {"mlp": {"hidden_layers": [2], "max_epochs": 1}, "forest": {"n_trees": 3}, "gbt": {"n_rounds": 3}}
    for kind in ("forest", "knn", "gbt", "majority", "tree", "mlp"):
        (d / "train.json").write_text(json.dumps({"model": configs.get(kind, {})}))
        assert run("train", "--dataset", str(d / "ds.csv"), "--model", kind, "--config", str(d / "train.json"),
                   "--out", str(d / kind)) == 0
    return d


class TestMalformedInputs:
    @settings(deadline=None)
    @given(malformed_dataset())
    def test_fuzzed_dataset_is_one_error_line(self, data):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
            (Path(tmp) / "ds.csv").write_bytes(data)
            code = run("cv", "--dataset", str(Path(tmp) / "ds.csv"), "--model", "majority", "--k", "2",
                       "--out", str(Path(tmp) / "o"))
        lines = err.getvalue().strip().splitlines()
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith("error"), lines
        assert f"{Path(tmp) / 'ds.csv'}: " in lines[0] and "line 0" not in lines[0], lines
        assert "Traceback" not in out.getvalue() + err.getvalue()

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_fuzzed_database_is_one_error_line(self, database, data):
        """A reject leaves exit 0 and one rejected row; a file-level defect is one line naming the table."""
        table, defect, broken = data.draw(malformed_table(database))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
            db = shutil.copytree(database, Path(tmp) / "db")
            (db / f"{table}.csv").write_bytes(broken)
            code = run("ingest", "--db", str(db), "--out", str(Path(tmp) / "o"))
            rejected = json.loads((Path(tmp) / "o" / "ingest_summary.json").read_text())["n_rejected_rows"] \
                if code == 0 else None
        lines = err.getvalue().strip().splitlines()
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if defect in ("short", "junk") or (code == 0 and defect == "quote"):
            assert (code, lines, rejected) == (0, [], 1)
        else:
            assert code == 1 and len(lines) == 1, lines
            assert lines[0].startswith(f"error [ingest/ingestion]: {table}: "), lines
            if defect == "bytes":
                assert lines[0].endswith(f"{db / table}.csv: not UTF-8 text (invalid start byte)")

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_fuzzed_model_file_is_one_error_line(self, models, data):
        """A field of another JSON type, or an array of another dtype or length, fails as one line or loads."""
        kind, path, doc = data.draw(mutated_model(models))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
            (Path(tmp) / "model.json").write_text(json.dumps(doc))
            code = run("predict", "--model-file", str(Path(tmp) / "model.json"), "--dataset", str(models / "ds.csv"),
                       "--out", str(Path(tmp) / "p"))
        lines = err.getvalue().strip().splitlines()
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert (code, lines) == (0, []) or (code in (1, 2) and len(lines) == 1 and lines[0].startswith("error")), \
            (kind, path, code, lines)

    def trained_model(self, tmp_path, kind):
        rng = np.random.default_rng(8)
        write_dataset_csv(make_dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, 40)), tmp_path / "ds.csv")
        small = {"model": {"hidden_layers": [2], "max_epochs": 1}} if kind == "mlp" else {}
        (tmp_path / "train.json").write_text(json.dumps(small))
        assert run("train", "--dataset", str(tmp_path / "ds.csv"), "--model", kind, "--config",
                   str(tmp_path / "train.json"), "--no-preprocess", "--out", str(tmp_path / "t")) == 0
        return tmp_path / "t" / "model.json"

    # A case's message names the file where it reads "{path}".
    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("tree", "kind", None, "{path}: missing key 'kind'"),
            ("tree", "config", None, "{path}: missing key 'config'"),
            ("tree", "n_features", None, "{path}: missing key 'n_features'"),
            ("tree", "feature_names", None, "{path}: missing key 'feature_names'"),
            ("tree", "params", None, "{path}: missing key 'params'"),
            ("tree", "n_features", "3", "{path}: key 'n_features' has type str"),
            ("tree", "params", [], "{path}: key 'params' has type list"),
            ("tree", "params", {}, "{path}: bad tree params (KeyError('tree'))"),
            ("tree", "format_version", 1, "unsupported model format version 1"),
            ("tree", "preprocess", {}, "{path}: bad preprocess block (KeyError('column_names'))"),
            ("tree", "preprocess", [], "{path}: bad preprocess block (TypeError("),
            ("tree", "preprocess", preprocess_block(static=np.ones(3)),
             "{path}: bad preprocess block (ValueError('static must be a boolean mask'))"),
            ("tree", "preprocess", preprocess_block(static=np.ones(2, dtype=bool)),
             "{path}: bad preprocess block (ValueError('modes, scale_min, scale_max and static must hold one entry "
             "per column (3)'))"),
            ("tree", "preprocess", preprocess_block(modes=np.zeros(2)),
             "{path}: bad preprocess block (ValueError('modes, scale_min, scale_max and static must hold one entry "
             "per column (3)'))"),
            ("tree", "params", edit_tree("left", lambda a: np.r_[1000, a[1:]]),
             "{path}: bad tree params (ValueError('tree child index out of order or range'))"),
            ("tree", "params", edit_tree("left", lambda a: np.r_[0, a[1:]]),
             "{path}: bad tree params (ValueError('tree child index out of order or range'))"),
            ("tree", "params", edit_tree("feature", lambda a: np.r_[99, a[1:]]),
             "{path}: bad tree params (ValueError('tree feature outside [-1, 3)'))"),
            ("tree", "params", edit_tree("value", lambda a: a[:-1]),
             "{path}: bad tree params (ValueError('tree arrays have the wrong lengths'))"),
            ("tree", "params", edit_tree("feature", lambda a: np.r_[a[:-1], -1.5]),
             "{path}: bad tree params (ValueError('tree feature array has dtype float64, expected int64'))"),
            ("tree", "params", edit_tree("feature", lambda a: np.r_[a[:-1], np.nan]),
             "{path}: bad tree params (ValueError('tree feature array has dtype float64, expected int64'))"),
            ("tree", "params", lambda p: p["tree"]["feature"].update(dtype=None),
             "{path}: bad tree params (TypeError('array dtype is None, expected a string'))"),
            ("knn", "params", lambda p: p.update(y=encode_array(decode_array(p["y"])[:-1])),
             "{path}: bad knn params (ValueError('knn arrays must be X (n, 3) and y (n,) with n >= k=30'))"),
            ("majority", "params", {"p1": "nan"}, "probabilities must be finite"),
            ("mlp", "config", lambda c: c.update(dtype="foo"),
             "{path}: bad mlp config: dtype must be 'float32' or 'float64', got 'foo'"),
            ("mlp", "params", {"weights": [], "biases": []},
             "{path}: bad mlp params (ValueError('mlp layer shapes must follow widths [3, 2, 2]'))"),
            ("knn", "params", recast("X", dtype="<U1"),
             "{path}: bad knn params (ValueError('knn X array has dtype <U1, expected float64'))"),
            ("knn", "params", recast("y", dtype="<m8"),
             "{path}: bad knn params (ValueError('knn y array has dtype timedelta64, expected int64'))"),
            ("mlp", "params", recast("weights", 0, dtype="<c16"),
             "{path}: bad mlp params (ValueError('mlp weights array has dtype complex128, expected float64'))"),
            ("mlp", "params", recast("biases", 1, dtype="<f4"),
             "{path}: bad mlp params (ValueError('mlp biases array has dtype float32, expected float64'))"),
            ("tree", "preprocess", preprocess_block(modes=np.zeros(3, dtype="<c16")),
             "{path}: bad preprocess block (ValueError('modes array has dtype complex128, expected float64'))"),
            ("tree", "preprocess", preprocess_block(scale_min=np.zeros(3).astype("<U1")),
             "{path}: bad preprocess block (ValueError('scale_min array has dtype <U1, expected float64'))"),
            ("tree", "preprocess", preprocess_block(scale_max=np.ones(3).astype("<m8")),
             "{path}: bad preprocess block (ValueError('scale_max array has dtype timedelta64, expected float64'))"),
            ("forest", "params", {"trees": []},
             "{path}: bad forest params (ValueError('forest must hold 200 trees, not 0'))"),
            ("gbt", "params", lambda p: p.update(trees=p["trees"][:-1]),
             "{path}: bad gbt params (ValueError('gbt must hold 200 trees, not 199'))"),
        ],
        ids=["no-kind", "no-config", "no-n_features", "no-feature_names", "no-params",
             "str-n_features", "list-params", "empty-params", "format-version-1",
             "empty-preprocess", "list-preprocess", "float-static", "short-static", "short-modes",
             "child-out-of-range", "own-left-child", "feature-99", "short-value", "float-feature", "nan-feature",
             "null-dtype",
             "knn-short-y", "majority-nan-p1", "mlp-unknown-dtype", "mlp-no-layers",
             "knn-str-X", "knn-timedelta-y", "mlp-complex-weights", "mlp-float32-biases",
             "complex-modes", "str-scale-min", "timedelta-scale-max", "forest-no-trees", "gbt-one-tree-short"],
    )
    def test_bad_model_file_is_one_error_line(self, tmp_path, capsys, kind, key, value, message):
        path = self.trained_model(tmp_path, kind)
        doc = json.loads(path.read_text())
        if value is None:
            del doc[key]
        elif callable(value):
            value(doc[key])
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("predict", "--model-file", str(path), "--dataset", str(tmp_path / "ds.csv"),
                   "--out", str(tmp_path / "p"))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error [predict]: ")
        assert message.format(path=path) in err[0]

    @pytest.mark.parametrize(
        "content, message",
        [
            ("", "empty dataset file, header expected"),
            ("f0,f1,A\n1,2,0\n3,x,1\n", "line 3: could not convert string to float: 'x'"),
            ("f0,f1,A\n1,2,0\n3,4,0.7\n", "line 3: label '0.7' is not 0 or 1"),
            ("f0,f1,A\n1,2,2\n3,4,1\n", "line 2: label '2' is not 0 or 1"),
            ("f0,f1,A\n1,2,0\n3,4,-1\n", "line 3: label '-1' is not 0 or 1"),
            ("A\n0\n1\n0\n1\n", "no feature columns in the header"),
        ],
        ids=["empty-file", "non-numeric-cell", "fractional-label", "label-2", "label-minus-1", "labels-only"],
    )
    def test_bad_dataset_file_is_one_error_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "ds.csv"
        path.write_text(content)
        capsys.readouterr()
        code = run("cv", "--dataset", str(path), "--model", "majority", "--k", "2", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error [cv]: ")
        assert f"{path}: {message}" in err[0]

    @pytest.mark.parametrize("kind", ["forest", "knn", "gbt", "majority", "tree", "mlp"])
    def test_null_cell_at_predict_without_preprocessing(self, tmp_path, capsys, kind):
        model = self.trained_model(tmp_path, kind)  # trained with --no-preprocess
        lines = (tmp_path / "ds.csv").read_text().splitlines()
        lines[5] = "," + lines[5].split(",", 1)[1]  # empty first cell of row 5
        (tmp_path / "holes.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run("predict", "--model-file", str(model), "--dataset", str(tmp_path / "holes.csv"),
                   "--out", str(tmp_path / "p"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip().splitlines() == ["error [predict]: X contains nulls; impute them first"]
        assert not (tmp_path / "p" / "predictions.csv").exists()

    @pytest.mark.parametrize("command", ["cv", "train", "predict"])
    @pytest.mark.parametrize("kind, field, value, message", MODEL_RANGE_CASES,
                             ids=[f"{kind}-{field}" for kind, field, *_ in MODEL_RANGE_CASES])
    def test_config_value_out_of_range(self, tmp_path, capsys, command, kind, field, value, message):
        """A usage error from cv and train; from predict, a model file that carries the value is malformed."""
        model = self.trained_model(tmp_path, kind)
        if command == "predict":
            doc = json.loads(model.read_text())
            doc["config"][field] = value
            model.write_text(json.dumps(doc))
            argv, expected = ["--model-file", str(model)], (1, f"error [predict]: malformed model file {model}: ")
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"model": {"kind": kind, field: value}}))
            argv, expected = ["--model", kind, "--config", str(tmp_path / "cfg.json")], (2, "error: ")
        capsys.readouterr()
        code = run(command, *argv, "--dataset", str(tmp_path / "ds.csv"), "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        assert code == expected[0]
        assert captured.err.strip().splitlines() == [f"{expected[1]}bad {kind} config: {message}"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("infinity", [math.inf, -math.inf], ids=["Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "command, section, field",
        [
            ("cv", {"model": {"kind": "gbt"}}, "l2_lambda"),
            ("cv", {"model": {"kind": "mlp"}}, "adam_eps"),
            ("train", {"model": {"kind": "gbt"}}, "l2_lambda"),
            ("cv", {"resampler": {"method": "smote"}}, "target_ratio"),
            ("generate", {"generate": {}}, "engagement_alpha"),
            ("predict", {"config": {}}, "l2_lambda"),
        ],
        ids=["cv-model", "cv-mlp", "train-model", "cv-resampler", "generate", "predict-model-file"],
    )
    def test_infinity_is_refused(self, tmp_path, capsys, command, section, field, infinity):
        """JSON has no infinity: a config that holds one exits 2, a model file 1, and neither writes a file."""
        model = self.trained_model(tmp_path, "gbt")
        [(name, body)] = section.items()
        if command == "predict":
            doc = json.loads(model.read_text())
            doc["config"][field] = infinity
            model.write_text(json.dumps(doc))
            argv, code, prefix = ["--model-file", str(model)], 1, f"error [predict]: malformed model file {model}: "
        else:
            doc = {name: {**body, field: infinity}}
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            argv = ["--config", str(tmp_path / "cfg.json")]
            argv += ["--n-users", "5"] if command == "generate" else ["--model", body.get("kind", "majority")]
            code, prefix = 2, "error: "
        assert "Infinity" in (model if command == "predict" else tmp_path / "cfg.json").read_text()
        if command != "generate":
            argv += ["--dataset", str(tmp_path / "ds.csv")]
        capsys.readouterr()
        assert run(command, *argv, "--out", str(tmp_path / "o")) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(prefix), err
        assert err[0].endswith(f"{field!r} is {infinity!r}, expected float")
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("command", ["cv", "ingest", "generate", "predict"])
    def test_undecodable_file_is_one_error_line(self, tmp_path, capsys, db_dir, command):
        """A byte that is not UTF-8 ends in one line naming the file; a config file exits 2, the others 1."""
        model = self.trained_model(tmp_path, "tree")
        rng = np.random.default_rng(3)
        write_dataset_csv(make_dataset(rng.normal(size=(600, 3)), rng.integers(0, 2, 600)), tmp_path / "big.csv")
        (tmp_path / "cfg.json").write_text(json.dumps({"generate": {"n_users": 3}}))
        path, argv, code, prefix = {
            "cv": (tmp_path / "big.csv", ["--dataset", str(tmp_path / "big.csv"), "--model", "majority"], 1,
                   "error [cv]: "),
            "ingest": (db_dir / "demographics.csv", ["--db", str(db_dir)], 1,
                       "error [ingest/ingestion]: demographics: "),
            "generate": (tmp_path / "cfg.json", ["--config", str(tmp_path / "cfg.json")], 2, "error: bad config file "),
            "predict": (model, ["--model-file", str(model), "--dataset", str(tmp_path / "ds.csv")], 1,
                        "error [predict]: corrupt model file "),
        }[command]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20] + b"\xff" + data[len(data) - 20 :])  # past the first 8 KiB chunk of big.csv
        capsys.readouterr()
        assert run(command, *argv, "--out", str(tmp_path / "o")) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"{prefix}{path}: not UTF-8 text (invalid start byte)"]
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_size_beyond_memory_is_one_error_line(self, tmp_path, capsys, command):
        """Arrays of about 10**18 bytes: numpy refuses them at once, and the MemoryError is one line."""
        rng = np.random.default_rng(5)
        write_dataset_csv(make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20)), tmp_path / "ds.csv")
        (tmp_path / "cfg.json").write_text(json.dumps({"model": {"kind": "mlp", "hidden_layers": [10**16]}}))
        argv = {"generate": ["generate", "--n-users", str(10**18)],
                "train": ["train", "--dataset", str(tmp_path / "ds.csv"), "--config", str(tmp_path / "cfg.json")]}
        capsys.readouterr()
        assert run(*argv[command], "--out", str(tmp_path / "o")) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error [{command}]: Unable to allocate "), err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_config_that_is_not_a_file_is_usage_error(self, tmp_path, capsys, name):
        capsys.readouterr()
        assert run("generate", "--config", str(tmp_path / name), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --config file does not exist: {tmp_path / name}"]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """CSV and JSON input alike may start with a UTF-8 byte-order mark."""
        model = self.trained_model(tmp_path, "tree")
        for path in (model, tmp_path / "ds.csv"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        (tmp_path / "cfg.json").write_bytes(b"\xef\xbb\xbf" + json.dumps({"generate": {"n_users": 3}}).encode())
        assert run("generate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "g")) == 0
        assert run("predict", "--model-file", str(model), "--dataset", str(tmp_path / "ds.csv"),
                   "--out", str(tmp_path / "p")) == 0

    def test_oversized_dataset_cell_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "ds.csv"
        path.write_text("f0,f1,A\n1,2,0\n3," + "4" * 131_073 + ",1\n")
        capsys.readouterr()
        code = run("cv", "--dataset", str(path), "--model", "majority", "--k", "2", "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error [cv]: {path}: line 3: field larger than field limit")
        assert "Traceback" not in captured.out + captured.err

    def test_oversized_database_cell_is_one_error_line(self, tmp_path, capsys, db_dir):
        path = db_dir / "demographics.csv"
        lines = path.read_text().splitlines()
        lines[4] = "x" * 131_073 + lines[4]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run("ingest", "--db", str(db_dir), "--out", str(tmp_path / "o"))
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 1
        assert len(err) == 1
        assert err[0].startswith(f"error [ingest/ingestion]: demographics: {path}: line 5: field larger than field limit")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("table, column, reason", [("demographics", "birth_year", "birth_year too large"),
                                                       ("spq_1", "Q1", "answer too large")],
                             ids=["birth_year", "answer"])
    def test_integer_beyond_the_float_range_is_a_reject(self, tmp_path, capsys, db_dir, table, column, reason):
        """int() takes a 400-digit number but float() does not: the row is a reject, and every command runs."""
        path = db_dir / f"{table}.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[3][rows[0].index(column)] = "9" * 400
        path.write_text("\n".join(map(",".join, rows)) + "\n")
        capsys.readouterr()
        for command in ("ingest", "build", "stats"):
            assert run(command, "--db", str(db_dir), "--out", str(tmp_path / command)) == 0
        for command in ("ingest", "build"):
            assert f"{table},3,{reason}" in (tmp_path / command / "rejects.csv").read_text().splitlines()
        assert capsys.readouterr().err == ""

    def test_wrong_width_dataset_row(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        path = tmp_path / "ds.csv"
        write_dataset_csv(make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20)), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 2)[0]  # drop the last two cells of line 4
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run("cv", "--dataset", str(path), "--model", "majority", "--k", "2", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error [cv]: ")
        assert f"{path}: line 4: 2 cell(s), but the header has 4" in err[0]

    @pytest.mark.parametrize(
        "command, config",
        [
            ("cv", {"cv": {"n_jobs": "two"}}),
            ("cv", {"cv": {"k": "ten"}}),
            ("cv", {"seed": "x"}),
            ("cv", {"cv": {"n_jobs": True}}),
            ("cv", {"model": "forest"}),
            ("cv", {"resampler": "smote"}),
            ("generate", {"generate": "x"}),
            ("cv", {"cv": [1]}),
            ("cv", {"out": 5}),
            *((command, {"model": section}) for command in ("cv", "train") for section, _ in MODEL_FIELD_CASES),
            ("cv", {"resampler": {"method": "smote", "k_neighbors": True}}),
            ("cv", {"resampler": {"method": "smote", "seed": 1.5}}),
            ("generate", {"generate": {"n_users": True}}),
            ("generate", {"generate": {"waning_sessions": 2.5}}),
            ("generate", {"generate": {"seed": 1.5}}),
            ("generate", {"generate": {"null_rates": [1]}}),
            ("generate", {"generate": {"demographic_ranges": {"education": [0]}}}),
        ],
        ids=["str-n_jobs", "str-k", "str-seed", "bool-n_jobs", "str-model", "str-resampler",
             "str-generate", "list-cv", "int-out",
             *(f"{command}-{name}" for command in ("cv", "train") for _, name in MODEL_FIELD_CASES),
             "bool-resampler-k_neighbors", "float-resampler-seed", "bool-n_users", "float-waning_sessions",
             "float-generate-seed", "list-null_rates", "short-demographic-range"],
    )
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, monkeypatch, capsys, command, config):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ADHERENCE_OUT", raising=False)
        rng = np.random.default_rng(11)
        write_dataset_csv(make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20)), tmp_path / "ds.csv")
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        section = config.get("model")
        kind = section.get("kind", "majority") if isinstance(section, dict) else "majority"
        argv = {"cv": ["cv", "--dataset", "ds.csv", "--model", kind],
                "train": ["train", "--dataset", "ds.csv", "--model", kind],
                "generate": ["generate"] if "n_users" in config.get("generate", "")
                else ["generate", "--n-users", "5"]}[command]
        capsys.readouterr()
        code = run(*argv, "--config", "cfg.json")
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "Traceback" not in captured.out + captured.err
