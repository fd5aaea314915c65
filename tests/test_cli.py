import argparse
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from adherence.cli import build_parser, main
from adherence.features import read_dataset_csv, write_dataset_csv
from adherence.learn.serialize import decode_array, encode_array

from conftest import make_dataset
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
        unlabeled = make_dataset(labeled.X, None, columns=labeled.column_names, variant="D0")
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
    ("mlp", "learning_rate", -0.1, "learning_rate must be > 0"),
]


def edit_tree(array, edit):
    """A params edit: decode the tree's node array, change it with edit and encode it back."""
    def apply(params):
        params["tree"][array] = encode_array(edit(decode_array(params["tree"][array])))
    return apply


class TestMalformedInputs:
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
            ("tree", "params", edit_tree("left", lambda a: np.r_[1000, a[1:]]),
             "{path}: bad tree params (ValueError('tree child index out of order or range'))"),
            ("tree", "params", edit_tree("left", lambda a: np.r_[0, a[1:]]),
             "{path}: bad tree params (ValueError('tree child index out of order or range'))"),
            ("tree", "params", edit_tree("feature", lambda a: np.r_[99, a[1:]]),
             "{path}: bad tree params (ValueError('tree feature outside [-1, 3)'))"),
            ("tree", "params", edit_tree("value", lambda a: a[:-1]),
             "{path}: bad tree params (ValueError('tree arrays have the wrong lengths'))"),
            ("knn", "params", lambda p: p.update(y=encode_array(decode_array(p["y"])[:-1])),
             "{path}: bad knn params (ValueError('knn arrays must be X (n, 3) and y (n,) with n >= k=30'))"),
            ("majority", "params", {"p1": "nan"}, "probabilities must be finite"),
            ("mlp", "config", lambda c: c.update(dtype="foo"),
             "{path}: bad mlp config: dtype must be 'float32' or 'float64', got 'foo'"),
            ("mlp", "params", {"weights": [], "biases": []},
             "{path}: bad mlp params (ValueError('mlp layer shapes must follow widths [3, 2, 2]'))"),
        ],
        ids=["no-kind", "no-config", "no-n_features", "no-feature_names", "no-params",
             "str-n_features", "list-params", "empty-params", "format-version-1",
             "empty-preprocess", "list-preprocess",
             "child-out-of-range", "own-left-child", "feature-99", "short-value",
             "knn-short-y", "majority-nan-p1", "mlp-unknown-dtype", "mlp-no-layers"],
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
