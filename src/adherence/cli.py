"""Batch command-line front end for the pipeline.

Commands: generate, ingest, build, stats, cv, train, predict. Options come
from an optional JSON config file; command-line flags win over file values,
and the ADHERENCE_OUT environment variable overrides the default output
directory. Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import warnings
from datetime import date
from pathlib import Path

from . import __version__, analytics, synthgen
from .artifact import canonical_json, read_json, write_csv, write_json
from .evaluate import cross_validate, write_report
from .features import (
    LABEL_COLUMN,
    VARIANTS,
    CsvLines,
    build_variant,
    fit_preprocess,
    read_dataset_csv,
    transform,
    write_dataset_csv,
)
from .ingestion import (
    DatabasePaths,
    IngestError,
    cleanse,
    parse_database,
    write_cleanse_report,
    write_database,
    write_rejects,
)
from .learn import CONFIG_TYPES, build_model, classify, config_from_dict, from_json, load_model, save_model
from .resample import METHODS as RESAMPLE_METHODS
from .resample import ResampleConfig, oversample
from .rng import substream_seed
from .sessionize import windows_for_database, write_windows


class UsageError(Exception):
    """Bad configuration or arguments; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config and argument helpers

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = read_json(_require(path, "--config file", Path.is_file))
    except ValueError as exc:
        raise UsageError(f"bad config file {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _setting(cfg: dict, key: str, kind: type, default=None, flag=None):
    """The command-line ``flag`` if given, else config ``key`` checked to be of JSON type ``kind``.

    "cv.k" names key "k" of the "cv" section. A missing or null key gives
    ``default``; any other value not of ``kind`` is a UsageError (true and
    false are not integers).
    """
    if flag is not None:
        return flag
    section, name = cfg, key
    if "." in key:
        parent, name = key.split(".")
        section = _setting(cfg, parent, dict, {})
    value = section.get(name)
    if value is None:
        return default
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise UsageError(f"config key {key!r} has type {type(value).__name__}, expected {kind.__name__}")
    return value


def _require(path: str | None, what: str, exists) -> Path:
    """``path`` as a Path; a UsageError if it is not given or ``exists`` is false for it."""
    if path is None:
        raise UsageError(f"{what} is required")
    p = Path(path)
    if not exists(p):
        raise UsageError(f"{what} does not exist: {p}")
    return p


# ---------------------------------------------------------------------------
# commands: each takes (args, config file, output directory), writes its files
# and returns the config its manifest records and the names of those files

def cmd_generate(args, cfg: dict, out: Path):
    section = _setting(cfg, "generate", dict, {})
    if args.n_users is not None:
        section = {**section, "n_users": args.n_users}
    seed = _setting(cfg, "generate.seed", int, _setting(cfg, "seed", int, 0), flag=args.seed)
    try:
        synth_cfg = _synth_config(section, seed)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid generation config: {exc}") from None
    db = synthgen.generate(synth_cfg)
    paths = write_database(db, out)
    outputs = [p.name for p in paths.acquisitions.values()]
    outputs += [paths.demographics.name] + [p.name for p in paths.questionnaires.values()]
    print(f"generated {synth_cfg.n_users} users, {len(db.events)} events -> {out}")
    return {"seed": seed, "generate": _synth_config_dict(synth_cfg)}, outputs


def _synth_config(section: dict, seed: int) -> synthgen.SynthConfig:
    """The generate section as a SynthConfig; dates are ISO text and null-rate keys read "spq_1"."""
    values = {**section, "seed": seed}
    for key in ("start_date", "end_date"):
        if isinstance(values.get(key), str):
            values[key] = date.fromisoformat(values[key])
    if isinstance(values.get("null_rates"), dict):
        rates = {}
        for key, rate in values["null_rates"].items():
            qid, _, inst = key.partition("_")
            rates[(qid, int(inst))] = rate
        values["null_rates"] = rates
    return from_json(synthgen.SynthConfig, values)


def _synth_config_dict(cfg: synthgen.SynthConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["null_rates"] = {f"{qid}_{inst}": rate for (qid, inst), rate in sorted(cfg.null_rates.items())}
    return d


def _ingest(args):
    """The --db directory, the database parsed from it, the cleansed database and the cleanse report."""
    db_dir = _require(args.db, "--db database directory", Path.is_dir)
    db = parse_database(DatabasePaths.from_dir(db_dir))
    cleansed, report = cleanse(db)
    return db_dir, db, cleansed, report


def cmd_ingest(args, cfg: dict, out: Path):
    db_dir, db, cleansed, report = _ingest(args)
    write_rejects(db.rejects, out / "rejects.csv")
    write_cleanse_report(report, out / "cleanse_report.csv")
    summary = {
        "n_rejected_rows": len(db.rejects),
        "n_input_users": report.n_input_users,
        "n_retained_users": report.n_retained,
        "n_removed_users": report.n_removed,
        "n_events_retained": len(cleansed.events),
    }
    write_json(out / "ingest_summary.json", summary)
    print(
        f"ingested {report.n_input_users} users: retained {report.n_retained}, "
        f"removed {report.n_removed}, rejected rows {len(db.rejects)}"
    )
    return {"db": str(db_dir)}, ["rejects.csv", "cleanse_report.csv", "ingest_summary.json"]


def _windows(cleansed):
    windows = windows_for_database(cleansed)
    if not windows:
        warnings.warn("no window samples produced (empty or too-short database)")
    return windows


def _pick_variants(variant: str | None) -> list[str]:
    if variant is None:
        return list(VARIANTS)
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return [variant]


def cmd_build(args, cfg: dict, out: Path):
    variants = _pick_variants(_setting(cfg, "variant", str, flag=args.variant))
    db_dir, db, cleansed, report = _ingest(args)
    windows = _windows(cleansed)
    write_windows(windows, out / "windows.csv")
    write_rejects(db.rejects, out / "rejects.csv")
    write_cleanse_report(report, out / "cleanse_report.csv")
    outputs = ["windows.csv", "rejects.csv", "cleanse_report.csv"]
    # variants ascend, so the last is the widest: the first write formats its rows, and every write cuts them
    widest = build_variant(windows, cleansed.profiles).prefix(variants[-1])
    lines = CsvLines(widest.X)
    for variant in variants:
        name = f"dataset_{variant}.csv"
        write_dataset_csv(widest.prefix(variant), out / name, lines)
        outputs.append(name)
    print(f"built {len(windows)} windows into {len(variants)} dataset variant(s) -> {out}")
    return {"db": str(db_dir), "variants": variants}, outputs


def cmd_stats(args, cfg: dict, out: Path):
    [variant] = _pick_variants(_setting(cfg, "variant", str, "D0", flag=args.variant))
    db_dir, _, cleansed, report = _ingest(args)
    windows = _windows(cleansed)
    outputs: list[str] = []
    stats_doc: dict = {"n_users": report.n_retained, "n_windows": len(windows)}

    def table(name: str, header: list, rows, doc=None) -> None:
        """Write <name>.csv, and record doc under name in stats.json unless it is None."""
        write_csv(out / f"{name}.csv", header, rows)
        outputs.append(f"{name}.csv")
        if doc is not None:
            stats_doc[name] = doc

    rows = analytics.null_rates(cleansed.profiles)
    table("null_rates", ["questionnaire", "feature_group", "instance", "pct_null"],
          ([r["questionnaire"], r["feature_group"], r["instance"], f"{r['pct_null']:.2f}"] for r in rows), rows)

    alphas = analytics.questionnaire_alpha_reports(cleansed.profiles)
    table("cronbach_alpha", ["questionnaire", "instance", "alpha", "n_respondents"],
          ([a["questionnaire"], a["instance"], "" if a["alpha"] is None else f"{a['alpha']:.4f}", a["n_respondents"]]
           for a in alphas), alphas)

    demo = analytics.demographic_summary(cleansed.profiles)
    table("demographics", ["field", "min", "max", "mean", "mode"],
          ([name, s["minimum"], s["maximum"], f"{s['mean']:.4f}", s["mode"]] for name, s in demo.items()), demo)

    if windows:
        dist = analytics.acquisition_distribution(windows)
        table("acquisition_distribution", ["bin_start", "bin_end", "count"], dist.pop("bins"), dist)

        d6 = build_variant(windows, cleansed.profiles)
        corr, names = analytics.session_correlation_matrix(d6.prefix("D0"))
        table("session_correlation", ["", *names],
              ([name, *("" if math.isnan(v) else repr(float(v)) for v in row)]
               for name, row in zip(names, corr)))

        dup = analytics.duplicate_analysis(d6.prefix(variant))
        duplicates = dup.pop("duplicates")
        table("duplicates", ["multiplicity", "n_tuples"], dup.pop("multiplicity_histogram").items(),
              {**dup, "variant": variant, "n_duplicate_groups": len(duplicates), "top_groups": duplicates[:20]})

    write_json(out / "stats.json", stats_doc)
    print(f"stats written -> {out}")
    return {"db": str(db_dir), "variant": variant}, [*outputs, "stats.json"]


def _model_config(args, cfg: dict, seed: int):
    kind = _setting(cfg, "model.kind", str, flag=args.model)
    if kind is None:
        raise UsageError("--model (or a model section in the config file) is required")
    params = {k: v for k, v in _setting(cfg, "model", dict, {}).items() if k != "kind"}
    if kind in CONFIG_TYPES and "seed" not in params:
        if any(f.name == "seed" for f in dataclasses.fields(CONFIG_TYPES[kind])):
            params["seed"] = substream_seed(seed, "model")
    try:
        return config_from_dict(kind, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resample_config(args, cfg: dict, seed: int) -> ResampleConfig | None:
    method = _setting(cfg, "resampler.method", str, flag=args.resampler)
    if method in (None, "none"):
        return None
    if method not in RESAMPLE_METHODS:
        raise UsageError(f"unknown resampler {method!r}; expected one of {RESAMPLE_METHODS} or 'none'")
    section = _setting(cfg, "resampler", dict, {})
    params = {"seed": substream_seed(seed, "resample"), **section, "method": method}
    try:
        return from_json(ResampleConfig, params)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad resampler config: {exc}") from None


def _fit_inputs(args, cfg: dict):
    """The --dataset path, its labelled dataset, the seed, and the model and resampler configs."""
    dataset_path = _require(args.dataset, "--dataset file", Path.is_file)
    seed = _setting(cfg, "seed", int, 0, flag=args.seed)
    model_cfg = _model_config(args, cfg, seed)
    resample_cfg = _resample_config(args, cfg, seed)
    ds = read_dataset_csv(dataset_path)
    if ds.y is None:
        raise UsageError(f"dataset {dataset_path} has no '{LABEL_COLUMN}' label column")
    return dataset_path, ds, seed, model_cfg, resample_cfg


def cmd_cv(args, cfg: dict, out: Path):
    n_jobs = _setting(cfg, "cv.n_jobs", int, 1, flag=args.jobs)
    if n_jobs < 1:
        raise UsageError(f"--jobs (cv.n_jobs) must be >= 1, got {n_jobs}")
    k = _setting(cfg, "cv.k", int, 10, flag=args.k)
    if k < 2:
        raise UsageError(f"--k (cv.k) must be >= 2, got {k}")
    _, ds, seed, model_cfg, resample_cfg = _fit_inputs(args, cfg)
    report = cross_validate(
        ds,
        model_cfg,
        resample_cfg=resample_cfg,
        k=k,
        seed=seed,
        n_jobs=n_jobs,
    )
    write_report(report, out / "cv_report.json", out / "cv_report.csv")
    pooled = report.pooled
    print(
        f"cv done: pooled accuracy {pooled.accuracy:.4f}, "
        f"score {'n/a' if pooled.score is None else f'{pooled.score:.4f}'} -> {out}"
    )
    return report.fingerprint, ["cv_report.json", "cv_report.csv"]


def cmd_train(args, cfg: dict, out: Path):
    dataset_path, ds, seed, model_cfg, resample_cfg = _fit_inputs(args, cfg)
    state = None
    if not args.no_preprocess:
        state = fit_preprocess(ds)
        ds = transform(ds, state)
    if resample_cfg is not None:
        ds = oversample(ds, resample_cfg)
    model = build_model(model_cfg)
    model.fit(ds.X, ds.labels(), feature_names=ds.column_names)
    save_model(model, out / "model.json", preprocess=state)
    print(f"trained {model.kind} on {ds.n_rows} rows -> {out / 'model.json'}")
    return {
        "dataset": str(dataset_path),
        "seed": seed,
        "model": {"kind": model.kind, **dataclasses.asdict(model_cfg)},
        "resample": None if resample_cfg is None else dataclasses.asdict(resample_cfg),
        "preprocess": not args.no_preprocess,
    }, ["model.json"]


def cmd_predict(args, cfg: dict, out: Path):
    model_path = _require(args.model_file, "--model-file", Path.is_file)
    dataset_path = _require(args.dataset, "--dataset file", Path.is_file)
    model, state = load_model(model_path)
    ds = read_dataset_csv(dataset_path)
    if model.feature_names is not None and list(ds.column_names) != list(model.feature_names):
        missing = [c for c in model.feature_names if c not in ds.column_names]
        raise ValueError(
            f"dataset schema does not match the model: missing column(s) {missing}"
            if missing
            else "dataset schema does not match the model (column order/extras differ)"
        )
    if state is not None:
        ds = transform(ds, state)
    proba = model.predict_proba(ds.X)
    labels = classify(proba)
    write_csv(out / "predictions.csv", ["row_id", "p_high", "label"],
              ([i, repr(float(proba[i, 1])), int(labels[i])] for i in range(proba.shape[0])))
    print(f"predicted {proba.shape[0]} rows -> {out / 'predictions.csv'}")
    return {"model": str(model_path), "dataset": str(dataset_path)}, ["predictions.csv"]


# ---------------------------------------------------------------------------

# Every flag once; each command takes --config and --out, the commands in
# _SEEDED take --seed, and each takes its own.
_FLAGS = {
    "--config": dict(help="JSON config file; flags override its values"),
    "--seed": dict(type=int, help="global seed for all sub-streams"),
    "--out": dict(help="output directory (or set ADHERENCE_OUT)"),
    "--n-users": dict(type=int, help="number of synthetic users"),
    "--db": dict(help="database directory"),
    "--variant": dict(help="variant D0..D6 (build: default all; stats: for duplicate analysis, default D0)"),
    "--dataset": dict(help="dataset CSV produced by build (label column optional for predict)"),
    "--model": dict(help="model kind: knn|tree|forest|gbt|mlp|majority"),
    "--resampler": dict(help="none|random|smote|adasyn"),
    "--k": dict(type=int, help="number of folds (default 10)"),
    "--jobs": dict(type=int, help="fold-level worker threads"),
    "--no-preprocess": dict(action="store_true", help="skip imputation/scaling"),
    "--model-file": dict(help="model JSON written by train"),
}

_COMMANDS = {
    "generate": (cmd_generate, "write a seeded synthetic database", ["--n-users"]),
    "ingest": (cmd_ingest, "parse and cleanse a database, reporting rejects", ["--db"]),
    "build": (cmd_build, "ingest, sessionize and emit dataset variants", ["--db", "--variant"]),
    "stats": (cmd_stats, "diagnostic reports for a database", ["--db", "--variant"]),
    "cv": (cmd_cv, "cross-validate a model on a built dataset",
           ["--dataset", "--model", "--resampler", "--k", "--jobs"]),
    "train": (cmd_train, "fit a model on a full dataset and persist it",
              ["--dataset", "--model", "--resampler", "--no-preprocess"]),
    "predict": (cmd_predict, "run a persisted model over a feature CSV", ["--model-file", "--dataset"]),
}

_SEEDED = ("generate", "cv", "train")  # the commands that draw random numbers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adherence", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        common = ("--config", "--seed", "--out") if name in _SEEDED else ("--config", "--out")
        for flag in (*common, *flags):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Load the config, make the output directory, run the command, write its manifest, map errors and warnings."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning [{args.command}]: {message}", file=sys.stderr)
        try:
            cfg = _load_config(args.config)
            out = Path(args.out or os.environ.get("ADHERENCE_OUT") or _setting(cfg, "out", str) or "out")
            out.mkdir(parents=True, exist_ok=True)
            config, outputs = args.func(args, cfg, out)
            canonical = canonical_json(config)
            write_json(out / f"manifest_{args.command}.json", {
                "artifact_version": __version__,
                "command": args.command,
                "config": json.loads(canonical),
                "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
                "outputs": sorted(outputs),
            })
            return 0
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except IngestError as exc:
            print(f"error [{args.command}/ingestion]: {exc}", file=sys.stderr)
            return 1
        except (ValueError, RuntimeError, OSError, MemoryError) as exc:
            print(f"error [{args.command}]: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
