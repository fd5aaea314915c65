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
from datetime import date
from pathlib import Path

from . import __version__, analytics, synthgen
from .artifact import canonical_json, write_csv, write_json
from .evaluate import cross_validate, write_report
from .features import (
    LABEL_COLUMN,
    VARIANTS,
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
from .learn import CONFIG_TYPES, build_model, classify, config_from_dict, load_model, save_model
from .resample import METHODS as RESAMPLE_METHODS
from .resample import ResampleConfig, oversample
from .rng import substream_seed
from .sessionize import windows_for_database, write_windows


class UsageError(Exception):
    """Bad configuration or arguments; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config & manifest helpers

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {p} is not valid JSON: {exc}") from None
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


def _resolve_out(args, cfg: dict) -> Path:
    out = args.out or os.environ.get("ADHERENCE_OUT") or _setting(cfg, "out", str) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, command: str, config: dict, outputs: list[str]) -> None:
    canonical = canonical_json(config)
    doc = {
        "artifact_version": __version__,
        "command": command,
        "config": json.loads(canonical),
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "outputs": sorted(outputs),
    }
    write_json(out_dir / f"manifest_{command}.json", doc)


def _require_dir(path: str | None, what: str) -> Path:
    if path is None:
        raise UsageError(f"{what} is required")
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"{what} does not exist: {p}")
    return p


def _require_file(path: str | None, what: str) -> Path:
    if path is None:
        raise UsageError(f"{what} is required")
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} does not exist: {p}")
    return p


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    section = _setting(cfg, "generate", dict, {})
    if args.n_users is not None:
        section = {**section, "n_users": args.n_users}
    seed = _setting(cfg, "seed", int, 0, flag=args.seed)
    out = _resolve_out(args, cfg)
    try:
        synth_cfg = _synth_config(section, seed)
        synth_cfg.validate()
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid generation config: {exc}") from None
    db = synthgen.generate(synth_cfg)
    paths = write_database(db, out)
    outputs = [p.name for p in paths.acquisitions.values()]
    outputs += [paths.demographics.name] + [p.name for p in paths.questionnaires.values()]
    _write_manifest(out, "generate", {"seed": seed, "generate": _synth_config_dict(synth_cfg)}, outputs)
    print(f"generated {synth_cfg.n_users} users, {len(db.events)} events -> {out}")
    return 0


def _synth_config(section: dict, seed: int) -> synthgen.SynthConfig:
    values = dict(section)
    values.setdefault("seed", seed)
    for key in ("start_date", "end_date"):
        if key in values and isinstance(values[key], str):
            values[key] = date.fromisoformat(values[key])
    if "null_rates" in values and isinstance(values["null_rates"], dict):
        rates = {}
        for key, rate in values["null_rates"].items():
            qid, _, inst = key.partition("_")
            rates[(qid, int(inst))] = float(rate)
        values["null_rates"] = {**synthgen.DEFAULT_NULL_RATES, **rates}
    if "demographic_ranges" in values and isinstance(values["demographic_ranges"], dict):
        values["demographic_ranges"] = {
            k: (int(v[0]), int(v[1])) for k, v in values["demographic_ranges"].items()
        }
    try:
        return synthgen.SynthConfig(**values)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def _synth_config_dict(cfg: synthgen.SynthConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["null_rates"] = {f"{qid}_{inst}": rate for (qid, inst), rate in sorted(cfg.null_rates.items())}
    return d


def _ingest(db_dir: Path):
    paths = DatabasePaths.from_dir(db_dir)
    db = parse_database(paths)
    cleansed, report = cleanse(db)
    return db, cleansed, report


def cmd_ingest(args) -> int:
    cfg = _load_config(args.config)
    db_dir = _require_dir(args.db, "--db database directory")
    out = _resolve_out(args, cfg)
    db, cleansed, report = _ingest(db_dir)
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
    _write_manifest(out, "ingest", {"db": str(db_dir)}, ["rejects.csv", "cleanse_report.csv", "ingest_summary.json"])
    print(
        f"ingested {report.n_input_users} users: retained {report.n_retained}, "
        f"removed {report.n_removed}, rejected rows {len(db.rejects)}"
    )
    return 0


def _pick_variants(variant: str | None) -> list[str]:
    if variant is None:
        return list(VARIANTS)
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return [variant]


def cmd_build(args) -> int:
    cfg = _load_config(args.config)
    db_dir = _require_dir(args.db, "--db database directory")
    variants = _pick_variants(_setting(cfg, "variant", str, flag=args.variant))
    out = _resolve_out(args, cfg)
    db, cleansed, report = _ingest(db_dir)
    samples = windows_for_database(cleansed)
    if not samples:
        print("warning: no window samples produced (empty or too-short database)", file=sys.stderr)
    write_windows(samples, out / "windows.csv")
    write_rejects(db.rejects, out / "rejects.csv")
    write_cleanse_report(report, out / "cleanse_report.csv")
    outputs = ["windows.csv", "rejects.csv", "cleanse_report.csv"]
    for variant in variants:
        ds = build_variant(samples, cleansed.profiles, variant)
        name = f"dataset_{variant}.csv"
        write_dataset_csv(ds, out / name)
        outputs += [name, name + ".meta.json"]
    _write_manifest(out, "build", {"db": str(db_dir), "variants": variants}, outputs)
    print(f"built {len(samples)} windows into {len(variants)} dataset variant(s) -> {out}")
    return 0


def cmd_stats(args) -> int:
    cfg = _load_config(args.config)
    db_dir = _require_dir(args.db, "--db database directory")
    [variant] = _pick_variants(_setting(cfg, "variant", str, "D0", flag=args.variant))
    out = _resolve_out(args, cfg)
    _, cleansed, report = _ingest(db_dir)
    samples = windows_for_database(cleansed)
    outputs: list[str] = []
    stats_doc: dict = {"n_users": report.n_retained, "n_windows": len(samples)}

    rows = analytics.null_rates(cleansed.profiles)
    write_csv(out / "null_rates.csv", ["questionnaire", "feature_group", "instance", "pct_null"],
              ([r.questionnaire, r.feature_group, r.instance, f"{r.pct_null:.2f}"] for r in rows))
    stats_doc["null_rates"] = [dataclasses.asdict(r) for r in rows]
    outputs.append("null_rates.csv")

    alphas = analytics.questionnaire_alpha_reports(cleansed.profiles)
    write_csv(out / "cronbach_alpha.csv", ["questionnaire", "instance", "alpha", "n_respondents"],
              ([a.questionnaire, a.instance, "" if a.alpha is None else f"{a.alpha:.4f}", a.n_respondents]
               for a in alphas))
    stats_doc["cronbach_alpha"] = [dataclasses.asdict(a) for a in alphas]
    outputs.append("cronbach_alpha.csv")

    demo = analytics.demographic_summary(cleansed.profiles)
    write_csv(out / "demographics.csv", ["field", "min", "max", "mean", "mode"],
              ([name, s.minimum, s.maximum, f"{s.mean:.4f}", s.mode] for name, s in demo.items()))
    stats_doc["demographics"] = {k: dataclasses.asdict(v) for k, v in demo.items()}
    outputs.append("demographics.csv")

    if samples:
        dist = analytics.acquisition_distribution(samples)
        write_csv(out / "acquisition_distribution.csv", ["bin_start", "bin_end", "count"],
                  ([b.start, b.end, b.count] for b in dist.bins))
        stats_doc["acquisition_distribution"] = {
            "mean": dist.mean,
            "min": dist.minimum,
            "max": dist.maximum,
        }
        outputs.append("acquisition_distribution.csv")

        d0 = build_variant(samples, cleansed.profiles, "D0")
        corr, names = analytics.session_correlation_matrix(d0)
        write_csv(out / "session_correlation.csv", ["", *names],
                  ([name, *("" if math.isnan(v) else repr(float(v)) for v in row)]
                   for name, row in zip(names, corr)))
        outputs.append("session_correlation.csv")

        ds = d0 if variant == "D0" else build_variant(samples, cleansed.profiles, variant)
        dup = analytics.duplicate_analysis(ds)
        write_csv(out / "duplicates.csv", ["multiplicity", "n_tuples"], dup.multiplicity_histogram.items())
        stats_doc["duplicates"] = {
            "variant": variant,
            "n_rows": dup.n_rows,
            "n_distinct": dup.n_distinct,
            "n_duplicate_groups": len(dup.duplicates),
            "top_groups": [dataclasses.asdict(g) for g in dup.duplicates[:20]],
        }
        outputs.append("duplicates.csv")

    write_json(out / "stats.json", stats_doc)
    outputs.append("stats.json")
    _write_manifest(out, "stats", {"db": str(db_dir), "variant": variant}, outputs)
    print(f"stats written -> {out}")
    return 0


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
    params = {k: v for k, v in _setting(cfg, "resampler", dict, {}).items() if k != "method"}
    params.setdefault("seed", substream_seed(seed, "resample"))
    try:
        return ResampleConfig(method=method, **params)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad resampler config: {exc}") from None


def cmd_cv(args) -> int:
    cfg = _load_config(args.config)
    dataset_path = _require_file(args.dataset, "--dataset file")
    seed = _setting(cfg, "seed", int, 0, flag=args.seed)
    out = _resolve_out(args, cfg)
    model_cfg = _model_config(args, cfg, seed)
    resample_cfg = _resample_config(args, cfg, seed)
    n_jobs = _setting(cfg, "cv.n_jobs", int, 1, flag=args.jobs)
    if n_jobs < 1:
        raise UsageError(f"--jobs (cv.n_jobs) must be >= 1, got {n_jobs}")
    k = _setting(cfg, "cv.k", int, 10, flag=args.k)
    if k < 2:
        raise UsageError(f"--k (cv.k) must be >= 2, got {k}")
    ds = read_dataset_csv(dataset_path)
    if ds.y is None:
        raise UsageError(f"dataset {dataset_path} has no '{LABEL_COLUMN}' label column")
    report = cross_validate(
        ds,
        model_cfg,
        resample_cfg=resample_cfg,
        k=k,
        seed=seed,
        n_jobs=n_jobs,
    )
    write_report(report, out / "cv_report.json", out / "cv_report.csv")
    _write_manifest(out, "cv", report.fingerprint, ["cv_report.json", "cv_report.csv"])
    pooled = report.pooled
    print(
        f"cv done: pooled accuracy {pooled.accuracy:.4f}, "
        f"score {'n/a' if pooled.score is None else f'{pooled.score:.4f}'} -> {out}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    dataset_path = _require_file(args.dataset, "--dataset file")
    seed = _setting(cfg, "seed", int, 0, flag=args.seed)
    out = _resolve_out(args, cfg)
    model_cfg = _model_config(args, cfg, seed)
    resample_cfg = _resample_config(args, cfg, seed)
    ds = read_dataset_csv(dataset_path)
    if ds.y is None:
        raise UsageError(f"dataset {dataset_path} has no '{LABEL_COLUMN}' label column")
    state = None
    if not args.no_preprocess:
        state = fit_preprocess(ds)
        ds = transform(ds, state)
    if resample_cfg is not None:
        ds = oversample(ds, resample_cfg)
    model = build_model(model_cfg)
    model.fit(ds.X, ds.labels(), feature_names=ds.column_names)
    save_model(model, out / "model.json", preprocess=state)
    _write_manifest(
        out,
        "train",
        {
            "dataset": str(dataset_path),
            "seed": seed,
            "model": {"kind": model.kind, **dataclasses.asdict(model_cfg)},
            "resample": None if resample_cfg is None else dataclasses.asdict(resample_cfg),
            "preprocess": not args.no_preprocess,
        },
        ["model.json"],
    )
    print(f"trained {model.kind} on {ds.n_rows} rows -> {out / 'model.json'}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args.config)
    model_path = _require_file(args.model_file, "--model-file")
    dataset_path = _require_file(args.dataset, "--dataset file")
    out = _resolve_out(args, cfg)
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
    _write_manifest(out, "predict", {"model": str(model_path), "dataset": str(dataset_path)}, ["predictions.csv"])
    print(f"predicted {proba.shape[0]} rows -> {out / 'predictions.csv'}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adherence", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="global seed for all sub-streams")
        p.add_argument("--out", help="output directory (or set ADHERENCE_OUT)")

    p = sub.add_parser("generate", help="write a seeded synthetic database")
    common(p)
    p.add_argument("--n-users", type=int, help="number of synthetic users")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="parse and cleanse a database, reporting rejects")
    common(p)
    p.add_argument("--db", help="database directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="ingest, sessionize and emit dataset variants")
    common(p)
    p.add_argument("--db", help="database directory")
    p.add_argument("--variant", help="single variant D0..D6 (default: all)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="diagnostic reports for a database")
    common(p)
    p.add_argument("--db", help="database directory")
    p.add_argument("--variant", help="variant for duplicate analysis (default D0)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("cv", help="cross-validate a model on a built dataset")
    common(p)
    p.add_argument("--dataset", help="dataset CSV produced by build")
    p.add_argument("--model", help="model kind: knn|tree|forest|gbt|mlp|majority")
    p.add_argument("--resampler", help="none|random|smote|adasyn")
    p.add_argument("--k", type=int, help="number of folds (default 10)")
    p.add_argument("--jobs", type=int, help="fold-level worker threads")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("train", help="fit a model on a full dataset and persist it")
    common(p)
    p.add_argument("--dataset", help="dataset CSV")
    p.add_argument("--model", help="model kind")
    p.add_argument("--resampler", help="none|random|smote|adasyn")
    p.add_argument("--no-preprocess", action="store_true", help="skip imputation/scaling")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run a persisted model over a feature CSV")
    common(p)
    p.add_argument("--model-file", help="model JSON written by train")
    p.add_argument("--dataset", help="feature CSV (label column optional)")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IngestError as exc:
        print(f"error [{args.command}/ingestion]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
