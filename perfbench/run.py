#!/usr/bin/env python3
"""Benchmark of the adherence pipeline, driven in-process through its CLI.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

A workload is a closed loop of `adherence` commands, the argv an analyst
types, run one after another in this process over the workload's databases.
Set-up (imports, BLAS warm-up, and `generate` writing the databases) is
repeated SETUP_REPEATS times. Then, while --seconds allows, the run repeats
cycles over its databases in turn: preparation (`ingest`, `build`, `stats`)
and then modelling (the workload's `cv`, `train`, `predict`) of one
database. Database j of a run with seed s is generated, cross-validated and
trained with seed 10 * s + j; the program sees only the inputs it generates.

setup_s adds the import time to the median `generate`. prepare_s and
model_s sum, over the commands of their phase, each command's median wall
time in the run: a burst of load on a shared host slows one run of a
command, not the median of that command. Each phase's fastest and slowest
round are printed beside them.

With --trace 1 the run makes one untraced pass (`generate`, preparation,
modelling, once each) and two traced passes, and reports per-layer metrics:
the median over the traced passes, the tracing overhead against the untraced
pass, and how many counts in tracing.STEADY_COUNTS differ between passes.

Every command and every correctness check is one attempted operation; a
non-zero exit, an exception or a failed check is a failed one. The last line
of stdout is one JSON object: correct, attempted, failed, metrics. `all` runs
each workload in its own process and prints one table.
"""

import os

# The CI box has 2 cores: BLAS stays single-threaded, so the only second
# compute thread is the fold pool that `cv --jobs 2` asks for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

SEED = "{seed}"  # replaced by each database's seed
USERS = "{users}"  # replaced by each database's user count
# Databases are sized in windows, the rows every model trains on: about 175
# users at the desk and 2,000 at scale. A fixed user count would let the work
# of a run swing by a quarter from one seed to the next.
DESK_WINDOWS = 1700
SCALE_WINDOWS = 19700
SETUP_REPEATS = 3
TRACED_PASSES = 2
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, glibc malloc.h

# Small models keep a modelling round on all databases under half of a run.
CONFIGS = {
    "forest.json": {"model": {"kind": "forest", "n_trees": 3}},
    "gbt.json": {"model": {"kind": "gbt", "n_rounds": 3, "max_depth": 6}},
    "mlp.json": {"model": {"kind": "mlp", "hidden_layers": [256, 128], "max_epochs": 3}},
    "tree.json": {"model": {"kind": "tree", "max_depth": 3}},
}
# Feature columns of D0..D6 as the paper defines them.
VARIANT_WIDTHS = {"D0": 12, "D1": 15, "D2": 22, "D3": 34, "D4": 74, "D5": 84, "D6": 115}

GENERATE = ("generate", "--seed", SEED, "--n-users", USERS, "--out", "db")
PREPARE = (
    ("ingest", "--db", "db", "--out", "ingest"),
    ("build", "--db", "db", "--out", "built"),
    ("stats", "--db", "db", "--out", "stats"),
)
FOREST_CV = ("cv", "--dataset", "built/dataset_D0.csv", "--config", "forest.json", "--seed", SEED)
TRAIN_PREDICT = (
    ("train", "--dataset", "built/dataset_D0.csv", "--config", "forest.json", "--seed", SEED, "--out", "model_forest"),
    ("predict", "--model-file", "model_forest/model.json", "--dataset", "built/dataset_D0.csv", "--out", "model_forest"),
)


@dataclass(frozen=True)
class Workload:
    windows: int  # per database
    # Desk databases differ from seed to seed in class balance and distinct
    # rows, which moves tree sizes by a fifth; several per run average that out.
    databases: int
    model: tuple  # the modelling commands, run after PREPARE


# Two workloads, so that each run can measure for long enough to be steady on
# a 2-core box. The per-layer metrics of a traced run tell the paths of the
# desk workload apart; scale_ingest bypasses every path but preparation.
WORKLOADS = {
    "desk": Workload(DESK_WINDOWS, 2, (
        # the tree engine, on the bincount (D0) and sort (SMOTE rows) split paths
        FOREST_CV + ("--out", "cv_forest"),
        ("cv", "--dataset", "built/dataset_D0.csv", "--config", "gbt.json", "--resampler", "smote",
         "--seed", SEED, "--out", "cv_gbt"),
        *TRAIN_PREDICT,
        # the fold thread pool; its report must equal the serial cv_forest report
        FOREST_CV + ("--jobs", "2", "--out", "cv_forest_jobs2"),
        # distance kernels and ADASYN's row loop; five folds halve its quadratic work
        ("cv", "--dataset", "built/dataset_D6.csv", "--model", "knn", "--resampler", "adasyn", "--k", "5",
         "--seed", SEED, "--out", "cv_knn"),
        ("cv", "--dataset", "built/dataset_D0.csv", "--config", "mlp.json", "--resampler", "smote",
         "--seed", SEED, "--out", "cv_mlp"),
    )),
    "scale_ingest": Workload(SCALE_WINDOWS, 1, (
        ("cv", "--dataset", "built/dataset_D6.csv", "--model", "majority", "--seed", SEED, "--out", "cv_majority"),
        # A learned model keeps score_pooled defined here: the majority baseline scores 0.
        ("cv", "--dataset", "built/dataset_D0.csv", "--config", "tree.json", "--seed", SEED, "--out", "cv_tree"),
    )),
}


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def _median(values):
    return statistics.median(values) if values else 0.0


def users_for(seed: int, windows: int) -> int:
    """Fewest generated users whose cleansed database yields `windows` windows.

    The generator draws users one after another from one stream, so an
    n-user database is the first n users of a larger one.
    """
    from adherence import synthgen
    from adherence.ingestion import cleanse
    from adherence.sessionize import windows_for_database

    pool = int(windows / 8) + 50  # seeds average about 10 windows per user
    db = synthgen.generate(synthgen.SynthConfig(seed=seed, n_users=pool))
    per_user = Counter(w.user_id for w in windows_for_database(cleanse(db)[0]))
    total = 0
    for n, user_id in enumerate(sorted(db.profiles), start=1):
        total += per_user[user_id]
        if total >= windows:
            return n
    return pool


@dataclass(frozen=True)
class Database:
    """One generated database; its commands run in its own directory."""

    path: Path
    seed: int
    users: int


class Run:
    """Runs commands and checks, counting attempted and failed operations."""

    def __init__(self, databases: list[Database]) -> None:
        self.databases = databases
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def command(self, argv, db: Database) -> None:
        from adherence import cli

        argv = [{SEED: str(db.seed), USERS: str(db.users)}.get(a, a) for a in argv]
        self.attempted += 1
        span = self.tracer.open("cli." + argv[0]) if self.tracer else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI is a failed operation
            status = f"{type(exc).__name__}: {exc}"
        if span is not None:
            self.tracer.close(span, error=status != 0)
        if status != 0:
            self.failed += 1
            print(f"failed: adherence {' '.join(argv)} -> {status}", file=sys.stderr)

    def commands(self, cmds, databases=None, times=None) -> float:
        """Wall seconds of running the commands on each database in turn.

        `times`, if given, collects each command's wall seconds under its
        database and position in `cmds`.
        """
        start = time.perf_counter()
        for db in databases or self.databases:
            os.chdir(db.path)
            for i, argv in enumerate(cmds):
                began = time.perf_counter()
                self.command(argv, db)
                if times is not None:
                    times.setdefault((db.path.name, i), []).append(time.perf_counter() - began)
        return time.perf_counter() - start

    def check(self, what: str, test) -> bool:
        self.attempted += 1
        try:
            ok = bool(test())
        except Exception as exc:
            ok = False
            what = f"{what} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------------------
# correctness checks


def _cv_runs(wl: Workload):
    return [(_option(a, "--dataset"), Path(_option(a, "--out"))) for a in wl.model if a[0] == "cv"]


def verify(run: Run, wl: Workload) -> dict[str, list[float]]:
    """Check the outputs of the last round; returns pooled scores per model kind."""
    scores: dict[str, list[float]] = {}
    for db in run.databases:
        os.chdir(db.path)
        try:
            found = _verify_database(run, wl, db)
        except Exception as exc:  # outputs a failed command never wrote
            run.check(f"{db.path.name}: outputs readable ({type(exc).__name__}: {exc})", lambda: False)
            continue
        for kind, score in found.items():
            scores.setdefault(kind, []).append(score)
    if TRAIN_PREDICT[0] in wl.model:
        run.check("predict after train reproduces the in-memory model's probabilities bit for bit",
                  lambda: _train_predict_roundtrip(run, run.databases[:1]))
    return scores


def _verify_database(run: Run, wl: Workload, db: Database) -> dict[str, float]:
    from adherence.evaluate import majority_baseline
    from adherence.features import read_dataset_csv

    scores = {}
    for dataset, out in _cv_runs(wl):
        ds = read_dataset_csv(dataset)
        report = json.loads((out / "cv_report.json").read_text(encoding="utf-8"))
        kind = report["fingerprint"]["model"]["kind"]
        folds = report["folds"]
        run.check(f"{out}: fold confusion counts sum to the {ds.n_rows} dataset rows",
                  lambda: sum(f["tp"] + f["tn"] + f["fp"] + f["fn"] for f in folds) == ds.n_rows)
        run.check(f"{out}: pooled counts equal the fold sums",
                  lambda: all(report["pooled"][c] == sum(f[c] for f in folds) for c in ("tp", "tn", "fp", "fn")))
        score = report["pooled"]["score"]
        scores[kind] = score or 0.0
        if kind != "majority":
            baseline = majority_baseline(ds).score or 0.0
            run.check(f"{out}: {kind} pooled score {score} beats the majority baseline {baseline}",
                      lambda: score is not None and score > baseline)

    with open("built/windows.csv", encoding="utf-8") as fh:
        n_windows = sum(1 for _ in fh) - 1
    for variant, width in VARIANT_WIDTHS.items():
        ds = read_dataset_csv(f"built/dataset_{variant}.csv")
        run.check(f"{variant} has {width} feature columns and one row per window ({n_windows})",
                  lambda: ds.n_cols == width and ds.n_rows == n_windows)
    summary = json.loads(Path("ingest/ingest_summary.json").read_text(encoding="utf-8"))
    run.check(f"retained plus removed users equals the {db.users} generated",
              lambda: summary["n_retained_users"] + summary["n_removed_users"] == db.users)
    if Path("cv_forest_jobs2").is_dir():
        run.check("cv_report.json at --jobs 2 is byte-identical to the serial report",
                  lambda: Path("cv_forest/cv_report.json").read_bytes()
                  == Path("cv_forest_jobs2/cv_report.json").read_bytes())
    return scores


def _train_predict_roundtrip(run: Run, databases: list[Database]) -> bool:
    from adherence import cli
    from adherence.features import read_dataset_csv, transform

    trained = {}
    save_model = cli.save_model

    def keep(model, path, preprocess=None):
        trained["model"], trained["state"] = model, preprocess
        return save_model(model, path, preprocess=preprocess)

    cli.save_model = keep
    try:
        run.commands(TRAIN_PREDICT, databases)
    finally:
        cli.save_model = save_model
    ds = transform(read_dataset_csv("built/dataset_D0.csv"), trained["state"])
    expected = trained["model"].predict_proba(ds.X)[:, 1].tolist()
    with open("model_forest/predictions.csv", newline="", encoding="utf-8") as fh:
        written = [float(row["p_high"]) for row in csv.DictReader(fh)]
    return written == expected


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(run: Run, wl: Workload, seconds: float, import_s: float) -> dict[str, float]:
    """End-to-end metrics, tracing off."""
    setups = [run.commands([GENERATE]) for _ in range(SETUP_REPEATS)]
    # One cycle prepares and models one database, so that a run of several
    # databases ends close to its time limit: every database once, then
    # while the next cycle is expected to end within the run.
    phases = {"prepare": PREPARE, "model": wl.model}
    times = {phase: {} for phase in phases}
    rounds = {phase: [] for phase in phases}
    cycles = []
    start = time.perf_counter()
    while len(cycles) < len(run.databases) or time.perf_counter() - start + _median(cycles) <= seconds:
        began = time.perf_counter()
        db = run.databases[len(cycles) % len(run.databases)]
        for phase, cmds in phases.items():
            rounds[phase].append(run.commands(cmds, [db], times[phase]))
        cycles.append(time.perf_counter() - began)
    phase_s = {phase: sum(_median(t) for t in times[phase].values()) for phase in phases}
    for phase, walls in rounds.items():
        print(f"{phase}: {len(walls)} rounds of one database, {phase_s[phase]:.4g} s summed per-command"
              f" medians, fastest round {min(walls):.4g} s, slowest {max(walls):.4g} s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scores = verify(run, wl)
    learned = [s for kind, values in scores.items() if kind != "majority" for s in values]
    return {
        "setup_s": import_s + _median(setups),
        "prepare_s": phase_s["prepare"],
        "model_s": phase_s["model"],
        "score_pooled": statistics.fmean(learned) if learned else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def trace_run(run: Run, wl: Workload, name: str, seed: int) -> dict[str, float]:
    """Per-layer metrics from traced passes, against one untraced pass."""
    from tracing import STEADY_COUNTS, Tracer, instrument, layer_metrics

    def one_pass():
        run.commands([GENERATE])
        return {"prepare": run.commands(PREPARE), "model": run.commands(wl.model)}

    def reports():
        paths = [db.path / out / "cv_report.json" for db in run.databases for _, out in _cv_runs(wl)]
        return {p: p.read_bytes() if p.exists() else None for p in paths}

    untraced = one_pass()
    untraced_reports = reports()
    passes = []
    for i in range(TRACED_PASSES):
        run.tracer = Tracer()
        remove = instrument(run.tracer)
        try:
            walls = one_pass()
        finally:
            remove()
        run.tracer.write(WORK / f"trace-{name}-seed{seed}-pass{i + 1}.jsonl")
        run.check(f"traced pass {i + 1}: cv_report.json files are byte-identical to the untraced pass",
                  lambda: reports() == untraced_reports)
        passes.append((walls, run.tracer.spans))
        run.tracer = None
    scores = {kind: statistics.fmean(values) for kind, values in verify(run, wl).items()}
    layers = [layer_metrics(spans, scores) for _, spans in passes]
    unsteady = [k for k in STEADY_COUNTS if len({m[k] for m in layers}) > 1]
    run.check(f"counts repeat exactly across traced passes (differ: {unsteady})", lambda: not unsteady)
    metrics = {k: _median([m[k] for m in layers]) for k in layers[0]}
    metrics.update({
        "trace.overhead.model_s": _median([w["model"] for w, _ in passes]) - untraced["model"],
        "trace.overhead.prepare_s": _median([w["prepare"] for w, _ in passes]) - untraced["prepare"],
        "trace.spans": _median([len(spans) for _, spans in passes]),
        "trace.counts_unsteady": len(unsteady),
    })
    return metrics


# ---------------------------------------------------------------------------


def _units(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    # glibc raises its mmap threshold as large arrays are freed, so whether a
    # later array lands on the heap, and peak_rss_mb with it, would depend on
    # the order of array sizes. Fixed thresholds keep arrays on a heap that is
    # not trimmed: the peak is the heap's high-water mark.
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, 64 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 256 << 20)

    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np

    import adherence.cli  # noqa: F401

    np.ones((256, 256)) @ np.ones((256, 256))  # BLAS warm-up
    import_s = time.perf_counter() - start

    wl = WORKLOADS[args.workload]
    workload_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    databases = []
    for j in range(wl.databases):
        seed = 10 * args.seed + j
        db = Database(workload_dir / f"database{j}", seed, users_for(seed, wl.windows))
        db.path.mkdir(parents=True)
        for filename, cfg in CONFIGS.items():
            (db.path / filename).write_text(json.dumps(cfg), encoding="utf-8")
        databases.append(db)
    run = Run(databases)
    try:
        if args.trace:
            values = trace_run(run, wl, args.workload, args.seed)
        else:
            values = measure(run, wl, args.seconds, import_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workload_dir, ignore_errors=True)

    units = _units(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from {SPEC.name}: {sorted(set(values) ^ set(units))}")
    for metric, value in values.items():
        print(f"{metric:28s} {value:14.6g} {units[metric]}")
    print(f"{'fail_ratio':28s} {run.failed / run.attempted:14.6g} 1 ({run.failed} of {run.attempted} operations)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    units = _units(args.trace)
    print(f"{'metric':28s}" + "".join(f"{n:>16s}" for n in results) + "  unit")
    for metric, unit in units.items():
        print(f"{metric:28s}" + "".join(f"{r['metrics'][metric]['value']:16.6g}" for r in results.values())
              + f"  {unit}")
    print(f"{'fail_ratio':28s}" + "".join(f"{r['failed'] / r['attempted']:16.6g}" for r in results.values()) + "  1")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the measured rounds may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adherence" / "cli.py").is_file():
        print(f"error: no adherence sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
