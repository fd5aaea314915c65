"""The benchmark's traced run wraps library callables by name (perfbench/tracing.py).

A rename or a change in how often a command calls them would break
`perfbench/run.py --trace 1` without failing any other test; this runs the
hooks over a small database so that it fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from adherence import synthgen
from adherence.cli import main
from adherence.ingestion import cleanse
from adherence.sessionize import windows_for_database

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load(path, name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tracing(monkeypatch):
    return load(TRACING, "perfbench_tracing", monkeypatch)


def test_database_sizing_counts_windows_per_user(monkeypatch):
    """run.py sizes each database by iterating windows_for_database and reading each window's user_id."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets them on import; this restores them afterwards
    run = load(TRACING.with_name("run.py"), "perfbench_run", monkeypatch)
    db = synthgen.generate(synthgen.SynthConfig(seed=5, n_users=int(300 / 8) + 50))
    windows = windows_for_database(cleanse(db)[0])
    per_user = dict(zip(*(a.tolist() for a in np.unique(windows.user_id, return_counts=True))))
    running = np.cumsum([per_user.get(u, 0) for u in sorted(db.profiles)])
    assert run.users_for(5, 300) == int(np.argmax(running >= 300)) + 1


def test_hooks_trace_generate_build_stats_and_cv(tmp_path, tracing, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()

    def spans(*argv):
        """Run one command; its spans by name."""
        start = len(tracer.spans)
        assert main(list(argv)) == 0
        named: dict = {}
        for span in tracer.spans[start:]:
            named.setdefault(span.name, []).append(span)
        return named

    remove = tracing.instrument(tracer)
    try:
        assert len(spans("generate", "--seed", "5", "--n-users", "20", "--out", "db")["synthgen.generate"]) == 1
        built = spans("build", "--db", "db", "--out", "built")
        stats = spans("stats", "--db", "db", "--variant", "D3", "--out", "stats")
        cv = spans("cv", "--dataset", "built/dataset_D6.csv", "--model", "majority", "--k", "3", "--out", "cv")
    finally:
        remove()
    [windows] = built["sessionize.windows"]
    assert windows.counts["windows"] == len(Path("built/windows.csv").read_text().splitlines()) - 1 > 0
    assert len(built["features.build"]) == 1
    assert len(built["features.write_csv"]) == 7
    assert all(s.counts["mb"] > 0 for s in built["features.write_csv"])
    assert len(stats["features.build"]) == 1
    assert len(stats["analytics.stats"]) == 6
    assert len(cv["evaluate.cv"]) == 1 and len(cv["evaluate.fold"]) == 3
    assert len(cv["features.preprocess"]) == 9  # one fit and two transforms per fold
    # a fold's span opens at fit_preprocess, so a library call before it would be a child of the cv span
    [run] = cv["evaluate.cv"]
    assert {s.name for s in tracer.spans if s.parent == run.id} == {"evaluate.fold"}
    for fold in cv["evaluate.fold"]:
        assert [s.name for s in tracer.spans if s.parent == fold.id][:3] == ["features.preprocess"] * 3
    assert not [s.name for s in tracer.spans if s.error]
