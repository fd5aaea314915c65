"""The benchmark's traced run wraps library callables by name (perfbench/tracing.py).

A rename or a change in how often a command calls them would break
`perfbench/run.py --trace 1` without failing any other test; this runs the
hooks over a small database so that it fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from adherence.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert len(built["features.build"]) == 1
    assert len(built["features.write_csv"]) == 7
    assert all(s.counts["mb"] > 0 for s in built["features.write_csv"])
    assert len(stats["features.build"]) == 1
    assert len(cv["evaluate.cv"]) == 1 and len(cv["evaluate.fold"]) == 3
    assert not [s.name for s in tracer.spans if s.error]
