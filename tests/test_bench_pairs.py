"""tools/bench_pairs.py over two checkouts whose perfbench/run.py is a fake that prints a fixed result."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

FAKE_RUN = """
import argparse, json, sys
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds"):
    p.add_argument(flag)
a = p.parse_args()
here = Path(__file__).resolve().parent
with open(here / "calls.txt", "a") as fh:
    fh.write(f"{a.workload} {a.seed} {a.seconds}\\n")
with open(here.parent.parent / "order.txt", "a") as fh:
    fh.write(f"{here.parent.name} {a.seed}\\n")
if int(a.seed) in SILENT:
    sys.exit(0)
print("a table line")
print(json.dumps({"correct": True, "attempted": 10, "failed": FAILED, "metrics": {
    "prepare_s": {"value": SPEED * int(a.seed), "unit": "s"},
    "score_pooled": {"value": 0.5 + 0.01 * SPEED, "unit": "1"},
}}))
"""

BENCHMARK = {"end_to_end": [
    {"name": "setup_s", "better": "lower"},
    {"name": "prepare_s", "better": "lower"},
    {"name": "score_pooled", "better": "higher"},
]}


def checkout(root, name, speed, failed=0, silent=()):
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / name / "perfbench" / "run.py").write_text(FAKE_RUN.replace("SPEED", repr(speed)).replace("FAILED", repr(failed)).replace("SILENT", repr(list(silent))))
    return root / name


def bench(parent, change, pairs=4):
    argv = [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change), "--workload", "desk",
            "--pairs", str(pairs), "--seconds", "5"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_alternates_the_sides_and_summarises_each_metric(tmp_path):
    parent, change = checkout(tmp_path, "parent", 2.0), checkout(tmp_path, "change", 1.5, failed=1)
    proc = bench(parent, change)
    assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "order.txt").read_text().split("\n")[:-1]
    assert order == ["parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3", "change 4", "parent 4"]
    assert (parent / "perfbench" / "calls.txt").read_text() == "".join(f"desk {s} 5.0\n" for s in range(1, 5))
    lines = proc.stdout.splitlines()
    [prepare] = [line for line in lines if line.startswith("prepare_s")]
    assert prepare.split() == ["prepare_s", "5", "[3.5,", "6.5]", "3.75", "[2.625,", "4.875]", "-25.0%", "4/4"]
    [score] = [line for line in lines if line.startswith("score_pooled")]
    assert score.split()[-2:] == ["-1.0%", "0/4"]  # 0.515 against 0.52: lower, so no pair won
    assert not any(line.startswith("setup_s") for line in lines)  # no run reports it
    assert lines[-2:] == ["parent: 0 of 40 operations failed", "change: 4 of 40 operations failed"]


def test_a_run_without_a_result_exits_1(tmp_path):
    parent, change = checkout(tmp_path, "parent", 2.0), checkout(tmp_path, "change", 1.5, silent=[2])
    proc = bench(parent, change)
    assert proc.returncode == 1
    assert "the change run at seed 2 printed no result" in proc.stderr
    assert (tmp_path / "order.txt").read_text().split("\n")[:-1] == ["parent 1", "change 1", "change 2"]
