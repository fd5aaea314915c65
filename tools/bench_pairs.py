"""Run the benchmark in two checkouts in alternating pairs, and compare their end-to-end metrics.

Usage: python tools/bench_pairs.py --parent DIR --change DIR --workload W --pairs N --seconds S

For each seed k in 1..N, it runs `perfbench/run.py --workload W --seed k --seconds S` of each
checkout, one process at a time: the parent first on odd seeds and the change first on even
ones, so that neither side always runs on the warmer or the calmer host. The last line of a
run's stdout is its JSON result. For each end-to-end metric that the change's BENCHMARK.json
declares and every run reports, it prints the median and the quartiles of both sides, the
relative change of the median, and in how many pairs the change was better; then the failed
and attempted operations of both sides. With `--workload all` the metrics are those of each
declared workload, named `<workload>.<metric>` as perfbench names them. It exits 1 as soon as a
run prints no result, naming that run's exit code and last line of stderr, and when the runs
share no metric to compare.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | str:
    """The JSON result of one benchmark run of checkout; if its last line of stdout is not one, why not.

    The reason names the run's exit code and the last line it wrote to stderr.
    """
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if isinstance(result, dict) and "metrics" in result:
        return result
    stderr = proc.stderr.strip().splitlines()
    return f"exit code {proc.returncode}, last stderr line: {stderr[-1] if stderr else '(none)'}"


def declared(benchmark: dict, workload: str) -> dict[str, str]:
    """Each end-to-end metric's name in a result of workload, and which way is better."""
    prefixes = [f"{w['name']}." for w in benchmark["workloads"]] if workload == "all" else [""]
    return {p + m["name"]: m["better"] for p in prefixes for m in benchmark["end_to_end"]}


def compare(results: dict[str, list[dict]], metrics: dict[str, str]) -> list[str]:
    """The report's lines: one per metric of metrics, which every run has, then the operation counts."""
    n = len(results["change"])
    width = max([14, *map(len, metrics)])
    out = [f"{'metric':{width}s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} {'change':>8s}  won"]
    for name in metrics:
        values = {side: np.array([r["metrics"][name]["value"] for r in results[side]], dtype=float) for side in SIDES}
        q = {side: np.percentile(values[side], [25, 50, 75]) for side in SIDES}
        sign = -1.0 if metrics[name] == "lower" else 1.0
        won = int(np.sum(sign * (values["change"] - values["parent"]) > 0))
        relative = q["change"][1] / q["parent"][1] - 1 if q["parent"][1] else float("nan")
        cells = [f"{q[side][1]:.4g} [{q[side][0]:.4g}, {q[side][2]:.4g}]" for side in SIDES]
        out.append(f"{name:{width}s} {cells[0]:>30s} {cells[1]:>30s} {relative:+8.1%}  {won}/{n}")
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        out.append(f"{side}: {failed} of {attempted} operations failed")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = declared(json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8")), args.workload)
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for seed in range(1, args.pairs + 1):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            if isinstance(result, str):
                print(f"error: the {side} run at seed {seed} printed no result ({result})", file=sys.stderr)
                return 1
            results[side].append(result)
            print(f"seed {seed} {side}: " + ", ".join(f"{name} {result['metrics'][name]['value']:.4g}"
                                                     for name in metrics if name in result["metrics"]),
                  file=sys.stderr)
    shared = {name: better for name, better in metrics.items()
              if all(name in r["metrics"] for side in SIDES for r in results[side])}
    print("\n".join(compare(results, shared)))
    if not shared:
        print("error: the runs share no end-to-end metric to compare", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
