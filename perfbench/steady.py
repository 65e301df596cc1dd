"""Steadiness report: run each workload k times and show every metric's spread.

    python3 perfbench/steady.py --runs 10

Runs every workload of BENCHMARK.json with ``--trace 0``; run k uses seed
``SEED0 + k``.  For every end-to-end metric the report gives the median,
the quartiles from ``statistics.quantiles(n=4)`` and IQR/median, next to
the metric's bound in BENCHMARK.json; a spread above a third of the bound
is flagged.  Every run must exit 0 with ``correct`` true.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED0 = 100


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stdout[-3000:]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict = {}
        for k in range(args.runs):
            result = run_once(workload, SEED0 + k)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"# {workload} seed {SEED0 + k}: failed {result['failed']} of "
                  f"{result['attempted']}", flush=True)
        print(f"{workload} ({args.runs} runs)")
        print(f"  {'metric':38s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'bound':>6s}")
        for name, vals in values.items():
            med, rel = stats.spread(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            bound = bounds[name]
            flag = ""
            if rel > bound / 3:
                flag = "  > bound/3"
                steady = False
            print(f"  {name:38s} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f} {bound:>6}{flag}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
