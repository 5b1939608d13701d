#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--seed N] [fig11|all ...]

For each workload (default: both) it runs the benchmark twice with
tracing off and twice with tracing on, at one seed, and checks that

- every run is correct, with no failed cells;
- the simulated end-to-end metrics and `sim_digest` are identical across
  the two untraced runs;
- every per-layer count and ratio is identical across the two traced runs;
- `sim_digest` and `cells_digest` are identical between traced and
  untraced runs.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
# Host-time metrics are measurements; everything else must repeat exactly.
TIME_UNITS = {"s", "ns"}
SIMULATED = ["constable_speedup", "constable_power_ratio"]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def exact(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] not in TIME_UNITS}


def check_workload(workload, seed):
    problems = []
    untraced = [run(workload, seed, 0) for _ in range(2)]
    traced = [run(workload, seed, 1) for _ in range(2)]
    for info, result in untraced + traced:
        if not result["correct"] or result["failed"]:
            problems.append(f"incorrect run: {result}")
    (u1, r1), (u2, r2) = untraced
    for name in SIMULATED:
        if r1["metrics"][name]["value"] != r2["metrics"][name]["value"]:
            problems.append(f"{name} differs between untraced runs")
    (t1, q1), (t2, q2) = traced
    if exact(q1) != exact(q2):
        diff = {k for k in exact(q1) if exact(q1)[k] != exact(q2).get(k)}
        problems.append(f"per-layer counts differ between traced runs: {sorted(diff)}")
    for key in ["sim_digest", "cells_digest"]:
        values = {info[key] for info, _ in untraced + traced}
        if len(values) != 1:
            problems.append(f"{key} differs across runs: {sorted(values)}")
    return problems


def main():
    ap = argparse.ArgumentParser(description="Benchmark determinism self-test")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=["fig11", "all"])
    args = ap.parse_args()
    failed = False
    for w in args.workloads:
        problems = check_workload(w, args.seed)
        print(f"{w}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
