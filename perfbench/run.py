#!/usr/bin/env python3
"""Benchmark runner for the Constable reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload fig11|all --seed N --seconds S --trace 0|1

It builds the `perfbench` Cargo package next to this file in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload in a
child process pinned to one CPU, checks the child's correctness verdict
and metric set against BENCHMARK.json, records provenance under
`.bench_out/`, and prints the result as the last line of standard output:

    {"correct": true, "attempted": 1350, "failed": 0, "metrics": {...}}

Workloads and metrics are defined in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Every run must end within 180 s; keep a margin for the harness itself.
DEADLINE_S = 175.0
# Sources whose content the result's `source_digest` covers.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def loadavg_1m():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the path and bytes of every source file, so a run from a
    checkout without git history still names the code it measured."""
    h = hashlib.sha256()
    for name in SOURCE_ROOTS:
        top = root / name
        files = [top] if top.is_file() else sorted(top.rglob("*")) if top.is_dir() else []
        for f in files:
            rel = f.relative_to(root)
            if "target" in rel.parts or not f.is_file() or f.is_symlink():
                continue
            h.update(str(rel).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fig11", "all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "crates" / "experiments" / "Cargo.toml").is_file():
        fail("run from the repository root: crates/experiments is missing")
    if not (root / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing")
    expected = expected_metrics(root, args.trace)

    target_dir = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")
    binary = target_dir / "release" / "perfbench"

    # One CPU for the simulation (the sweep pool sizes itself from the
    # affinity mask, so it runs one worker); the rest for this harness.
    allowed = sorted(os.sched_getaffinity(0))
    worker_cpu = allowed[-1]
    harness_cpus = [c for c in allowed if c != worker_cpu] or allowed
    os.sched_setaffinity(0, harness_cpus)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    load_start = loadavg_1m()
    timeout = DEADLINE_S - (time.monotonic() - started)
    try:
        child = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", str(out_dir)],
            stdout=subprocess.PIPE, text=True, timeout=timeout,
            preexec_fn=lambda: os.sched_setaffinity(0, {worker_cpu}),
        )
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {timeout:.0f} s")
    load_end = loadavg_1m()
    if child.returncode != 0:
        fail(f"perfbench exited with code {child.returncode}")
    lines = [l for l in child.stdout.splitlines() if l.strip()]
    if not lines:
        fail("perfbench printed no record")
    record = json.loads(lines[-1])

    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != expected:
        fail(f"metric set disagrees with BENCHMARK.json: got {got}, want {expected}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_length": record["run_length"],
        "commit": command_output(["git", "-C", str(root), "rev-parse", "HEAD"]),
        "source_digest": source_digest(root),
        "rustc": command_output(["rustc", "--version"]),
        "nproc": os.cpu_count(),
        "worker_cpu": worker_cpu,
        "harness_cpus": harness_cpus,
        "child_cpus_allowed": record["cpus_allowed"],
        "workers": record["workers"],
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": load_end,
    }
    result = {
        "correct": bool(record["correct"]) and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(
        {"provenance": provenance, "record": record, "result": result}, indent=1) + "\n")

    for err in record["errors"][:20]:
        print(f"error: {err}")
    print(json.dumps({"provenance": provenance, "passes": record["passes"],
                      "setup_s": record["setup_s"], "pass_s": record["pass_s"],
                      "calibration_s": record["calibration_s"],
                      "sim_digest": record["sim_digest"],
                      "cells_digest": record["cells_digest"]}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
