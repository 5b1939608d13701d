#!/usr/bin/env bash
# Tier-1 gate for the Constable reproduction.
#
#   ./ci.sh          # fmt + clippy + build + tests + perfbench type-check + smokes + bench gates
#   ./ci.sh --fast   # skip the bench smoke and regression gate
#   ./ci.sh --bless  # regenerate the trace-oracle and figure-text golden files
#
# Everything runs offline: the workspace vendors stand-ins for rand and
# criterion under shims/ (see Cargo.toml), so no network is required.
#
# Golden files: the scheduling trace oracle (crates/sim-core/tests/golden/
# and tests/golden/) and the figure text (crates/experiments/tests/golden/)
# are verified by the normal test run — a stale golden fails `cargo test`.
# Re-bless only when the *modelled* behavior or a figure's rendering changed
# intentionally, then review the golden diff before committing.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==== %s ====\n' "$*"; }

if [[ "${1:-}" == "--bless" ]]; then
    step "bless trace-oracle goldens (sim-core matrix)"
    SIM_TRACE_BLESS=1 cargo test -q --release -p sim-core --test trace_oracle trace_matrix_matches_goldens
    step "bless trace-oracle goldens (machine-kind matrix)"
    SIM_TRACE_BLESS=1 cargo test -q --release --test golden_verification machine_kind_traces_match_goldens
    step "bless figure-text golden"
    SIM_TRACE_BLESS=1 cargo test -q --release -p experiments --test sweep every_figure_matches_the_committed_text
    step "verify blessed goldens"
    cargo test -q --release -p sim-core --test trace_oracle
    cargo test -q --release --test golden_verification machine_kind_traces_match_goldens
    cargo test -q --release -p experiments --test sweep every_figure_matches_the_committed_text
    git --no-pager diff --stat -- crates/sim-core/tests/golden tests/golden \
        crates/experiments/tests/golden || true
    step "OK (review the golden diff above before committing)"
    exit 0
fi

step "rustfmt (check)"
cargo fmt --check

step "clippy (-D warnings, all targets)"
cargo clippy --release --all-targets -- -D warnings

step "build (release)"
cargo build --release

step "tests"
cargo test -q --release

# perfbench is a package of its own that imports the experiments API
# (store_key, SweepSession, CellFailure, ...); type-check it here so a
# change to that API fails in ci, not later in the benchmark pipeline.
# Cargo rewrites perfbench/Cargo.lock on every build, so the lock file is
# restored from a copy and perfbench stays byte-identical.
step "perfbench type-check"
lock_dir=$(mktemp -d "${TMPDIR:-/tmp}/constable-perfbench-ci.XXXXXX")
cp perfbench/Cargo.lock "$lock_dir/Cargo.lock"
trap 'cp "$lock_dir/Cargo.lock" perfbench/Cargo.lock; rm -rf "$lock_dir"' EXIT
cargo check --offline --release --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench
cp "$lock_dir/Cargo.lock" perfbench/Cargo.lock
rm -rf "$lock_dir"
trap - EXIT

if [[ "${1:-}" != "--fast" ]]; then
    SHIM_OUT=crates/bench/target/criterion-shim

    # Fault-isolation smoke: a quick figure sweep must come back with zero
    # quarantined cells (exit 0). The quarantine paths themselves (panic,
    # watchdog, golden mismatch, store defects) are covered by direct tests
    # in crates/experiments.
    step "sweep smoke (--all, zero quarantine)"
    cargo run -q --release -p experiments -- --all --quick --subset 4 >/dev/null

    # Persistent-store smoke: a cold run populates the store (exit 0), then
    # a *second process* must answer every memoizable cell from disk (zero
    # misses) with byte-identical figure text.
    step "store smoke (cold populate, warm cross-process replay)"
    store_dir=$(mktemp -d "${TMPDIR:-/tmp}/constable-store-ci.XXXXXX")
    trap 'rm -rf "$store_dir"' EXIT
    cargo run -q --release -p experiments -- \
        --all --quick --subset 3 --store-dir "$store_dir" >"$store_dir/cold.txt"
    warm_err=$(cargo run -q --release -p experiments -- \
        --all --quick --subset 3 --store-dir "$store_dir" 2>&1 >"$store_dir/warm.txt")
    if ! grep -q " 0 misses," <<<"$warm_err"; then
        echo "FAIL: warm store run recomputed cells (store summary: $warm_err)" >&2
        exit 1
    fi
    if ! cmp -s "$store_dir/cold.txt" "$store_dir/warm.txt"; then
        echo "FAIL: warm store run produced different figure text" >&2
        exit 1
    fi

    # I/O-chaos smoke: a cold run under seeded storage-fault injection
    # (torn object writes, payload bit flips) leaves damaged records;
    # the warm run must detect every one, list it in the quarantine table
    # as chaos-injected, and exit nonzero — while still completing every
    # figure. The store recovery machinery's end-to-end self-test.
    step "store smoke (io-chaos corruption + recovery)"
    iochaos_dir=$(mktemp -d "${TMPDIR:-/tmp}/constable-iochaos-ci.XXXXXX")
    trap 'rm -rf "$store_dir" "$iochaos_dir"' EXIT
    cargo run -q --release -p experiments -- \
        --all --quick --subset 3 --store-dir "$iochaos_dir" --io-chaos 42 >/dev/null
    if iochaos_out=$(cargo run -q --release -p experiments -- \
        --all --quick --subset 3 --store-dir "$iochaos_dir" --io-chaos 42 2>/dev/null); then
        echo "FAIL: warm io-chaos run exited 0 — storage injection or detection is broken" >&2
        exit 1
    fi
    if ! grep -q "store-.*chaos-injected\|chaos-injected.*store-" <<<"$iochaos_out"; then
        echo "FAIL: io-chaos quarantine table lacks injected store defects" >&2
        exit 1
    fi
    if ! grep -q "================ verify ================" <<<"$iochaos_out"; then
        echo "FAIL: io-chaos sweep did not complete every figure" >&2
        exit 1
    fi

    # Memory smoke: every figure on 20 traces with a fresh store, pinned to
    # one CPU (so the sweep pool runs one worker, as perfbench/run.py
    # does). Each program keeps one initial memory image and APX builds
    # are not cached, which holds the peak near 27 MB; the gate trips if
    # program memory is held twice again (that measured 77 MB).
    step "memory smoke (all --quick --subset 20, one CPU, peak RSS <= 48 MB)"
    mem_dir=$(mktemp -d "${TMPDIR:-/tmp}/constable-mem-ci.XXXXXX")
    trap 'rm -rf "$store_dir" "$iochaos_dir" "$mem_dir"' EXIT
    python3 - "$mem_dir/store" <<'EOF'
import os, resource, subprocess, sys
cpu = sorted(os.sched_getaffinity(0))[-1]
subprocess.run(
    ["./target/release/experiments", "all", "--quick", "--subset", "20",
     "--store-dir", sys.argv[1]],
    stdout=subprocess.DEVNULL, check=True,
    preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.1f} MB")
if peak_mb > 48:
    sys.exit(f"FAIL: peak RSS {peak_mb:.1f} MB exceeds the 48 MB gate")
EOF

    # Golden freshness: re-running the bless generators must leave the
    # committed golden files byte-identical. The normal test run already
    # fails on digest mismatches; this additionally catches a stale or
    # hand-edited golden row (formatting drift, a bless that was run but
    # not committed) that the digest comparison alone can tolerate.
    step "golden freshness (bless output must be committed-clean)"
    SIM_TRACE_BLESS=1 cargo test -q --release -p sim-core --test trace_oracle trace_matrix_matches_goldens
    SIM_TRACE_BLESS=1 cargo test -q --release --test golden_verification machine_kind_traces_match_goldens
    SIM_TRACE_BLESS=1 cargo test -q --release -p experiments --test sweep every_figure_matches_the_committed_text
    if ! git diff --exit-code -- crates/sim-core/tests/golden tests/golden \
        crates/experiments/tests/golden; then
        echo "FAIL: --bless output differs from the committed goldens (see diff above);" >&2
        echo "      review and commit the regenerated files or revert the behavior change" >&2
        exit 1
    fi

    # Quick scheduler-bench smoke: event-driven throughput (fresh, scratch-
    # recycled, traced, and the SMT2 pairings opened up by the parity-free
    # frontend), then the regression gate against the
    # committed snapshot —
    # which carries `scheduler/event/smt2` rows, so an SMT2-specific
    # regression trips the gate like any other. The tolerance is a generous
    # tripwire: the smoke runs 3 samples on a shared host, so only
    # step-change regressions (a revived O(window) scan, a dead fast path)
    # should trip it.
    step "bench smoke (scheduler)"
    CRITERION_SHIM_QUICK=1 cargo bench -p bench --bench scheduler
    step "bench regression gate (scheduler)"
    cargo run -q --release -p bench --bin bench-regress -- \
        BENCH_scheduler.json "$SHIM_OUT/scheduler.json" 0.5

    # Sweep-engine smoke: asserts memoized figure text is byte-identical to
    # the uncached session, then times the multi-figure sweep both
    # ways (the ≥2.5× criterion is checked on the full run, not the smoke).
    step "bench smoke (sweep)"
    CRITERION_SHIM_QUICK=1 cargo bench -p bench --bench sweep
    step "bench regression gate (sweep)"
    cargo run -q --release -p bench --bin bench-regress -- \
        BENCH_sweep.json "$SHIM_OUT/sweep.json" 0.5

    # Memory fast-path smoke: the golden-trace lock (exact per-access
    # latency/level/eviction sequence through the SoA hierarchy) followed by
    # the raw-hierarchy and memory-bound-simulation throughput harness (the
    # ≥1.5× criterion is checked on the full run, not the smoke).
    step "golden trace (memory hierarchy)"
    cargo test -q --release -p sim-mem --test golden_trace
    step "bench smoke (memory)"
    CRITERION_SHIM_QUICK=1 cargo bench -p bench --bench memory
    step "bench regression gate (memory)"
    cargo run -q --release -p bench --bin bench-regress -- \
        BENCH_memory.json "$SHIM_OUT/memory.json" 0.5
fi

step "OK"
