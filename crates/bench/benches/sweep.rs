//! Sweep-engine throughput: a multi-figure quick sweep (the
//! `experiments -- <figs> --quick` shape) through the memoizing
//! [`SweepSession`] vs an uncached session, which runs every cell it is
//! asked for on the same pool with no memo, no dedupe and no store.
//!
//! This is the harness behind the sweep-memoization acceptance criterion:
//! `sweep/memoized` must beat `sweep/uncached` by ≥2.5× wall-clock, with
//! byte-identical figure text (asserted here before timing). The JSON
//! report lands in `target/criterion-shim/sweep.json`; `BENCH_sweep.json`
//! in the repo root carries the committed snapshot.
//!
//! The figure set deliberately mirrors where `--all` spends its time:
//! every simulation figure re-needs the Baseline suite; fig9a, fig12,
//! fig16, fig18, fig21, amt-granularity, and verify draw entirely (or
//! almost entirely) on machines that fig7/fig11/fig13/fig22 already ran;
//! fig7's four oracle machines re-analyze every workload on the uncached
//! path; and fig3/fig23 are pure analysis (free once the report cache is
//! warm).

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{run_figure, RunLength, SweepSession};
use std::time::Duration;

/// The measured multi-figure sweep.
const SWEEP: &[&str] = &[
    "fig3",
    "fig6",
    "fig7",
    "fig9a",
    "fig11",
    "fig12",
    "fig13",
    "fig16",
    "fig18",
    "fig21",
    "fig22",
    "fig23",
    "amt-granularity",
    "verify",
];
/// The multi-config sensitivity figures: fig20a/fig20b run 8 configs per
/// workload, fig14 five SMT2 machines per pair. `sweep/grid-scalar` times
/// them through a cold memoizing session (the row keeps its historical
/// name so its committed baseline still gates the grid path).
const GRID: &[&str] = &["fig14", "fig20a", "fig20b"];
/// Tiny run length so every bench iteration terminates quickly.
const BENCH_LEN: RunLength = RunLength(6_000);
const SUBSET: usize = 3;

fn run_sweep(session: &SweepSession<'_>) -> usize {
    SWEEP.iter().map(|id| run_figure(id, session).len()).sum()
}

fn run_grid(session: &SweepSession<'_>) -> usize {
    GRID.iter().map(|id| run_figure(id, session).len()).sum()
}

fn sweep_throughput(c: &mut Criterion) {
    let specs = sim_workload::suite_subset(SUBSET);

    // Correctness gate first: the memoized sweep must render byte-identical
    // text to the uncached reference before its speed means anything.
    {
        let cached = SweepSession::new(&specs, BENCH_LEN);
        let direct = SweepSession::uncached(&specs, BENCH_LEN);
        for id in SWEEP {
            assert_eq!(
                run_figure(id, &cached),
                run_figure(id, &direct),
                "{id}: memoized sweep output diverged from the uncached path"
            );
        }
        for id in GRID {
            assert_eq!(
                run_figure(id, &cached),
                run_figure(id, &direct),
                "{id}: memoized grid output diverged from the uncached path"
            );
        }
    }

    c.bench_function("sweep/uncached", |b| {
        b.iter(|| {
            let session = SweepSession::uncached(&specs, BENCH_LEN);
            std::hint::black_box(run_sweep(&session))
        })
    });
    c.bench_function("sweep/memoized", |b| {
        b.iter(|| {
            // Fresh session per iteration: one iteration = one CLI
            // invocation (cold caches, persistent pool, flat job lists).
            let session = SweepSession::new(&specs, BENCH_LEN);
            std::hint::black_box(run_sweep(&session))
        })
    });
    // Warm-session rerender: the `--all` steady state where every suite the
    // figure needs is already memoized (upper bound of the cache win).
    let warm = SweepSession::new(&specs, BENCH_LEN);
    run_sweep(&warm);
    c.bench_function("sweep/memoized-warm", |b| {
        b.iter(|| std::hint::black_box(run_sweep(&warm)))
    });

    c.bench_function("sweep/grid-scalar", |b| {
        b.iter(|| {
            let session = SweepSession::new(&specs, BENCH_LEN);
            std::hint::black_box(run_grid(&session))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(4));
    targets = sweep_throughput
}
criterion_main!(benches);
