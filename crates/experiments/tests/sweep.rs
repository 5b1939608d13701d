//! Sweep-engine correctness: a memoized [`SweepSession`] must produce
//! figure text **byte-identical** to the direct uncached `run_suite` path,
//! no matter how many figures share (and therefore reuse) its caches.

use experiments::{run_figure, MachineKind, MkOracleConfig, RunLength, SweepSession};

const N: RunLength = RunLength(6_000);
const SUBSET: usize = 4;

/// Renders `ids` through one memoized session and through the uncached
/// reference, asserting byte equality figure by figure.
fn assert_byte_identical(ids: &[&str]) {
    let specs = sim_workload::suite_subset(SUBSET);
    let cached = SweepSession::new(&specs, N);
    let direct = SweepSession::uncached(&specs, N);
    for id in ids {
        let a = run_figure(id, &cached);
        let b = run_figure(id, &direct);
        assert_eq!(
            a, b,
            "{id}: memoized sweep output diverged from the uncached run_suite path"
        );
    }
}

#[test]
fn fig11_memoized_is_byte_identical_to_uncached() {
    assert_byte_identical(&["fig11"]);
}

#[test]
fn fig3_memoized_is_byte_identical_to_uncached() {
    assert_byte_identical(&["fig3"]);
}

/// Figures that share the Baseline/Constable suites and the report cache:
/// the second and third figures run almost entirely from memo, and still
/// must render identically.
#[test]
fn memoized_multi_figure_sweep_is_byte_identical_to_uncached() {
    assert_byte_identical(&["fig11", "fig12", "fig18", "fig22"]);
}

/// Re-rendering a figure from a warm session (everything memoized) must be
/// idempotent.
#[test]
fn warm_session_rerender_is_idempotent() {
    let specs = sim_workload::suite_subset(SUBSET);
    let session = SweepSession::new(&specs, N);
    let first = run_figure("fig11", &session);
    let second = run_figure("fig11", &session);
    assert_eq!(first, second);
}

/// The instrumented figures (pool-routed satellite paths: fig17's loss
/// attribution, the xPRF occupancy study) must match the reference too.
#[test]
fn instrumented_figures_are_byte_identical_to_uncached() {
    assert_byte_identical(&["fig17", "xprf"]);
}

/// The SMT2 path: pair cells through the same missing-cell engine and
/// memo as single-thread cells, locked against the uncached reference.
#[test]
fn fig14_memoized_is_byte_identical_to_uncached() {
    assert_byte_identical(&["fig14"]);
}

/// The sensitivity grids — the widest flat submissions in the figure set
/// (8 configs per workload), locked against the uncached reference.
#[test]
fn fig20_grids_are_byte_identical_to_uncached() {
    assert_byte_identical(&["fig20a", "fig20b"]);
}

/// A memo hit for one grid member must not perturb its siblings: after
/// pre-warming exactly one config of a grid, the next sweep answers that
/// member from the memo and submits only the others — a *smaller* job list
/// than a cold session's — which must still produce bit-identical stats
/// (what a submission contains is an implementation detail, never an
/// observable).
#[test]
fn warm_peeled_batch_members_match_cold_grid() {
    let specs = sim_workload::suite_subset(SUBSET);
    let mut mks: Vec<Box<MkOracleConfig>> = Vec::new();
    for kind in [MachineKind::Baseline, MachineKind::Constable] {
        for scale in [1.0f64, 2.0] {
            mks.push(Box::new(move |_, o| kind.config(o).with_depth_scale(scale)));
        }
    }
    let mk_refs: Vec<&MkOracleConfig> = mks.iter().map(|b| b.as_ref()).collect();

    // Cold reference: all four configs submitted together from scratch.
    let cold_session = SweepSession::new(&specs, N);
    let cold = cold_session
        .suite_grid(false, &mk_refs)
        .expect("clean cold grid");

    // Warm run: member 2 is memoized first (runs alone), so the grid sweep
    // submits only the remaining three configs per workload.
    let warm_session = SweepSession::new(&specs, N);
    let peeled = warm_session
        .suite_with(false, |s, o| mk_refs[2](s, o))
        .expect("clean pre-warm");
    let warm = warm_session
        .suite_grid(false, &mk_refs)
        .expect("clean warm grid");

    for (p, w) in peeled.iter().zip(&warm[2]) {
        assert_eq!(p.workload, w.workload);
        assert_eq!(
            p.result.stats, w.result.stats,
            "{}: memo hit mutated",
            p.workload
        );
    }
    for (k, (c_col, w_col)) in cold.iter().zip(&warm).enumerate() {
        for (c, w) in c_col.iter().zip(w_col) {
            assert_eq!(c.workload, w.workload);
            assert!(!w.result.hit_cycle_guard);
            assert_eq!(
                c.result.stats, w.result.stats,
                "config {k} / {}: warm-peeled stats diverged from the cold grid",
                c.workload
            );
            assert_eq!(c.result.retired_per_thread, w.result.retired_per_thread);
        }
    }
}

/// Two different machine configurations must never alias in the run memo:
/// Baseline and Constable results for the same workload have to differ in
/// at least the SLD counters, proving distinct cache entries.
#[test]
fn distinct_configs_occupy_distinct_memo_entries() {
    let specs = sim_workload::suite_subset(2);
    let session = SweepSession::new(&specs, N);
    let base = session.suite(MachineKind::Baseline).expect("clean suite");
    let cons = session.suite(MachineKind::Constable).expect("clean suite");
    for (b, c) in base.iter().zip(&cons) {
        assert_eq!(b.workload, c.workload);
        assert_eq!(c.result.stats.golden_mismatches, 0);
        assert!(
            c.result.stats.sld_reads > 0 || c.result.stats.loads_eliminated > 0,
            "{}: Constable run shows no Constable activity — memo aliasing?",
            c.workload
        );
        assert_eq!(
            b.result.stats.sld_reads, 0,
            "{}: Baseline run shows Constable activity — memo aliasing?",
            b.workload
        );
    }
}
