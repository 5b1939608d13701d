//! Forward-progress watchdog: a wedged pipeline must be aborted with a
//! frozen snapshot, deterministically, and the knob must be invisible to
//! any run that makes progress.

use sim_core::{Core, CoreConfig, SimError};
use sim_workload::suite_subset;

const N: u64 = 20_000;

fn run_cfg(cfg: CoreConfig) -> sim_core::SimResult {
    let spec = &suite_subset(2)[0];
    let program = spec.build();
    Core::new(&program, cfg).run(N)
}

#[test]
fn wedged_run_trips_the_watchdog_with_a_frozen_snapshot() {
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.wedge_after_retire = Some(2_000);
    cfg.watchdog_no_retire = Some(10_000);
    let r = run_cfg(cfg);
    let err = r.verify().expect_err("a wedged run must not verify clean");
    assert_eq!(err.kind(), "watchdog");
    let SimError::Watchdog(snap) = err else {
        unreachable!()
    };
    // Snapshot sanity: the freeze happened exactly one budget past the last
    // retirement, with the machine state still attached.
    assert!(snap.cycle > snap.last_retire_cycle + 10_000);
    assert!(snap.retired_per_thread[0] >= 2_000);
    assert!(
        snap.retired_per_thread[0] < N,
        "the wedge must strike before the retirement target"
    );
    assert!(
        snap.rob_occupancy[0] > 0,
        "a wedged core holds unretired uops"
    );
    assert!(snap.rob_head[0].is_some());
}

#[test]
fn watchdog_abort_is_deterministic() {
    let mk = || {
        let mut cfg = CoreConfig::golden_cove_like();
        cfg.wedge_after_retire = Some(2_000);
        cfg.watchdog_no_retire = Some(10_000);
        cfg
    };
    let a = run_cfg(mk()).verify().expect_err("wedged");
    let b = run_cfg(mk()).verify().expect_err("wedged");
    assert_eq!(a, b, "two identical wedged runs froze different snapshots");
}

/// Without a watchdog the same wedge spins all the way to the (much
/// larger) cycle guard — the watchdog exists to catch it early.
#[test]
fn wedge_without_watchdog_falls_through_to_the_cycle_guard() {
    let spec = &suite_subset(2)[0];
    let program = spec.build();
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.wedge_after_retire = Some(500);
    let r = Core::new(&program, cfg).run(2_000);
    let err = r.verify().expect_err("wedged");
    assert_eq!(err.kind(), "cycle-guard");
}

/// The watchdog knob must be timing-invisible on a healthy run: identical
/// stats digest with and without it (it is armed on every sweep cell, so
/// any perturbation would corrupt every figure).
#[test]
fn watchdog_is_invisible_on_a_healthy_run() {
    let clean = run_cfg(CoreConfig::golden_cove_like());
    clean.verify().expect("healthy run");
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.watchdog_no_retire = Some(10_000);
    let watched = run_cfg(cfg);
    watched.verify().expect("healthy run under watchdog");
    assert!(watched.watchdog.is_none());
    assert_eq!(clean.stats_digest(), watched.stats_digest());
    assert_eq!(clean.stats.cycles, watched.stats.cycles);
}
