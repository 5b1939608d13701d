//! Fault isolation in the sweep engine: a panicking worker job must not
//! take the pool (or any sibling cell) down with it, and a failing cell —
//! a worker panic or a watchdog abort — must quarantine exactly itself
//! while every other cell stays byte-identical to a clean run.

use constable::IdealOracle;
use experiments::{sweep::BatchJob, MachineKind, RunLength, SweepPool, SweepSession};
use sim_core::{CoreConfig, SimScratch};
use sim_workload::WorkloadSpec;

const N: RunLength = RunLength(4_000);
const SUBSET: usize = 3;

type Maker = fn(&WorkloadSpec, IdealOracle) -> CoreConfig;

/// Constable with an empty SLD: the first renamed load indexes it, so the
/// cell panics on its pool worker in debug and release builds alike.
fn panicking(_: &WorkloadSpec, oracle: IdealOracle) -> CoreConfig {
    let mut cfg = MachineKind::Constable.config(oracle);
    let engine = cfg.constable.as_mut().expect("a Constable machine");
    engine.sld_sets = 0;
    cfg
}

/// Baseline that stops retiring after 500 instructions: the pipeline
/// starves and the forward-progress watchdog aborts the cell.
fn wedged(_: &WorkloadSpec, oracle: IdealOracle) -> CoreConfig {
    let mut cfg = MachineKind::Baseline.config(oracle);
    cfg.wedge_after_retire = Some(500);
    cfg
}

/// Every failing suite, with the quarantine kind each of its cells gets.
const FAILING: [(Maker, &str); 2] = [(panicking, "panic"), (wedged, "watchdog")];

#[test]
fn guarded_batch_isolates_a_panicking_job() {
    let pool = SweepPool::new();
    let jobs: Vec<BatchJob<usize>> = (0..8)
        .map(|i| {
            let job: BatchJob<usize> = Box::new(move |_: &mut SimScratch| {
                if i == 3 {
                    panic!("boom {i}");
                }
                i
            });
            job
        })
        .collect();
    let out = pool.run_batch_guarded(jobs);
    assert_eq!(out.len(), 8);
    for (i, r) in out.iter().enumerate() {
        if i == 3 {
            let payload = r.as_ref().expect_err("job 3 panicked");
            assert!(payload.contains("boom 3"), "payload: {payload}");
        } else {
            assert_eq!(*r.as_ref().expect("healthy job"), i, "order not preserved");
        }
    }
    // The pool (and the poisoned worker's replaced scratch) must remain
    // usable for the next batch.
    let again: Vec<BatchJob<usize>> = (0..4)
        .map(|i| {
            let job: BatchJob<usize> = Box::new(move |_: &mut SimScratch| i * 10);
            job
        })
        .collect();
    assert_eq!(pool.run_batch(again), vec![0, 10, 20, 30]);
}

#[test]
fn failing_cells_quarantine_and_leave_the_rest_byte_identical() {
    let specs = sim_workload::suite_subset(SUBSET);
    let clean = SweepSession::new(&specs, N);
    let faulty = SweepSession::new(&specs, N);

    for (mk, kind) in FAILING {
        let f = faulty
            .suite_with(false, mk)
            .expect_err("every cell of a failing suite quarantines");
        assert_eq!(f.kind, kind, "{f}");
    }
    let failures = faulty.failures();
    assert_eq!(
        failures.len(),
        FAILING.len() * specs.len(),
        "one failure per failing cell: {failures:#?}"
    );
    for (_, kind) in FAILING {
        let n = failures.iter().filter(|f| f.kind == kind).count();
        assert_eq!(n, specs.len(), "{kind} failures: {failures:#?}");
    }
    for f in &failures {
        assert!(!f.injected, "{f}: a real failure marked injected");
    }

    // The pool survived its panicking jobs: healthy suites in the same
    // session still run, bit-identical to a clean session.
    for kind in [MachineKind::Baseline, MachineKind::Constable] {
        let reference = clean.suite(kind).expect("clean session must not fail");
        let cells = faulty.suite(kind).expect("healthy suite after quarantine");
        assert_eq!(reference.len(), cells.len());
        for (r, c) in reference.iter().zip(&cells) {
            assert_eq!(r.workload, c.workload);
            assert_eq!(
                r.result.stats_digest(),
                c.result.stats_digest(),
                "{}: healthy cell diverged from the clean run",
                c.workload
            );
            assert_eq!(r.result.stats.cycles, c.result.stats.cycles);
            assert_eq!(r.result.retired_per_thread, c.result.retired_per_thread);
        }
    }
    assert_eq!(faulty.failures(), failures, "healthy suites added failures");
    assert!(
        clean.failures().is_empty(),
        "clean session recorded failures"
    );
}

/// Memoization must hold failures too: re-asking for a quarantined suite
/// returns the same recorded failures without growing the registry.
#[test]
fn quarantined_cells_are_memoized_not_retried() {
    let specs = sim_workload::suite_subset(SUBSET);
    let session = SweepSession::new(&specs, N);
    for (mk, _) in FAILING {
        let _ = session.suite_with(false, mk);
    }
    let first = session.failures();
    assert_eq!(first.len(), FAILING.len() * specs.len());
    for (mk, _) in FAILING {
        let _ = session.suite_with(false, mk);
    }
    assert_eq!(session.failures(), first, "retry grew the quarantine list");
}
