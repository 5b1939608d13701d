//! Scheduler throughput: simulated µops per second of host wall-clock on a
//! category-balanced kernel-suite subset at quick run length.
//!
//! Variants of the event-driven scheduler (the only scheduler; the
//! legacy full-scan mode is deleted — its correctness role now lives in the
//! committed trace-oracle goldens, its historical numbers in `BENCH.md`):
//!
//! * `scheduler/event/*` — fresh allocations per run (the common path);
//! * `scheduler/event-scratch/*` — recycling one `SimScratch` across runs;
//! * `scheduler/event-traced/*` — with a digest-only `TraceRecorder`
//!   attached, bounding the trace oracle's overhead when it is *on* (when
//!   off it costs nothing — `event/*` is the regression gate for that);
//! * `scheduler/event/smt2`, `scheduler/event-scratch/smt2` — SMT2
//!   pairings over the subset, the configuration the parity-free frontend
//!   PR opened to the idle-cycle fast-forward (Fig 14's cost center).
//!
//! The JSON report lands in `target/criterion-shim/scheduler.json`;
//! `BENCH_scheduler.json` in the repo root carries the committed snapshot,
//! and `ci.sh` fails if the smoke's medians regress against it beyond
//! tolerance.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sim_core::{Core, CoreConfig, SimScratch, TraceRecorder};
use sim_workload::WorkloadSpec;
use std::time::Duration;

/// Workloads per bench iteration (category-balanced subset).
const SUBSET: usize = 3;
/// Retired instructions per thread per workload (RunLength::quick()).
const QUICK: u64 = 40_000;

fn total_uops(specs: &[WorkloadSpec], cfg: &CoreConfig) -> u64 {
    // Retired-µop throughput denominator: one full subset pass.
    specs
        .iter()
        .map(|spec| {
            let program = spec.build();
            let mut core = Core::new(&program, cfg.clone());
            core.run(QUICK).stats.retired
        })
        .sum()
}

fn run_subset(specs: &[WorkloadSpec], cfg: &CoreConfig, traced: bool) -> u64 {
    let mut retired = 0;
    for spec in specs {
        let program = spec.build();
        let mut core = Core::new(&program, cfg.clone());
        if traced {
            core.attach_tracer(TraceRecorder::new());
        }
        let r = core.run(QUICK);
        assert_eq!(r.stats.golden_mismatches, 0);
        if traced {
            let trace = core.take_trace().expect("tracer attached");
            assert_eq!(trace.uops, r.stats.retired);
        }
        retired += r.stats.retired;
    }
    retired
}

fn run_subset_with_scratch(
    specs: &[WorkloadSpec],
    cfg: &CoreConfig,
    scratch: SimScratch,
) -> (u64, SimScratch) {
    let mut retired = 0;
    let mut scratch = scratch;
    for spec in specs {
        let program = spec.build();
        let mut core = Core::new_multi_with_scratch(vec![&program], cfg.clone(), scratch);
        let r = core.run(QUICK);
        assert_eq!(r.stats.golden_mismatches, 0);
        retired += r.stats.retired;
        scratch = core.into_scratch();
    }
    (retired, scratch)
}

/// SMT2 pairing shapes over a 4-workload subset (the trace-oracle pairs).
fn smt2_pairs() -> Vec<(sim_workload::Program, sim_workload::Program)> {
    let specs = sim_workload::suite_subset(4);
    [(0usize, 1usize), (2, 3)]
        .iter()
        .map(|&(a, b)| (specs[a].build(), specs[b].build()))
        .collect()
}

fn run_smt2_pairs(
    pairs: &[(sim_workload::Program, sim_workload::Program)],
    cfg: &CoreConfig,
    scratch: SimScratch,
) -> (u64, SimScratch) {
    let mut retired = 0;
    let mut scratch = scratch;
    for (pa, pb) in pairs {
        let mut core = Core::new_multi_with_scratch(vec![pa, pb], cfg.clone(), scratch);
        let r = core.run(QUICK / 2);
        assert_eq!(r.stats.golden_mismatches, 0);
        retired += r.stats.retired;
        scratch = core.into_scratch();
    }
    (retired, scratch)
}

fn scheduler_throughput(c: &mut Criterion) {
    let specs = sim_workload::suite_subset(SUBSET);
    let machines: &[(&str, CoreConfig)] = &[
        ("baseline", CoreConfig::golden_cove_like()),
        ("constable", CoreConfig::golden_cove_like().with_constable()),
    ];
    for (label, cfg) in machines {
        let uops = total_uops(&specs, cfg);
        let mut g = c.benchmark_group("scheduler");
        g.throughput(Throughput::Elements(uops));
        g.bench_function(&format!("event/{label}"), |b| {
            b.iter(|| std::hint::black_box(run_subset(&specs, cfg, false)))
        });
        g.bench_function(&format!("event-scratch/{label}"), |b| {
            let mut scratch = Some(SimScratch::new());
            b.iter(|| {
                let (retired, s) =
                    run_subset_with_scratch(&specs, cfg, scratch.take().expect("scratch"));
                scratch = Some(s);
                std::hint::black_box(retired)
            })
        });
        g.bench_function(&format!("event-traced/{label}"), |b| {
            b.iter(|| std::hint::black_box(run_subset(&specs, cfg, true)))
        });
        g.finish();
    }

    // SMT2: both pairing shapes at half the per-thread run length (same
    // retired-µop total per pair as one single-thread run). The baseline
    // machine matches the smt2/* trace-oracle rows.
    {
        let pairs = smt2_pairs();
        let cfg = CoreConfig::golden_cove_like();
        let (uops, _) = run_smt2_pairs(&pairs, &cfg, SimScratch::new());
        let mut g = c.benchmark_group("scheduler");
        g.throughput(Throughput::Elements(uops));
        g.bench_function("event/smt2", |b| {
            b.iter(|| {
                let (retired, _) = run_smt2_pairs(&pairs, &cfg, SimScratch::new());
                std::hint::black_box(retired)
            })
        });
        g.bench_function("event-scratch/smt2", |b| {
            let mut scratch = Some(SimScratch::new());
            b.iter(|| {
                let (retired, s) = run_smt2_pairs(&pairs, &cfg, scratch.take().expect("scratch"));
                scratch = Some(s);
                std::hint::black_box(retired)
            })
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4));
    targets = scheduler_throughput
}
criterion_main!(benches);
