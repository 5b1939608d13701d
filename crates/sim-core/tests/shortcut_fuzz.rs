//! Randomized differential validation of the event-driven shortcuts.
//!
//! The idle-cycle fast-forward and the issue-quiescence memo skip work the
//! core proves is side-effect-free. The committed trace-oracle matrix locks
//! a fixed set of (workload, config) cells; this suite hammers the same
//! property over *seeded random* programs and configurations: each case
//! runs once with the shortcuts enabled and once with them force-disabled
//! (`CoreConfig::event_shortcuts = false`) and the two full traces — every
//! retired µop's timestamps and issue order, plus the per-cycle stall
//! stream — must be bit-identical, as must the stall stack each run's
//! `CoreStats` carries. Every run's stack must also close: its classes sum
//! to the run's cycles, traced or not.
//!
//! Two shapes are fuzzed: single-thread runs, and SMT2 program pairs —
//! the configuration the parity-free frontend rotor opened to the idle
//! fast-forward, where a mis-skipped cycle would silently change the
//! thread interleaving rather than just a latency.
//!
//! Failures report the first diverging µop record, which localizes the bug
//! to one instruction rather than one aggregate counter.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_core::{Core, CoreConfig, SimResult, TraceRecorder, TraceSummary};
use sim_workload::{memory_stress, suite, WorkloadSpec};

const CASES: u64 = 12;
const N: u64 = 6_000;

/// Draws a random but live-lockable-free machine configuration.
fn random_config(rng: &mut SmallRng) -> CoreConfig {
    let mut cfg = CoreConfig::golden_cove_like();
    match rng.gen_range(0u32..4) {
        0 => {}
        1 => cfg = cfg.with_constable(),
        2 => {
            cfg.constable = Some(constable::ConstableConfig {
                amt_invalidate_on_l1_evict: true,
                ..constable::ConstableConfig::paper()
            });
        }
        _ => {
            cfg.constable = Some(constable::ConstableConfig {
                sld_read_ports: rng.gen_range(1u32..3),
                sld_write_ports: rng.gen_range(1u32..3),
                ..constable::ConstableConfig::paper()
            });
        }
    }
    cfg.eves = rng.gen_bool(0.3);
    cfg.elar = rng.gen_bool(0.2);
    cfg.rfp = rng.gen_bool(0.2);
    cfg.wrong_path_fetch = rng.gen_bool(0.8);
    cfg.snoop_rate_per_10k = rng.gen_range(0u32..50);
    cfg.load_ports = rng.gen_range(1u32..4);
    cfg.issue_width = rng.gen_range(4u32..8);
    cfg.retire_width = rng.gen_range(4u32..8);
    if rng.gen_bool(0.3) {
        cfg = cfg.with_depth_scale(if rng.gen_bool(0.5) { 0.5 } else { 2.0 });
    }
    cfg.seed = rng.gen_range(0u64..u64::MAX);
    cfg
}

/// Draws a random workload: a suite trace or a fresh memory-stress seed.
fn random_workload(rng: &mut SmallRng) -> WorkloadSpec {
    if rng.gen_bool(0.3) {
        memory_stress(rng.gen_range(0u64..1 << 32))
    } else {
        let full = suite();
        let i = rng.gen_range(0usize..full.len());
        full[i].clone()
    }
}

/// One traced run: its result (which carries the stall stack) and its
/// full trace.
type Traced = (SimResult, TraceSummary);

fn traced_run(program: &sim_workload::Program, cfg: CoreConfig) -> Traced {
    traced_run_multi(&[program], cfg, N)
}

fn traced_run_multi(programs: &[&sim_workload::Program], cfg: CoreConfig, n: u64) -> Traced {
    let mut core = Core::new_multi(programs.to_vec(), cfg);
    core.attach_tracer(TraceRecorder::with_full_trace(true));
    let r = checked_run(&mut core, n);
    (r, core.take_trace().expect("tracer attached"))
}

/// Runs `core` to `n` retired per thread, asserting a clean run whose
/// stall stack sums to its cycles.
fn checked_run(core: &mut Core<'_>, n: u64) -> SimResult {
    let r = core.run(n);
    assert!(!r.hit_cycle_guard, "cycle guard tripped");
    assert_eq!(r.stats.golden_mismatches, 0);
    assert_eq!(
        r.stats.stall_cycles.iter().sum::<u64>(),
        r.stats.cycles,
        "the stall stack must account for every cycle: {:?}",
        r.stats.stall_cycles
    );
    r
}

/// Asserts two full traces are bit-identical, reporting the first
/// diverging µop record (and then the stall stack / digest) on failure.
fn assert_traces_identical((fast_run, fast): &Traced, (plain_run, plain): &Traced, ctx: &str) {
    // Localize before comparing the digest: the first diverging record
    // names the exact µop the shortcuts mis-skipped around.
    assert_eq!(fast.records.len(), plain.records.len(), "{ctx}: uop count");
    for (i, (f, p)) in fast.records.iter().zip(&plain.records).enumerate() {
        assert_eq!(f, p, "{ctx}: first divergence at retired uop {i}");
    }
    assert_eq!(
        fast_run.stats.stall_cycles, plain_run.stats.stall_cycles,
        "{ctx}: stall classification"
    );
    assert_eq!(fast.digest, plain.digest, "{ctx}: digest");
}

#[test]
fn shortcuts_are_trace_invisible_on_random_programs_and_configs() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_FACE);
    for case in 0..CASES {
        let spec = random_workload(&mut rng);
        let cfg = random_config(&mut rng);
        let program = spec.build();

        let fast = traced_run(&program, cfg.clone());
        let mut plain_cfg = cfg.clone();
        plain_cfg.event_shortcuts = false;
        let plain = traced_run(&program, plain_cfg);

        let ctx = format!(
            "case {case}: workload={} constable={} eves={} elar={} rfp={} wp={} snoop={} \
             load_ports={} issue_w={} retire_w={} rob={}",
            spec.name,
            cfg.constable.is_some(),
            cfg.eves,
            cfg.elar,
            cfg.rfp,
            cfg.wrong_path_fetch,
            cfg.snoop_rate_per_10k,
            cfg.load_ports,
            cfg.issue_width,
            cfg.retire_width,
            cfg.rob_size,
        );
        assert_traces_identical(&fast, &plain, &ctx);
    }
}

/// The SMT2 variant: seeded random program *pairs* (suite × suite,
/// suite × memory-stress, stress × stress) under random configurations.
/// A shortcut bug here would change which thread wins a frontend slot —
/// the interleaving itself — so the full-trace diff is the right lens.
#[test]
fn shortcuts_are_trace_invisible_on_smt2_program_pairs() {
    let mut rng = SmallRng::seed_from_u64(0x5347_D00D);
    for case in 0..CASES {
        let spec_a = random_workload(&mut rng);
        let spec_b = random_workload(&mut rng);
        let cfg = random_config(&mut rng);
        let (pa, pb) = (spec_a.build(), spec_b.build());

        let fast = traced_run_multi(&[&pa, &pb], cfg.clone(), N / 2);
        let mut plain_cfg = cfg.clone();
        plain_cfg.event_shortcuts = false;
        let plain = traced_run_multi(&[&pa, &pb], plain_cfg, N / 2);

        let ctx = format!(
            "smt2 case {case}: pair=({}, {}) constable={} eves={} elar={} rfp={} wp={} \
             snoop={} load_ports={} issue_w={} retire_w={} rob={}",
            spec_a.name,
            spec_b.name,
            cfg.constable.is_some(),
            cfg.eves,
            cfg.elar,
            cfg.rfp,
            cfg.wrong_path_fetch,
            cfg.snoop_rate_per_10k,
            cfg.load_ports,
            cfg.issue_width,
            cfg.retire_width,
            cfg.rob_size,
        );
        assert_traces_identical(&fast, &plain, &ctx);
    }
}

/// The stall stack needs no tracer: untraced single-thread and SMT2 runs
/// close their cycle accounting with the shortcuts on and off, and the
/// two stacks agree.
#[test]
fn untraced_stall_stacks_close_and_ignore_the_shortcuts() {
    let specs = sim_workload::suite_subset(2);
    let (a, b) = (specs[0].build(), specs[1].build());
    let single: &[&sim_workload::Program] = &[&a];
    let smt2: &[&sim_workload::Program] = &[&a, &b];
    for cfg in [
        CoreConfig::golden_cove_like(),
        CoreConfig::golden_cove_like().with_constable(),
    ] {
        for programs in [single, smt2] {
            let n = N / programs.len() as u64;
            let stacks = [true, false].map(|shortcuts| {
                let mut cfg = cfg.clone();
                cfg.event_shortcuts = shortcuts;
                let mut core = Core::new_multi(programs.to_vec(), cfg);
                checked_run(&mut core, n).stats.stall_cycles
            });
            assert_eq!(
                stacks[0],
                stacks[1],
                "{} thread(s), constable={}: shortcuts moved the stack",
                programs.len(),
                cfg.constable.is_some()
            );
        }
    }
}
