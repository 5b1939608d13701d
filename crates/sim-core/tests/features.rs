//! Feature-level pipeline tests: each optional unit and each ablation knob
//! must run correctly and move its own counters.

use constable::{ConstableConfig, ConstableStats, IdealConfig, IdealOracle};
use sim_core::{Core, CoreConfig};
use sim_workload::suite_subset;

const N: u64 = 25_000;

fn run_cfg(cfg: CoreConfig) -> sim_core::SimResult {
    let spec = &suite_subset(2)[0];
    let program = spec.build();
    let mut core = Core::new(&program, cfg);
    let r = core.run(N);
    assert!(!r.hit_cycle_guard);
    assert_eq!(r.stats.golden_mismatches, 0);
    r
}

#[test]
fn elar_resolves_stack_loads() {
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.elar = true;
    let r = run_cfg(cfg);
    assert!(r.stats.elar_resolved > 0, "ELAR never fired");
}

#[test]
fn rfp_predicts_addresses() {
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.rfp = true;
    let r = run_cfg(cfg);
    assert!(r.stats.rfp_address_hits > 0, "RFP never hit");
}

#[test]
fn mrn_forwards_in_baseline() {
    let r = run_cfg(CoreConfig::golden_cove_like());
    assert!(r.stats.mrn_forwarded > 0, "baseline MRN never forwarded");
}

#[test]
fn disabling_mrn_removes_forwarding() {
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.mrn = false;
    let r = run_cfg(cfg);
    assert_eq!(r.stats.mrn_forwarded, 0);
}

#[test]
fn wrong_path_fetch_produces_wrong_path_uops() {
    let r = run_cfg(CoreConfig::golden_cove_like());
    assert!(
        r.stats.branch_mispredicts > 0,
        "workloads must mispredict sometimes"
    );
    assert!(
        r.stats.fetched_wrong_path > 0,
        "wrong-path fetch must engage"
    );

    let mut cfg = CoreConfig::golden_cove_like();
    cfg.wrong_path_fetch = false;
    let r2 = run_cfg(cfg);
    assert_eq!(r2.stats.fetched_wrong_path, 0);
}

#[test]
fn constable_mode_filters_partition_elimination() {
    use sim_isa::AddrMode;
    let mut total = 0;
    for mode in AddrMode::ALL {
        let mut cfg = CoreConfig::golden_cove_like();
        cfg.constable = Some(ConstableConfig {
            mode_filter: Some(mode),
            ..ConstableConfig::paper()
        });
        total += run_cfg(cfg).stats.loads_eliminated;
    }
    let all = run_cfg(CoreConfig::golden_cove_like().with_constable());
    assert!(total > 0);
    // Per-mode eliminations approximately compose into the full config
    // (Fig 13's observation); allow slack for cross-mode interactions.
    assert!(
        all.stats.loads_eliminated * 2 > total,
        "full elimination ({}) should be within 2x of the per-mode sum ({})",
        all.stats.loads_eliminated,
        total
    );
}

#[test]
fn sld_update_histogram_is_populated_under_constable() {
    let r = run_cfg(CoreConfig::golden_cove_like().with_constable());
    assert!(r.stats.sld_updates_per_cycle.total() > 0);
    // The paper's §6.7.1 point: nearly all cycles need ≤ 2 SLD updates.
    let counts = r.stats.sld_updates_per_cycle.bucket_counts();
    let le2: u64 = counts.iter().take(3).sum();
    let frac = le2 as f64 / r.stats.sld_updates_per_cycle.total() as f64;
    assert!(frac > 0.95, "cycles with <=2 SLD updates: {frac:.3}");
}

#[test]
fn ideal_constable_eliminates_all_oracle_loads() {
    let spec = &suite_subset(2)[0];
    let program = spec.build();
    let report = load_inspector_analyze(&program);
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.ideal = Some(IdealConfig::IdealConstable);
    cfg.oracle = IdealOracle::new(report.clone());
    let mut core = Core::new(&program, cfg);
    let r = core.run(N);
    assert_eq!(r.stats.golden_mismatches, 0);
    assert!(
        r.stats.loads_eliminated > 0,
        "oracle elimination must fire ({} stable PCs)",
        report.len()
    );
}

#[test]
fn load_width_scaling_never_hurts() {
    let spec = &suite_subset(2)[1];
    let program = spec.build();
    let mut prev = 0.0;
    for width in [3u32, 6] {
        let mut core = Core::new(
            &program,
            CoreConfig::golden_cove_like().with_load_ports(width),
        );
        let r = core.run(N);
        assert_eq!(r.stats.golden_mismatches, 0);
        assert!(
            r.ipc() >= prev * 0.995,
            "wider load execution must not slow down ({} vs {prev})",
            r.ipc()
        );
        prev = r.ipc();
    }
}

#[test]
fn depth_scaling_never_hurts() {
    let spec = &suite_subset(2)[1];
    let program = spec.build();
    let base = {
        let mut core = Core::new(&program, CoreConfig::golden_cove_like());
        core.run(N).ipc()
    };
    let deep = {
        let mut core = Core::new(
            &program,
            CoreConfig::golden_cove_like().with_depth_scale(2.0),
        );
        core.run(N).ipc()
    };
    assert!(
        deep >= base * 0.995,
        "2x window must not slow down: {deep} vs {base}"
    );
}

/// The engine's counters come back inside the run's result, and the
/// derived per-unit counts agree with them.
#[test]
fn constable_engine_counters_ride_in_the_result() {
    let spec = &suite_subset(2)[0];
    let program = spec.build();
    let mut core = Core::new(&program, CoreConfig::golden_cove_like().with_constable());
    let r = core.run(N);
    let cs = &r.stats.constable;
    assert_eq!(cs, core.constable().expect("Constable machine").stats());
    assert!(cs.eliminated > 0, "Constable never eliminated");
    assert_eq!(r.stats.sld_reads, cs.loads_renamed);
    assert_eq!(r.stats.cv_pins, cs.cv_pins_requested);
    assert_eq!(
        r.stats.amt_probes,
        cs.resets_store + cs.resets_snoop + cs.armed
    );
    assert_eq!(
        r.stats.sld_writes,
        cs.resets_reg_write + cs.resets_store + cs.resets_snoop + cs.armed
    );

    let base = run_cfg(CoreConfig::golden_cove_like());
    assert_eq!(base.stats.constable, ConstableStats::default());
}

#[test]
fn snoop_injection_rate_scales_snoops() {
    let mut quiet = CoreConfig::golden_cove_like().with_constable();
    quiet.snoop_rate_per_10k = 0;
    let mut noisy = CoreConfig::golden_cove_like().with_constable();
    noisy.snoop_rate_per_10k = 100;
    let rq = run_cfg(quiet);
    let rn = run_cfg(noisy);
    assert_eq!(rq.stats.snoops_delivered, 0);
    assert!(rn.stats.snoops_delivered > 50, "noisy run must see snoops");
}

fn load_inspector_analyze(program: &sim_workload::Program) -> Vec<u64> {
    // Minimal in-test global-stable analysis (the load-inspector crate is a
    // dev-dependency of the umbrella crate, not of sim-core).
    use std::collections::HashMap;
    let mut m = sim_workload::Machine::new(program);
    let mut seen: HashMap<u32, (u64, u64, bool, u64)> = HashMap::new();
    for _ in 0..N {
        let rec = m.step();
        if program.inst(rec.sidx).is_load() {
            let acc = rec.mem.expect("load access");
            let e = seen
                .entry(rec.sidx)
                .or_insert((acc.addr, acc.value, true, 0));
            if e.0 != acc.addr || e.1 != acc.value {
                e.2 = false;
            }
            e.3 += 1;
        }
    }
    seen.iter()
        .filter(|(_, v)| v.2 && v.3 >= 2)
        .map(|(sidx, _)| sim_isa::Pc::from_index(*sidx).0)
        .collect()
}
