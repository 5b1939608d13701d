//! The scheduling trace oracle: golden retire-order digests.
//!
//! Every row of the workload × configuration matrix below runs the
//! scheduler under a [`TraceRecorder`] and compares the resulting compact
//! digest (content hash over every retired µop's fetch/issue/complete/
//! retire cycles, issue order, per-cycle stall classification, and the
//! retire-latency histogram) against a committed golden line in
//! `tests/golden/trace_digests.txt`.
//!
//! This is the lock the legacy full-scan scheduler used to provide as a
//! live reference implementation: any change that alters *when* any µop
//! moves through the pipeline — not just whether the aggregate counters
//! survive — fails here, pinned to the exact row that moved. The golden
//! lines were captured from the event-driven scheduler while the legacy
//! scan still existed and were cross-checked bit-identical against it
//! before it was deleted.
//!
//! Regenerate (only when the *modelled* behavior intentionally changes):
//!
//! ```text
//! ./ci.sh --bless        # or directly:
//! SIM_TRACE_BLESS=1 cargo test --release -p sim-core --test trace_oracle
//! ```
//!
//! See `crates/sim-core/tests/README.md` for the row format.

use sim_core::{Core, CoreConfig, SimResult, TraceRecorder, TraceSummary};
use sim_workload::{memory_stress, suite, suite_subset, Program, WorkloadSpec};

const N: u64 = 15_000;
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_digests.txt"
);
const BLESS_ENV: &str = "SIM_TRACE_BLESS";
const BLESS_CMD: &str = "SIM_TRACE_BLESS=1 cargo test --release -p sim-core --test trace_oracle";

/// One matrix row: a named (workloads, config, run-length) cell.
struct Row {
    name: String,
    specs: Vec<WorkloadSpec>,
    cfg: CoreConfig,
    n: u64,
}

fn row(name: impl Into<String>, spec: &WorkloadSpec, cfg: CoreConfig) -> Row {
    Row {
        name: name.into(),
        specs: vec![spec.clone()],
        cfg,
        n: N,
    }
}

fn amt_i_config() -> CoreConfig {
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.constable = Some(constable::ConstableConfig {
        amt_invalidate_on_l1_evict: true,
        ..constable::ConstableConfig::paper()
    });
    cfg
}

fn zero_sld_read_config() -> CoreConfig {
    let mut cfg = CoreConfig::golden_cove_like();
    cfg.constable = Some(constable::ConstableConfig {
        sld_read_ports: 0,
        ..constable::ConstableConfig::paper()
    });
    cfg
}

/// The committed matrix. Covers the general category-balanced subset, the
/// memory-stress workloads (hierarchy fast path + stall fast-forward),
/// SMT2 pairings (including a memory-stress pair — the multi-thread
/// fast-forward's acceptance shape), Constable OFF/ON/AMT-I, every
/// optional unit, the deep window, and the degenerate zero-SLD-read-port
/// corner (which deadlocks into the cycle guard while mutating a stall
/// counter every cycle — the exact state the idle fast-forward must not
/// jump over).
fn matrix() -> Vec<Row> {
    let specs = suite_subset(4);
    let mut rows = Vec::new();
    for spec in &specs {
        rows.push(row(
            format!("baseline/{}", spec.name),
            spec,
            CoreConfig::golden_cove_like(),
        ));
        rows.push(row(
            format!("constable/{}", spec.name),
            spec,
            CoreConfig::golden_cove_like().with_constable(),
        ));
    }
    let w0 = &specs[0];
    rows.push(row(
        "eves/w0",
        w0,
        CoreConfig::golden_cove_like().with_eves(),
    ));
    rows.push(row(
        "eves+constable/w0",
        w0,
        CoreConfig::golden_cove_like().with_eves().with_constable(),
    ));
    let mut elar = CoreConfig::golden_cove_like();
    elar.elar = true;
    rows.push(row("elar/w0", w0, elar));
    let mut rfp = CoreConfig::golden_cove_like();
    rfp.rfp = true;
    rows.push(row("rfp/w0", w0, rfp));
    let mut no_wp = CoreConfig::golden_cove_like();
    no_wp.wrong_path_fetch = false;
    rows.push(row("no-wrong-path/w0", w0, no_wp));
    let mut noisy = CoreConfig::golden_cove_like().with_constable();
    noisy.snoop_rate_per_10k = 100;
    rows.push(row("noisy-snoops/w0", w0, noisy));
    rows.push(row(
        "deep-window/w0",
        w0,
        CoreConfig::golden_cove_like().with_depth_scale(2.0),
    ));
    // Regression rows for the two §8.5 divergences the arming-race guard
    // fixed (ELAR's early address resolution and very deep windows both
    // widen the rename→writeback monitoring gap), plus the same shapes on
    // the generic w0 workload so the configurations stay locked even if
    // the suite changes.
    let full_suite = suite();
    let by_name = |name: &str| {
        full_suite
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from suite"))
    };
    let mut elar_cons = CoreConfig::golden_cove_like().with_constable();
    elar_cons.elar = true;
    rows.push(row(
        "elar+constable/sap-sd.t1",
        by_name("sap-sd.t1"),
        elar_cons.clone(),
    ));
    rows.push(row("elar+constable/w0", w0, elar_cons));
    rows.push(row(
        "deep-window-constable/520.omnetpp_r.t1",
        by_name("520.omnetpp_r.t1"),
        CoreConfig::golden_cove_like()
            .with_constable()
            .with_depth_scale(3.0),
    ));
    rows.push(row(
        "deep-window-constable/w0",
        w0,
        CoreConfig::golden_cove_like()
            .with_constable()
            .with_depth_scale(2.0),
    ));

    for seed in [0xA110Cu64, 0xA110D] {
        let spec = memory_stress(seed);
        rows.push(row(
            format!("memstress/{}/baseline", spec.name),
            &spec,
            CoreConfig::golden_cove_like(),
        ));
        rows.push(row(
            format!("memstress/{}/constable", spec.name),
            &spec,
            CoreConfig::golden_cove_like().with_constable(),
        ));
    }
    rows.push(row(
        "memstress/amt-i",
        &memory_stress(0xA110C),
        amt_i_config(),
    ));

    // SMT2: both pairing shapes, Constable off and on.
    for (a, b) in [(0usize, 1usize), (2, 3)] {
        for (label, cfg) in [
            ("baseline", CoreConfig::golden_cove_like()),
            ("constable", CoreConfig::golden_cove_like().with_constable()),
        ] {
            rows.push(Row {
                name: format!("smt2/{a}{b}/{label}"),
                specs: vec![specs[a].clone(), specs[b].clone()],
                cfg,
                n: N / 2,
            });
        }
    }
    // SMT2 memory stress: both threads deep in DRAM stalls at once — the
    // shape the multi-thread idle fast-forward exists for, locked with
    // Constable off and on.
    for (label, cfg) in [
        ("baseline", CoreConfig::golden_cove_like()),
        ("constable", CoreConfig::golden_cove_like().with_constable()),
    ] {
        rows.push(Row {
            name: format!("smt2/memstress/{label}"),
            specs: vec![memory_stress(0xA110C), memory_stress(0xA110D)],
            cfg,
            n: N / 2,
        });
    }

    // Degenerate corner: no SLD read ports deadlocks into the cycle guard.
    rows.push(Row {
        name: "zero-sld-read/memstress".into(),
        specs: vec![memory_stress(0xA110C)],
        cfg: zero_sld_read_config(),
        n: 50,
    });
    rows
}

/// Runs one row and returns (result, sealed trace).
fn run_row_with(row: &Row, cfg: CoreConfig) -> (SimResult, TraceSummary) {
    let programs: Vec<Program> = row.specs.iter().map(WorkloadSpec::build).collect();
    let mut core = Core::new_multi(programs.iter().collect(), cfg);
    core.attach_tracer(TraceRecorder::new());
    let result = core.run(row.n);
    let trace = core.take_trace().expect("tracer attached");
    (result, trace)
}

fn run_row(row: &Row) -> (SimResult, TraceSummary) {
    run_row_with(row, row.cfg.clone())
}

/// The full committed row: the trace-oracle line plus the digest of every
/// scheduling-sensitive `CoreStats` counter ([`SimResult::stats_digest`] —
/// the counter list the retired scheduler-equivalence suite compared
/// between the legacy and event-driven implementations).
fn golden_row(name: &str, result: &SimResult, trace: &TraceSummary) -> String {
    format!(
        "{} stats:{:#018x}",
        trace.golden_line(name),
        result.stats_digest()
    )
}

/// Parses the committed golden file into (name, line) pairs, in order.
fn read_goldens() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}\nregenerate with: {BLESS_CMD}"));
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let name = l.split_whitespace().next().expect("non-empty line");
            (name.to_string(), l.to_string())
        })
        .collect()
}

/// Computes every row's golden line. The guard expectation is part of the
/// lock: every row but the zero-SLD corner must finish, and that corner
/// must deadlock.
fn computed_lines() -> Vec<(String, String)> {
    matrix()
        .iter()
        .map(|row| {
            let (result, trace) = run_row(row);
            let expect_guard = row.name.starts_with("zero-sld-read");
            assert_eq!(
                result.hit_cycle_guard, expect_guard,
                "{}: unexpected cycle-guard state",
                row.name
            );
            assert_eq!(
                result.stats.golden_mismatches, 0,
                "{}: golden check",
                row.name
            );
            (row.name.clone(), golden_row(&row.name, &result, &trace))
        })
        .collect()
}

/// The tentpole lock: every matrix row's trace digest must equal the
/// committed golden line. With `SIM_TRACE_BLESS=1` the file is rewritten
/// from the current build instead (review the diff before committing!).
#[test]
fn trace_matrix_matches_goldens() {
    let computed = computed_lines();
    if std::env::var_os(BLESS_ENV).is_some() {
        let mut out = String::from(
            "# Scheduling trace oracle goldens — one row per (workload, config) cell.\n\
             # Format: <name> <digest> <retired-uops> hist:<retire-latency buckets> stalls:<per-class cycles> stats:<counter digest>\n\
             # Regenerate: ./ci.sh --bless (see crates/sim-core/tests/README.md)\n",
        );
        for (_, line) in &computed {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(GOLDEN_PATH, out).expect("write goldens");
        eprintln!("blessed {} rows into {GOLDEN_PATH}", computed.len());
        return;
    }
    let committed = read_goldens();
    let committed_names: Vec<&String> = committed.iter().map(|(n, _)| n).collect();
    let computed_names: Vec<&String> = computed.iter().map(|(n, _)| n).collect();
    assert_eq!(
        committed_names, computed_names,
        "golden rows out of sync with the test matrix; regenerate with: {BLESS_CMD}"
    );
    let mut diverged = Vec::new();
    for ((name, want), (_, got)) in committed.iter().zip(&computed) {
        if want != got {
            diverged.push(format!(
                "  {name}:\n    committed: {want}\n    computed:  {got}"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "{} of {} trace-oracle rows diverged from the committed goldens:\n{}\n\
         If the timing change is intentional, regenerate with: {BLESS_CMD}",
        diverged.len(),
        computed.len(),
        diverged.join("\n")
    );
}

/// Shortcut validation: force-disabling the event-driven shortcuts (idle
/// fast-forward + issue-quiescence memo) must reproduce the committed
/// goldens bit-for-bit. This knob is the reference the shortcuts are
/// validated against now that the legacy scan is data, not code.
#[test]
fn shortcuts_disabled_match_goldens() {
    let committed = read_goldens();
    let lookup = |name: &str| {
        committed
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from goldens; regenerate with: {BLESS_CMD}"))
            .1
            .clone()
    };
    // The fast-forward-heavy rows: long memory stalls (memstress), the
    // stall-counter corner (zero-sld), a general row with Constable's
    // histogram-on-idle-cycles interaction, and every SMT2 pairing (the
    // multi-thread fast-forward rides on the parity-free frontend rotor —
    // these rows prove whole-span skipping is interleaving-invisible).
    for row in matrix() {
        let stressed = row.name.starts_with("memstress/")
            || row.name.starts_with("zero-sld-read")
            || row.name.starts_with("constable/")
            || row.name.starts_with("smt2/");
        if !stressed {
            continue;
        }
        let mut cfg = row.cfg.clone();
        cfg.event_shortcuts = false;
        let (result, trace) = run_row_with(&row, cfg);
        assert_eq!(
            golden_row(&row.name, &result, &trace),
            lookup(&row.name),
            "{}: disabling the event-driven shortcuts changed the trace",
            row.name
        );
    }
}

/// `SimScratch` recycling: back-to-back runs reusing one scratch must
/// produce trace digests identical to fresh-scratch runs (and therefore to
/// the committed goldens) — locks the recycle paths of the µop slab, event
/// heap, per-thread rings, eviction sink, and PC count table.
#[test]
fn scratch_recycling_matches_goldens() {
    let committed = read_goldens();
    let mut scratch = sim_core::SimScratch::new();
    let mut checked = 0;
    for row in matrix() {
        // A representative interleaving of machine shapes, including every
        // SMT2 pairing (thread-scratch handoff across 1↔2-thread runs,
        // plus the smt2/memstress cells) and the AMT-I eviction sink.
        let recycle = row.name.starts_with("baseline/")
            || row.name.starts_with("memstress/")
            || row.name.starts_with("smt2/");
        if !recycle {
            continue;
        }
        let programs: Vec<Program> = row.specs.iter().map(WorkloadSpec::build).collect();
        let mut core =
            Core::new_multi_with_scratch(programs.iter().collect(), row.cfg.clone(), scratch);
        core.attach_tracer(TraceRecorder::new());
        let result = core.run(row.n);
        let trace = core.take_trace().expect("tracer attached");
        assert_eq!(result.stats.golden_mismatches, 0, "{}", row.name);
        let golden = &committed
            .iter()
            .find(|(n, _)| n == &row.name)
            .unwrap_or_else(|| panic!("{} missing from goldens", row.name))
            .1;
        assert_eq!(
            &golden_row(&row.name, &result, &trace),
            golden,
            "{}: scratch recycling changed the trace",
            row.name
        );
        scratch = core.into_scratch();
        checked += 1;
    }
    assert!(checked >= 12, "recycling chain too short ({checked} rows)");
}

/// `SimScratch` recycling across an aborted run and memory-geometry
/// changes: one scratch threaded through a watchdog-stopped wedged run,
/// the default config (its hierarchy reset after the abort), a doubled L2
/// (a fresh hierarchy) and the default config again (fresh once more).
/// Every run must equal a fresh-scratch run of the same cell.
#[test]
fn scratch_recycling_survives_aborts_and_geometry_changes() {
    let program = suite_subset(2)[0].build();
    let mut wedged = CoreConfig::golden_cove_like();
    wedged.wedge_after_retire = Some(2_000);
    wedged.watchdog_no_retire = Some(10_000);
    let mut big_l2 = CoreConfig::golden_cove_like();
    big_l2.mem.l2_bytes *= 2;
    let cells = [
        ("wedged", wedged),
        ("default after abort", CoreConfig::golden_cove_like()),
        ("doubled L2", big_l2),
        ("back to default", CoreConfig::golden_cove_like()),
    ];
    let mut scratch = sim_core::SimScratch::new();
    for (name, cfg) in cells {
        let fresh = Core::new(&program, cfg.clone()).run(N);
        assert_eq!(fresh.watchdog.is_some(), name == "wedged", "{name}: abort");
        let mut core = Core::new_multi_with_scratch(vec![&program], cfg, scratch);
        let recycled = core.run(N);
        scratch = core.into_scratch();
        assert_eq!(recycled.stats_digest(), fresh.stats_digest(), "{name}");
        assert_eq!(recycled.stats, fresh.stats, "{name}: CoreStats differ");
        assert_eq!(
            recycled.retired_per_thread, fresh.retired_per_thread,
            "{name}"
        );
        assert_eq!(recycled.verify(), fresh.verify(), "{name}: verdicts differ");
    }
}
