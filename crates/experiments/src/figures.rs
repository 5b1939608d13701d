//! One reproduction function per paper table/figure.
//!
//! Every function renders the same rows/series the paper reports, so the
//! output can be laid side by side with the publication. The repository's
//! `ROADMAP.md` records the current paper-vs-measured fidelity numbers.
//!
//! All simulations are drawn from the figure's [`SweepSession`]: programs,
//! load-inspector reports, and completed runs are memoized there, so
//! figures sharing a configuration (most share at least the Baseline
//! suite) pay for it once per CLI invocation, and each figure's whole
//! (workload × config) matrix executes as one flat job list on the
//! session's persistent pool.

use crate::configs::MachineKind;
use crate::fault::CellFailure;
use crate::runner::{category_speedups, geomean_speedup, RunOutcome};
use crate::sweep::{MkOracleConfig, MkPairConfig, SweepSession};
use sim_isa::AddrMode;
use sim_stats::{geomean, pct, speedup, BoxStats, Table};
use sim_workload::Category;

fn per_category(specs: &[RunOutcome], cat: Category) -> impl Iterator<Item = &RunOutcome> {
    specs.iter().filter(move |r| r.category == cat)
}

/// Fig 3: global-stable load fraction, addressing-mode breakdown, and
/// inter-occurrence distance distribution.
pub fn fig3(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let reports: Vec<(Category, std::sync::Arc<load_inspector::LoadReport>)> = session
        .specs()
        .iter()
        .map(|s| s.category)
        .zip(session.reports())
        .collect();

    let mut text = String::from("Fig 3(a): fraction of dynamic loads that are global-stable\n");
    let mut t = Table::new(["category", "global-stable loads"]);
    let mut all_fracs = Vec::new();
    for cat in Category::ALL {
        let fracs: Vec<f64> = reports
            .iter()
            .filter(|(c, _)| *c == cat)
            .map(|(_, r)| r.stable_dynamic_frac())
            .collect();
        all_fracs.extend(fracs.iter().copied());
        t.row([cat.label().to_string(), pct(mean(&fracs))]);
    }
    t.row(["AVG".to_string(), pct(mean(&all_fracs))]);
    text.push_str(&t.render());

    text.push_str("\nFig 3(b): global-stable loads by addressing mode\n");
    let mut t = Table::new(["category", "PC-relative", "Stack-relative", "Reg-relative"]);
    let mut agg = [vec![], vec![], vec![]];
    for cat in Category::ALL {
        let mut per_mode = [vec![], vec![], vec![]];
        for (_, r) in reports.iter().filter(|(c, _)| *c == cat) {
            let f = r.mode_fracs();
            for m in 0..3 {
                per_mode[m].push(f[m]);
                agg[m].push(f[m]);
            }
        }
        t.row([
            cat.label().to_string(),
            pct(mean(&per_mode[0])),
            pct(mean(&per_mode[1])),
            pct(mean(&per_mode[2])),
        ]);
    }
    t.row([
        "AVG".to_string(),
        pct(mean(&agg[0])),
        pct(mean(&agg[1])),
        pct(mean(&agg[2])),
    ]);
    text.push_str(&t.render());

    text.push_str("\nFig 3(c): inter-occurrence distance of global-stable loads\n");
    let mut t = Table::new(["category", "[0-50)", "[50-100)", "[100-250)", "250+"]);
    let mut agg = [vec![], vec![], vec![], vec![]];
    for cat in Category::ALL {
        let mut per_bucket = [vec![], vec![], vec![], vec![]];
        for (_, r) in reports.iter().filter(|(c, _)| *c == cat) {
            let f = r.distance_fracs();
            for b in 0..4 {
                per_bucket[b].push(f[b]);
                agg[b].push(f[b]);
            }
        }
        let cells: Vec<String> = std::iter::once(cat.label().to_string())
            .chain((0..4).map(|b| pct(mean(&per_bucket[b]))))
            .collect();
        t.row(cells);
    }
    let cells: Vec<String> = std::iter::once("AVG".to_string())
        .chain((0..4).map(|b| pct(mean(&agg[b]))))
        .collect();
    t.row(cells);
    text.push_str(&t.render());

    text.push_str("\nFig 3(d): distance distribution per addressing mode (all workloads)\n");
    let mut t = Table::new(["mode", "[0-50)", "[50-100)", "[100-250)", "250+"]);
    for mode in AddrMode::ALL {
        let mut per_bucket = [vec![], vec![], vec![], vec![]];
        for (_, r) in &reports {
            let f = r.distance_fracs_for_mode(mode);
            for b in 0..4 {
                per_bucket[b].push(f[b]);
            }
        }
        let cells: Vec<String> = std::iter::once(mode.label().to_string())
            .chain((0..4).map(|b| pct(mean(&per_bucket[b]))))
            .collect();
        t.row(cells);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 6: load-port utilization and its attribution to global-stable loads.
pub fn fig6(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    // Baseline + EVES, with the oracle attached for attribution (§4.3).
    let runs = session.suite_with(true, |_, oracle| {
        let mut c = MachineKind::Eves.config(oracle);
        c.track_per_pc = false;
        c
    })?;
    let mut text =
        String::from("Fig 6: load-port utilization in baseline+EVES (oracle attribution)\n");
    let mut t = Table::new([
        "category",
        "load-utilized cycles",
        "stable blocks non-stable",
        "stable holds port (none waiting)",
    ]);
    let mut all = (vec![], vec![], vec![]);
    for cat in Category::ALL {
        let mut cat_vals = (vec![], vec![], vec![]);
        for r in per_category(&runs, cat) {
            let s = &r.result.stats;
            let util = s.load_utilized_cycles as f64 / s.cycles.max(1) as f64;
            let blocking =
                s.load_cycles_stable_blocking as f64 / s.load_utilized_cycles.max(1) as f64;
            let free = s.load_cycles_stable_free as f64 / s.load_utilized_cycles.max(1) as f64;
            cat_vals.0.push(util);
            cat_vals.1.push(blocking);
            cat_vals.2.push(free);
            all.0.push(util);
            all.1.push(blocking);
            all.2.push(free);
        }
        t.row([
            cat.label().to_string(),
            pct(mean(&cat_vals.0)),
            pct(mean(&cat_vals.1)),
            pct(mean(&cat_vals.2)),
        ]);
    }
    t.row([
        "AVG".to_string(),
        pct(mean(&all.0)),
        pct(mean(&all.1)),
        pct(mean(&all.2)),
    ]);
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 7: performance headroom of Ideal Constable vs Ideal Stable LVP,
/// Ideal Stable LVP + data-fetch elimination, and 2× load execution width.
pub fn fig7(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    // One flat batch: baseline + all four headroom machines.
    let mut all = session.suites(&[
        MachineKind::Baseline,
        MachineKind::IdealStableLvp,
        MachineKind::IdealStableLvpNoFetch,
        MachineKind::DoubleLoadWidth,
        MachineKind::IdealConstable,
    ])?;
    let base = all.remove(0);
    let results = all;
    let mut text = String::from("Fig 7: speedup over baseline (oracle headroom study)\n");
    let mut t = Table::new([
        "category",
        "IdealLVP",
        "IdealLVP+fetch-elim",
        "2x load width",
        "Ideal Constable",
    ]);
    for cat in Category::ALL {
        let mut cells = vec![cat.label().to_string()];
        for res in &results {
            let sp: Vec<f64> = res
                .iter()
                .zip(&base)
                .filter(|(o, _)| o.category == cat)
                .map(|(o, b)| o.ipc() / b.ipc())
                .collect();
            cells.push(speedup(geomean(sp)));
        }
        t.row(cells);
    }
    let mut cells = vec!["GEOMEAN".to_string()];
    for res in &results {
        cells.push(speedup(geomean_speedup(&base, res)));
    }
    t.row(cells);
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 9a: SLD updates per cycle during rename.
pub fn fig9a(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let runs = session.suite(MachineKind::Constable)?;
    let mut text = String::from("Fig 9(a): SLD updates per cycle (rename stage)\n");
    let mut t = Table::new(["category", "mean updates/cycle", "cycles with <=2 updates"]);
    let mut means = Vec::new();
    let mut le2 = Vec::new();
    for cat in Category::ALL {
        let mut cat_means = Vec::new();
        let mut cat_le2 = Vec::new();
        for r in per_category(&runs, cat) {
            let h = &r.result.stats.sld_updates_per_cycle;
            cat_means.push(h.mean());
            let counts = h.bucket_counts();
            // Buckets: [0,1) [1,2) [2,3) [3,4) 4+ → ≤2 is the first three.
            let below: u64 = counts.iter().take(3).sum();
            cat_le2.push(below as f64 / h.total().max(1) as f64);
        }
        means.extend(cat_means.iter().copied());
        le2.extend(cat_le2.iter().copied());
        t.row([
            cat.label().to_string(),
            format!("{:.3}", mean(&cat_means)),
            pct(mean(&cat_le2)),
        ]);
    }
    t.row([
        "AVG".to_string(),
        format!("{:.3}", mean(&means)),
        pct(mean(&le2)),
    ]);
    text.push_str(&t.render());
    if let Some(b) = BoxStats::from_samples(&means) {
        text.push_str(&format!("\nbox (per-workload means): {}\n", b.render()));
    }
    Ok(text)
}

/// Fig 9b: performance delta of correct-path-only structure updates.
pub fn fig9b(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut all = session.suites(&[
        MachineKind::Constable,
        MachineKind::ConstableCorrectPathOnly,
    ])?;
    let all_paths = all.remove(0);
    let correct_only = all.remove(0);
    let deltas: Vec<f64> = correct_only
        .iter()
        .zip(&all_paths)
        .map(|(c, a)| (c.ipc() / a.ipc() - 1.0) * 100.0)
        .collect();
    let within_1pct = deltas.iter().filter(|d| d.abs() < 1.0).count();
    let mut text =
        String::from("Fig 9(b): correct-path-only vs all-path updates of Constable structures\n");
    text.push_str(&format!(
        "mean performance change: {:+.2}% | workloads within +/-1%: {}/{}\n",
        mean(&deltas),
        within_1pct,
        deltas.len()
    ));
    if let Some(b) = BoxStats::from_samples(&deltas) {
        text.push_str(&format!("box (% change): {}\n", b.render()));
    }
    Ok(text)
}

/// Fig 11: noSMT speedups of EVES, Constable, EVES+Constable, and
/// EVES+Ideal Constable over the baseline.
pub fn fig11(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut all = session.suites(&[
        MachineKind::Baseline,
        MachineKind::Eves,
        MachineKind::Constable,
        MachineKind::EvesConstable,
        MachineKind::EvesIdealConstable,
    ])?;
    let base = all.remove(0);
    let results = all;
    let mut text = String::from("Fig 11: speedup over the baseline (noSMT)\n");
    let mut t = Table::new([
        "category",
        "EVES",
        "Constable",
        "EVES+Constable",
        "EVES+IdealC",
    ]);
    for cat in Category::ALL {
        let mut cells = vec![cat.label().to_string()];
        for res in &results {
            let sp: Vec<f64> = res
                .iter()
                .zip(&base)
                .filter(|(o, _)| o.category == cat)
                .map(|(o, b)| o.ipc() / b.ipc())
                .collect();
            cells.push(speedup(geomean(sp)));
        }
        t.row(cells);
    }
    let mut cells = vec!["GEOMEAN".to_string()];
    for res in &results {
        cells.push(speedup(geomean_speedup(&base, res)));
    }
    t.row(cells);
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 12: per-workload speedup line graph (printed sorted by EVES gain).
pub fn fig12(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut all = session.suites(&[
        MachineKind::Baseline,
        MachineKind::Eves,
        MachineKind::Constable,
        MachineKind::EvesConstable,
    ])?;
    let base = all.remove(0);
    let eves = all.remove(0);
    let cons = all.remove(0);
    let both = all.remove(0);
    let mut rows: Vec<(String, f64, f64, f64)> = base
        .iter()
        .zip(&eves)
        .zip(&cons)
        .zip(&both)
        .map(|(((b, e), c), ec)| {
            (
                b.workload.clone(),
                e.ipc() / b.ipc(),
                c.ipc() / b.ipc(),
                ec.ipc() / b.ipc(),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN speedups"));
    let constable_wins = rows.iter().filter(|r| r.2 > r.1).count();
    let mut text = format!(
        "Fig 12: per-workload speedups (sorted by EVES gain)\nConstable > EVES in {}/{} workloads\n",
        constable_wins,
        rows.len()
    );
    let mut t = Table::new(["#", "workload", "EVES", "Constable", "EVES+Constable"]);
    for (i, (name, e, c, ec)) in rows.iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            name.clone(),
            speedup(*e),
            speedup(*c),
            speedup(*ec),
        ]);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 13: Constable restricted to one addressing mode at a time.
pub fn fig13(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let kinds = [
        MachineKind::ConstableOnly(AddrMode::PcRelative),
        MachineKind::ConstableOnly(AddrMode::StackRelative),
        MachineKind::ConstableOnly(AddrMode::RegRelative),
        MachineKind::Constable,
    ];
    let mut all = session.suites(&[
        MachineKind::Baseline,
        kinds[0],
        kinds[1],
        kinds[2],
        kinds[3],
    ])?;
    let base = all.remove(0);
    let mut text = String::from("Fig 13: speedup eliminating only one class of loads\n");
    let mut t = Table::new(["config", "geomean speedup"]);
    for (k, res) in kinds.iter().zip(&all) {
        t.row([k.label(), speedup(geomean_speedup(&base, res))]);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 14: SMT2 speedups of EVES, Constable, and EVES+Constable.
pub fn fig14(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let kinds = [
        MachineKind::Eves,
        MachineKind::Constable,
        MachineKind::EvesConstable,
    ];
    // All four pairings in one grid call, so every (pair × machine) cell
    // reaches the pool as one flat job list.
    let mks: Vec<Box<MkPairConfig<'_>>> = std::iter::once(MachineKind::Baseline)
        .chain(kinds)
        .map(|k| {
            let mk: Box<MkPairConfig<'_>> = Box::new(move |_| k.config(Default::default()));
            mk
        })
        .collect();
    let mk_refs: Vec<&MkPairConfig<'_>> = mks.iter().map(|b| b.as_ref()).collect();
    let mut grid = session.suite_smt2_grid(&mk_refs)?;
    let base = grid.remove(0);
    let mut text = String::from("Fig 14: speedup over the baseline (SMT2, throughput)\n");
    let mut t = Table::new(["config", "geomean speedup"]);
    for (k, res) in kinds.iter().zip(&grid) {
        t.row([k.label(), speedup(geomean_speedup(&base, res))]);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 15: Constable vs ELAR and RFP, standalone and combined.
pub fn fig15(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let kinds = [
        MachineKind::Elar,
        MachineKind::Rfp,
        MachineKind::Constable,
        MachineKind::ElarConstable,
        MachineKind::RfpConstable,
    ];
    let mut all = session.suites(&[
        MachineKind::Baseline,
        kinds[0],
        kinds[1],
        kinds[2],
        kinds[3],
        kinds[4],
    ])?;
    let base = all.remove(0);
    let mut text = String::from("Fig 15: speedup vs prior early-address works\n");
    let mut t = Table::new(["config", "geomean speedup"]);
    for (k, res) in kinds.iter().zip(&all) {
        t.row([k.label(), speedup(geomean_speedup(&base, res))]);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 16: load coverage of EVES vs Constable vs combinations.
pub fn fig16(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let kinds = [
        MachineKind::Eves,
        MachineKind::Constable,
        MachineKind::EvesConstable,
        MachineKind::EvesIdealConstable,
    ];
    let all = session.suites(&kinds)?;
    let mut text =
        String::from("Fig 16: fraction of loads covered (eliminated or value-predicted)\n");
    let mut t = Table::new(["config", "coverage"]);
    for (k, res) in kinds.iter().zip(&all) {
        let cov: Vec<f64> = res
            .iter()
            .map(|r| r.result.stats.combined_coverage())
            .collect();
        t.row([k.label(), pct(mean(&cov))]);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 17: runtime elimination coverage of global-stable loads per
/// addressing mode, plus loss attribution.
pub fn fig17(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let runs = session.suite_with(true, |_, oracle| {
        let mut c = MachineKind::Constable.config(oracle);
        c.track_per_pc = true;
        c
    })?;
    // Per-PC stability and modes from the session's shared reports.
    let reports = session.reports();
    let mut per_mode_elim = [0u64; 3];
    let mut per_mode_stable = [0u64; 3];
    let mut not_stable_elim = 0u64;
    let mut stable_total = 0u64;
    for (r, report) in runs.iter().zip(&reports) {
        let detail: std::collections::HashMap<u64, (AddrMode, bool)> = report
            .pc_details
            .iter()
            .map(|&(pc, mode, _, stable)| (pc, (mode, stable)))
            .collect();
        for (&pc, &(elim, total)) in &r.result.stats.per_pc_loads {
            let Some(&(mode, stable)) = detail.get(&pc) else {
                continue;
            };
            let m = AddrMode::ALL.iter().position(|&x| x == mode).expect("mode");
            if stable {
                per_mode_stable[m] += total;
                per_mode_elim[m] += elim;
                stable_total += total;
            } else {
                not_stable_elim += elim;
            }
        }
    }
    let mut text = String::from("Fig 17: elimination coverage of global-stable loads\n");
    let mut t = Table::new([
        "mode",
        "global-stable & eliminated",
        "global-stable, not eliminated",
    ]);
    for (m, mode) in AddrMode::ALL.iter().enumerate() {
        let tot = per_mode_stable[m].max(1) as f64;
        t.row([
            mode.label().to_string(),
            pct(per_mode_elim[m] as f64 / tot),
            pct((per_mode_stable[m] - per_mode_elim[m]) as f64 / tot),
        ]);
    }
    let tot = stable_total.max(1) as f64;
    let elim_total: u64 = per_mode_elim.iter().sum();
    t.row([
        "All loads".to_string(),
        pct(elim_total as f64 / tot),
        pct((stable_total - elim_total) as f64 / tot),
    ]);
    text.push_str(&t.render());
    text.push_str(&format!(
        "\nNot global-stable but eliminated (phase-stable): {} of global-stable volume\n",
        pct(not_stable_elim as f64 / tot)
    ));
    // Loss attribution from the engine's reset-reason counters of the
    // same runs.
    let (mut reg, mut store, mut snoop, mut other) = (0u64, 0u64, 0u64, 0u64);
    for r in &runs {
        let cs = &r.result.stats.constable;
        reg += cs.resets_reg_write;
        store += cs.resets_store;
        snoop += cs.resets_snoop;
        other += cs.resets_amt_conflict + cs.resets_rmt_conflict;
    }
    let total_resets = (reg + store + snoop + other).max(1) as f64;
    text.push_str(&format!(
        "loss attribution (disarm events): register write {} | store {} | snoop {} | capacity {}\n",
        pct(reg as f64 / total_resets),
        pct(store as f64 / total_resets),
        pct(snoop as f64 / total_resets),
        pct(other as f64 / total_resets),
    ));
    Ok(text)
}

/// Fig 18: reduction in RS allocations and L1-D accesses.
pub fn fig18(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut all = session.suites(&[MachineKind::Baseline, MachineKind::Constable])?;
    let base = all.remove(0);
    let cons = all.remove(0);
    let rs_red: Vec<f64> = cons
        .iter()
        .zip(&base)
        .map(|(c, b)| {
            (1.0 - c.result.stats.rs_allocs as f64 / b.result.stats.rs_allocs.max(1) as f64) * 100.0
        })
        .collect();
    let l1_red: Vec<f64> = cons
        .iter()
        .zip(&base)
        .map(|(c, b)| {
            (1.0 - c.result.stats.l1d_accesses as f64 / b.result.stats.l1d_accesses.max(1) as f64)
                * 100.0
        })
        .collect();
    let mut text = String::from("Fig 18: resource-utilization reduction vs baseline\n");
    text.push_str(&format!(
        "(a) RS allocations:  mean {:.1}%\n",
        mean(&rs_red)
    ));
    if let Some(b) = BoxStats::from_samples(&rs_red) {
        text.push_str(&format!("    box: {}\n", b.render()));
    }
    text.push_str(&format!(
        "(b) L1-D accesses:   mean {:.1}%\n",
        mean(&l1_red)
    ));
    if let Some(b) = BoxStats::from_samples(&l1_red) {
        text.push_str(&format!("    box: {}\n", b.render()));
    }
    Ok(text)
}

/// Fig 19: core dynamic power, normalized to the baseline.
pub fn fig19(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    use sim_power::{core_energy, ActiveUnits, EnergyParams};
    let kinds = [
        (
            MachineKind::Baseline,
            ActiveUnits {
                constable: false,
                eves: false,
            },
        ),
        (
            MachineKind::Eves,
            ActiveUnits {
                constable: false,
                eves: true,
            },
        ),
        (
            MachineKind::Constable,
            ActiveUnits {
                constable: true,
                eves: false,
            },
        ),
        (
            MachineKind::EvesConstable,
            ActiveUnits {
                constable: true,
                eves: true,
            },
        ),
    ];
    let p = EnergyParams::default();
    let mut text = String::from("Fig 19: core dynamic power normalized to baseline\n");
    let mut t = Table::new([
        "config",
        "total",
        "FE",
        "OOO(RS)",
        "OOO(RAT)",
        "OOO(ROB)",
        "EU",
        "MEU(L1D)",
        "MEU(DTLB)",
        "others",
    ]);
    let machine_runs = session.suites(&[kinds[0].0, kinds[1].0, kinds[2].0, kinds[3].0])?;
    let mut base_power: Option<f64> = None;
    for ((k, units), res) in kinds.iter().zip(&machine_runs) {
        // Power = energy / time; average the per-workload power ratio.
        let mut totals = sim_power::PowerBreakdown::default();
        let mut watts = Vec::new();
        for r in res {
            let e = core_energy(&r.result.stats, *units, &p);
            watts.push(e.watts(r.result.stats.cycles));
            totals.fe += e.fe;
            totals.ooo_rs += e.ooo_rs;
            totals.ooo_rat += e.ooo_rat;
            totals.ooo_rob += e.ooo_rob;
            totals.eu += e.eu;
            totals.meu_l1d += e.meu_l1d;
            totals.meu_dtlb += e.meu_dtlb;
            totals.others += e.others;
        }
        let avg_watts = mean(&watts);
        let baseline = *base_power.get_or_insert(avg_watts);
        let norm = avg_watts / baseline;
        let tt = totals.total().max(1e-12);
        t.row([
            k.label(),
            format!("{:.3}", norm),
            pct(totals.fe / tt),
            pct(totals.ooo_rs / tt),
            pct(totals.ooo_rat / tt),
            pct(totals.ooo_rob / tt),
            pct(totals.eu / tt),
            pct(totals.meu_l1d / tt),
            pct(totals.meu_dtlb / tt),
            pct(totals.others / tt),
        ]);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 20a: sensitivity to load-execution-width scaling.
pub fn fig20a(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let base = session.suite(MachineKind::Baseline)?;
    let mut text =
        String::from("Fig 20(a): load execution width sweep (speedup vs 3-wide baseline)\n");
    let mut t = Table::new(["load width", "baseline system", "constable"]);
    let widths = [3u32, 4, 5, 6];
    // The whole 4×2 sensitivity grid in one call, so all eight configs of
    // every workload reach the pool as one flat job list.
    let mut mks: Vec<Box<MkOracleConfig<'_>>> = Vec::new();
    for &width in &widths {
        for kind in [MachineKind::Baseline, MachineKind::Constable] {
            mks.push(Box::new(move |_, o| {
                let mut c = kind.config(o);
                c.load_ports = width;
                c
            }));
        }
    }
    let mk_refs: Vec<&MkOracleConfig<'_>> = mks.iter().map(|b| b.as_ref()).collect();
    let grid = session.suite_grid(false, &mk_refs)?;
    for (k, &width) in widths.iter().enumerate() {
        t.row([
            width.to_string(),
            speedup(geomean_speedup(&base, &grid[2 * k])),
            speedup(geomean_speedup(&base, &grid[2 * k + 1])),
        ]);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 20b: sensitivity to pipeline-depth scaling (ROB/RS/LB/SB).
pub fn fig20b(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let base = session.suite(MachineKind::Baseline)?;
    let mut text = String::from("Fig 20(b): pipeline depth sweep (speedup vs 1x baseline)\n");
    let mut t = Table::new(["depth scale", "baseline system", "constable"]);
    let scales = [1.0f64, 2.0, 3.0, 4.0];
    let mut mks: Vec<Box<MkOracleConfig<'_>>> = Vec::new();
    for &scale in &scales {
        for kind in [MachineKind::Baseline, MachineKind::Constable] {
            mks.push(Box::new(move |_, o| kind.config(o).with_depth_scale(scale)));
        }
    }
    let mk_refs: Vec<&MkOracleConfig<'_>> = mks.iter().map(|b| b.as_ref()).collect();
    let grid = session.suite_grid(false, &mk_refs)?;
    for (k, &scale) in scales.iter().enumerate() {
        t.row([
            format!("{scale}x"),
            speedup(geomean_speedup(&base, &grid[2 * k])),
            speedup(geomean_speedup(&base, &grid[2 * k + 1])),
        ]);
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 21: memory-ordering violations by eliminated loads and the ROB
/// allocation increase they cause.
pub fn fig21(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut all = session.suites(&[MachineKind::Baseline, MachineKind::Constable])?;
    let base = all.remove(0);
    let cons = all.remove(0);
    let viol: Vec<f64> = cons
        .iter()
        .map(|c| {
            100.0 * c.result.stats.elim_violations as f64
                / c.result.stats.loads_eliminated.max(1) as f64
        })
        .collect();
    let rob_inc: Vec<f64> = cons
        .iter()
        .zip(&base)
        .map(|(c, b)| {
            (c.result.stats.rob_allocs as f64 / b.result.stats.rob_allocs.max(1) as f64 - 1.0)
                * 100.0
        })
        .collect();
    let mut text = String::from("Fig 21: eliminated-load ordering violations\n");
    text.push_str(&format!(
        "(a) violating eliminated loads: mean {:.3}%\n",
        mean(&viol)
    ));
    if let Some(b) = BoxStats::from_samples(&viol) {
        text.push_str(&format!("    box: {}\n", b.render()));
    }
    text.push_str(&format!(
        "(b) ROB allocation increase:    mean {:+.2}%\n",
        mean(&rob_inc)
    ));
    if let Some(b) = BoxStats::from_samples(&rob_inc) {
        text.push_str(&format!("    box: {}\n", b.render()));
    }
    Ok(text)
}

/// Fig 22: Constable-AMT-I (invalidate on L1 eviction) vs CV-bit pinning.
pub fn fig22(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut all = session.suites(&[
        MachineKind::Baseline,
        MachineKind::Constable,
        MachineKind::ConstableAmtI,
    ])?;
    let base = all.remove(0);
    let vanilla = all.remove(0);
    let amti = all.remove(0);
    let cov = |runs: &[RunOutcome]| {
        let v: Vec<f64> = runs
            .iter()
            .map(|r| r.result.stats.elimination_coverage())
            .collect();
        mean(&v)
    };
    let mut text = String::from("Fig 22: CV-bit pinning vs AMT invalidation on L1-D eviction\n");
    let mut t = Table::new(["config", "geomean speedup", "elimination coverage"]);
    t.row([
        "Constable".to_string(),
        speedup(geomean_speedup(&base, &vanilla)),
        pct(cov(&vanilla)),
    ]);
    t.row([
        "Constable-AMT-I".to_string(),
        speedup(geomean_speedup(&base, &amti)),
        pct(cov(&amti)),
    ]);
    text.push_str(&t.render());
    Ok(text)
}

/// Figs 23–24: the APX (32 architectural registers) study.
pub fn fig23_24(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut text = String::from(
        "Fig 23: dynamic-load reduction and global-stable fraction without/with APX\n",
    );
    let mut t = Table::new([
        "workload",
        "loads/kinst (base)",
        "loads/kinst (APX)",
        "reduction",
        "stable frac (base)",
        "stable frac (APX)",
    ]);
    let mut mode_rows = Table::new([
        "workload",
        "PC-rel base",
        "PC-rel APX",
        "Stack base",
        "Stack APX",
        "Reg base",
        "Reg APX",
    ]);
    let mut reductions = Vec::new();
    let mut base_fracs = Vec::new();
    let mut apx_fracs = Vec::new();
    let mut stack_base = Vec::new();
    let mut stack_apx = Vec::new();
    let mut pc_base = Vec::new();
    let mut pc_apx = Vec::new();
    let base_reports = session.reports();
    let apx_reports = session.reports_apx();
    for ((spec, rb), ra) in session.specs().iter().zip(&base_reports).zip(&apx_reports) {
        let red = 1.0 - ra.loads_per_kinst() / rb.loads_per_kinst().max(1e-9);
        reductions.push(red * 100.0);
        base_fracs.push(rb.stable_dynamic_frac());
        apx_fracs.push(ra.stable_dynamic_frac());
        let mb = rb.mode_fracs();
        let ma = ra.mode_fracs();
        pc_base.push(mb[0]);
        pc_apx.push(ma[0]);
        stack_base.push(mb[1]);
        stack_apx.push(ma[1]);
        t.row([
            spec.name.clone(),
            format!("{:.1}", rb.loads_per_kinst()),
            format!("{:.1}", ra.loads_per_kinst()),
            format!("{:.1}%", red * 100.0),
            pct(rb.stable_dynamic_frac()),
            pct(ra.stable_dynamic_frac()),
        ]);
        mode_rows.row([
            spec.name.clone(),
            pct(mb[0]),
            pct(ma[0]),
            pct(mb[1]),
            pct(ma[1]),
            pct(mb[2]),
            pct(ma[2]),
        ]);
    }
    text.push_str(&t.render());
    text.push_str(&format!(
        "\nAVG: load reduction {:.1}% | stable frac base {} vs APX {}\n",
        mean(&reductions),
        pct(mean(&base_fracs)),
        pct(mean(&apx_fracs)),
    ));
    text.push_str("\nFig 24: global-stable addressing-mode distribution without/with APX\n");
    text.push_str(&mode_rows.render());
    text.push_str(&format!(
        "\nAVG: stack-relative {} -> {} | PC-relative {} -> {}\n",
        pct(mean(&stack_base)),
        pct(mean(&stack_apx)),
        pct(mean(&pc_base)),
        pct(mean(&pc_apx)),
    ));
    Ok(text)
}

/// Table 1: storage overhead.
pub fn table1() -> String {
    let cfg = constable::ConstableConfig::paper();
    let s = constable::StorageBreakdown::for_config(&cfg);
    let mut t = Table::new(["structure", "size"]);
    t.row(["SLD (512 entries, 32x16)", &format!("{:.1} KB", s.sld_kb())]);
    t.row(["RMT (2x16 + 14x8 PCs)", &format!("{:.1} KB", s.rmt_kb())]);
    t.row(["AMT (256 entries, 32x8)", &format!("{:.1} KB", s.amt_kb())]);
    t.row(["Total", &format!("{:.1} KB", s.total_kb())]);
    format!("Table 1: Constable storage overhead\n{}", t.render())
}

/// Table 3: access energy / leakage / area of Constable's structures.
pub fn table3() -> String {
    use sim_power::cacti::{estimate, TABLE3_AMT, TABLE3_RMT, TABLE3_SLD};
    let mut t = Table::new([
        "component",
        "read (pJ)",
        "write (pJ)",
        "leakage (mW)",
        "area (mm2)",
        "analytic read (pJ)",
    ]);
    let rows = [
        ("SLD (7.9KB, 3R/2W)", TABLE3_SLD, estimate(8090, 3, 2)),
        ("RMT (0.4KB, 2R/6W)", TABLE3_RMT, estimate(432, 2, 6)),
        ("AMT (4.0KB, 1R/1W)", TABLE3_AMT, estimate(4096, 1, 1)),
    ];
    for (name, published, est) in rows {
        t.row([
            name.to_string(),
            format!("{:.2}", published.read_pj),
            format!("{:.2}", published.write_pj),
            format!("{:.2}", published.leak_mw),
            format!("{:.3}", published.area_mm2),
            format!("{:.2}", est.read_pj),
        ]);
    }
    format!(
        "Table 3: Constable structure estimates (published | analytic cross-check)\n{}",
        t.render()
    )
}

/// §6.6: AMT granularity ablation (cacheline vs full address).
pub fn amt_granularity(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut all = session.suites(&[
        MachineKind::Baseline,
        MachineKind::Constable,
        MachineKind::ConstableFullAddrAmt,
    ])?;
    let base = all.remove(0);
    let line = all.remove(0);
    let full = all.remove(0);
    let mut t = Table::new(["config", "geomean speedup"]);
    t.row([
        "Constable (cacheline AMT)",
        &speedup(geomean_speedup(&base, &line)),
    ]);
    t.row([
        "Constable (full-address AMT)",
        &speedup(geomean_speedup(&base, &full)),
    ]);
    Ok(format!(
        "AMT granularity ablation (paper: 0.4% apart)\n{}",
        t.render()
    ))
}

/// §6.3: xPRF occupancy — how often elimination is forgone for lack of a
/// free xPRF register.
pub fn xprf(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let runs = session.suite(MachineKind::Constable)?;
    let rows: Vec<(String, f64)> = runs
        .iter()
        .take(10)
        .map(|r| {
            let s = &r.result.stats.constable;
            let frac =
                s.xprf_full_forgone as f64 / (s.eliminated + s.xprf_full_forgone).max(1) as f64;
            (r.workload.clone(), frac)
        })
        .collect();
    let fracs: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let mut t = Table::new(["workload", "elims forgone (xPRF full)"]);
    for (name, f) in &rows {
        t.row([name.clone(), pct(*f)]);
    }
    t.row(["AVG".to_string(), pct(mean(&fracs))]);
    Ok(format!(
        "xPRF occupancy study (paper: ~0.2% of instances)\n{}",
        t.render()
    ))
}

/// §8.5-style verification: run the whole suite under the key configs and
/// report the golden-check outcome plus a per-machine suite digest — the
/// fold of every run's [`sim_core::SimResult::stats_digest`], so two
/// hosts (or two builds) can compare an entire suite's scheduling-visible
/// statistics in one line. The committed trace-oracle goldens
/// (`crates/sim-core/tests/golden/`) lock the per-µop timing; this is the
/// CLI-visible fingerprint of the same determinism.
pub fn verify(session: &SweepSession<'_>) -> Result<String, CellFailure> {
    let mut text = String::from("Golden functional verification (every load checked at retire)\n");
    for kind in [
        MachineKind::Baseline,
        MachineKind::Constable,
        MachineKind::EvesConstable,
        MachineKind::ConstableAmtI,
        MachineKind::ConstableFullAddrAmt,
    ] {
        let runs = session.suite(kind)?;
        let mismatches: u64 = runs.iter().map(|r| r.result.stats.golden_mismatches).sum();
        let loads: u64 = runs.iter().map(|r| r.result.stats.retired_loads).sum();
        let mut digest = sim_core::TraceDigest::new();
        digest.update_all(runs.iter().map(|r| r.result.stats_digest()));
        text.push_str(&format!(
            "{:<32} {} traces, {} loads checked, {} mismatches, suite digest {:#018x}\n",
            kind.label(),
            runs.len(),
            loads,
            mismatches,
            digest.finish()
        ));
        // `suite` already quarantines any mismatching cell (the `?` above),
        // so reaching this line implies zero mismatches.
    }
    text.push_str("PASS: zero mismatches everywhere\n");
    Ok(text)
}

/// Fig 11-style summary against Table: category speedups for one machine.
pub fn summary(session: &SweepSession<'_>, kind: MachineKind) -> Result<String, CellFailure> {
    let mut all = session.suites(&[MachineKind::Baseline, kind])?;
    let base = all.remove(0);
    let res = all.remove(0);
    let mut t = Table::new(["category", "geomean speedup"]);
    for (cat, sp) in category_speedups(&base, &res) {
        t.row([cat, speedup(sp)]);
    }
    Ok(format!("{} vs baseline\n{}", kind.label(), t.render()))
}

pub(crate) fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
