//! The paper's tables and figures as data: one [`REGISTRY`] entry each.
//!
//! An entry declares a figure once: its id, the single-thread machine
//! suites it compares, and the body that renders its text. [`Figure::run`]
//! submits the declared suites to the [`SweepSession`] as one flat job
//! list and hands them to the body in declared order, so the machines a
//! figure declares are exactly the machines it runs. `FIGURES`,
//! `figure_kinds` and `try_run_figure` in the crate root are views of the
//! registry. A body that needs cells beyond plain suites (oracle
//! attribution, the Fig 20 sensitivity grids, SMT2 pairs) asks the session
//! for them itself, so those cells share its memo, store and pool too.
//!
//! Most figures are one of four shapes, each built by one helper:
//! `speedup_by_category` (category × machine geomean speedups),
//! `speedup_table` ("config | geomean speedup"), `category_means` (a
//! per-category mean with an AVG row) and `mean_box` (a mean line plus a
//! box). Every body renders the rows and series the paper reports, so the
//! output can be laid side by side with the publication; `ROADMAP.md`
//! records the current paper-vs-measured fidelity numbers.

use crate::configs::MachineKind::{self, *};
use crate::fault::CellFailure;
use crate::runner::{geomean_speedup, RunOutcome};
use crate::sweep::{MkOracleConfig, SweepSession};
use sim_core::CoreConfig;
use sim_isa::AddrMode;
use sim_stats::{geomean, pct, speedup, BoxStats, Table};
use sim_workload::Category;
use std::iter::once;

/// One table or figure of the paper.
pub(crate) struct Figure {
    /// The id the binary and `FIGURES` know it by.
    pub(crate) id: &'static str,
    /// The single-thread machine suites it runs, in the order its body
    /// receives them. Empty when it runs no plain suite.
    pub(crate) kinds: &'static [MachineKind],
    body: Body,
}

/// One declared suite: every workload's outcome under `kind`, in suite
/// order.
struct Suite {
    kind: MachineKind,
    runs: Vec<RunOutcome>,
}

/// Renders a figure from its declared suites.
type Body = fn(&SweepSession<'_>, &[Suite]) -> Result<String, CellFailure>;

impl Figure {
    const fn new(id: &'static str, kinds: &'static [MachineKind], body: Body) -> Self {
        Figure { id, kinds, body }
    }

    /// Runs the declared suites, then the body. `Err` carries the first
    /// quarantined cell; every other cell still ran.
    pub(crate) fn run(&self, session: &SweepSession<'_>) -> Result<String, CellFailure> {
        let runs = if self.kinds.is_empty() {
            Vec::new()
        } else {
            session.suites(self.kinds)?
        };
        let suites: Vec<Suite> = self
            .kinds
            .iter()
            .zip(runs)
            .map(|(&kind, runs)| Suite { kind, runs })
            .collect();
        (self.body)(session, &suites)
    }
}

/// Every figure, in the order `all` renders them.
pub(crate) const REGISTRY: &[Figure] = &[
    Figure::new("fig3", &[], fig3),
    Figure::new("fig6", &[], fig6),
    Figure::new(
        "fig7",
        &[
            Baseline,
            IdealStableLvp,
            IdealStableLvpNoFetch,
            DoubleLoadWidth,
            IdealConstable,
        ],
        fig7,
    ),
    Figure::new("fig9a", &[Constable], fig9a),
    Figure::new("fig9b", &[Constable, ConstableCorrectPathOnly], fig9b),
    Figure::new(
        "fig11",
        &[Baseline, Eves, Constable, EvesConstable, EvesIdealConstable],
        fig11,
    ),
    Figure::new("fig12", &[Baseline, Eves, Constable, EvesConstable], fig12),
    Figure::new(
        "fig13",
        &[
            Baseline,
            ConstableOnly(AddrMode::PcRelative),
            ConstableOnly(AddrMode::StackRelative),
            ConstableOnly(AddrMode::RegRelative),
            Constable,
        ],
        fig13,
    ),
    Figure::new("fig14", &[], fig14),
    Figure::new(
        "fig15",
        &[Baseline, Elar, Rfp, Constable, ElarConstable, RfpConstable],
        fig15,
    ),
    Figure::new(
        "fig16",
        &[Eves, Constable, EvesConstable, EvesIdealConstable],
        fig16,
    ),
    Figure::new("fig17", &[], fig17),
    Figure::new("fig18", &[Baseline, Constable], fig18),
    Figure::new("fig19", &[Baseline, Eves, Constable, EvesConstable], fig19),
    Figure::new("fig20a", &[Baseline], |session, suites| {
        sensitivity(
            session,
            &suites[0].runs,
            "Fig 20(a): load execution width sweep (speedup vs 3-wide baseline)",
            ["load width", ""],
            [3.0, 4.0, 5.0, 6.0],
            |c, width| c.with_load_ports(width as u32),
        )
    }),
    Figure::new("fig20b", &[Baseline], |session, suites| {
        sensitivity(
            session,
            &suites[0].runs,
            "Fig 20(b): pipeline depth sweep (speedup vs 1x baseline)",
            ["depth scale", "x"],
            [1.0, 2.0, 3.0, 4.0],
            CoreConfig::with_depth_scale,
        )
    }),
    Figure::new("fig21", &[Baseline, Constable], fig21),
    Figure::new("fig22", &[Baseline, Constable, ConstableAmtI], fig22),
    Figure::new("fig23", &[], fig23_24),
    Figure::new("fig24", &[], fig23_24),
    Figure::new("table1", &[], table1),
    Figure::new("table3", &[], table3),
    Figure::new(
        "amt-granularity",
        &[Baseline, Constable, ConstableFullAddrAmt],
        amt_granularity,
    ),
    Figure::new("xprf", &[Constable], xprf),
    Figure::new(
        "verify",
        &[
            Baseline,
            Constable,
            EvesConstable,
            ConstableAmtI,
            ConstableFullAddrAmt,
        ],
        verify,
    ),
];

// ------------------------------------------------------------ table shapes

/// A category × machine table: each suite's geomean speedup over `base`
/// per category, one column per suite (headed by `headers`), and a
/// GEOMEAN row over every workload.
fn speedup_by_category(
    title: &str,
    headers: &[&str],
    base: &[RunOutcome],
    suites: &[Suite],
) -> String {
    let mut t = Table::new(once("category").chain(headers.iter().copied()));
    for cat in Category::ALL {
        let cells = suites.iter().map(|s| {
            let sp = s
                .runs
                .iter()
                .zip(base)
                .filter(|(o, _)| o.category == cat)
                .map(|(o, b)| o.ipc() / b.ipc());
            speedup(geomean(sp))
        });
        t.row(once(cat.label().to_string()).chain(cells));
    }
    let cells = suites
        .iter()
        .map(|s| speedup(geomean_speedup(base, &s.runs)));
    t.row(once("GEOMEAN".to_string()).chain(cells));
    format!("{title}\n{}", t.render())
}

/// An extra [`speedup_table`] column: its header, and what it shows for
/// one row's runs.
type Column = (&'static str, fn(&[RunOutcome]) -> String);

/// A "config | geomean speedup" table: one row per `(label, runs)`, plus
/// one column per `extra` (header, renderer of a row's runs).
fn speedup_table<'r>(
    title: &str,
    base: &[RunOutcome],
    rows: impl IntoIterator<Item = (String, &'r [RunOutcome])>,
    extra: &[Column],
) -> String {
    let mut t = Table::new(
        ["config", "geomean speedup"]
            .into_iter()
            .chain(extra.iter().map(|e| e.0)),
    );
    for (label, runs) in rows {
        let cells = extra.iter().map(|e| (e.1)(runs));
        t.row(
            [label, speedup(geomean_speedup(base, runs))]
                .into_iter()
                .chain(cells),
        );
    }
    format!("{title}\n{}", t.render())
}

/// Each suite's rows for [`speedup_table`], labelled by machine.
fn labelled(suites: &[Suite]) -> impl Iterator<Item = (String, &[RunOutcome])> {
    suites.iter().map(|s| (s.kind.label(), s.runs.as_slice()))
}

/// A per-category table of column means with an AVG row over every
/// workload. `samples` holds one `(category, columns)` per workload;
/// `fmts` renders each column, one renderer per header.
fn category_means(
    title: &str,
    headers: &[&str],
    fmts: &[fn(f64) -> String],
    samples: &[(Category, Vec<f64>)],
) -> String {
    let mut t = Table::new(once("category").chain(headers.iter().copied()));
    // The AVG row averages every sample, gathered in category order.
    let mut all = vec![Vec::new(); fmts.len()];
    for cat in Category::ALL {
        let mut cols = vec![Vec::new(); fmts.len()];
        for (_, v) in samples.iter().filter(|(c, _)| *c == cat) {
            for (col, &x) in cols.iter_mut().zip(v) {
                col.push(x);
            }
        }
        let cells = fmts.iter().zip(&cols).map(|(f, c)| f(mean(c)));
        t.row(once(cat.label().to_string()).chain(cells));
        for (a, c) in all.iter_mut().zip(cols) {
            a.extend(c);
        }
    }
    let cells = fmts.iter().zip(&all).map(|(f, c)| f(mean(c)));
    t.row(once("AVG".to_string()).chain(cells));
    format!("{title}\n{}", t.render())
}

/// `mean_line`, then the box of `samples` on a line after `box_label`
/// (no box line when there are no samples).
fn mean_box(mean_line: String, box_label: &str, samples: &[f64]) -> String {
    let mut text = mean_line + "\n";
    if let Some(b) = BoxStats::from_samples(samples) {
        text.push_str(&format!("{box_label}{}\n", b.render()));
    }
    text
}

/// `f(opt, base)` for every workload, pairing the two suites in order.
fn per_workload(
    opt: &[RunOutcome],
    base: &[RunOutcome],
    f: impl Fn(&sim_core::CoreStats, &sim_core::CoreStats) -> f64,
) -> Vec<f64> {
    opt.iter()
        .zip(base)
        .map(|(o, b)| f(&o.result.stats, &b.result.stats))
        .collect()
}

/// The mean of each column of `rows`.
fn column_means<const N: usize>(rows: &[[f64; N]]) -> [f64; N] {
    std::array::from_fn(|i| mean(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
}

/// `a / b` for event counts, with an empty `b` counted as one.
fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

// ----------------------------------------------------------------- figures

/// Fig 3: global-stable load fraction, addressing-mode breakdown, and
/// inter-occurrence distance distribution.
fn fig3(session: &SweepSession<'_>, _: &[Suite]) -> Result<String, CellFailure> {
    let reports = session.reports();
    let samples = |f: fn(&load_inspector::LoadReport) -> Vec<f64>| {
        let cats = session.specs().iter().map(|s| s.category);
        cats.zip(&reports)
            .map(|(c, r)| (c, f(r)))
            .collect::<Vec<_>>()
    };
    let buckets = ["[0-50)", "[50-100)", "[100-250)", "250+"];
    let mut text = category_means(
        "Fig 3(a): fraction of dynamic loads that are global-stable",
        &["global-stable loads"],
        &[pct],
        &samples(|r| vec![r.stable_dynamic_frac()]),
    );
    text.push('\n');
    text.push_str(&category_means(
        "Fig 3(b): global-stable loads by addressing mode",
        &["PC-relative", "Stack-relative", "Reg-relative"],
        &[pct, pct, pct],
        &samples(|r| r.mode_fracs().to_vec()),
    ));
    text.push('\n');
    text.push_str(&category_means(
        "Fig 3(c): inter-occurrence distance of global-stable loads",
        &buckets,
        &[pct, pct, pct, pct],
        &samples(|r| r.distance_fracs().to_vec()),
    ));

    text.push_str("\nFig 3(d): distance distribution per addressing mode (all workloads)\n");
    let mut t = Table::new(once("mode").chain(buckets));
    for mode in AddrMode::ALL {
        let fracs: Vec<[f64; 4]> = reports
            .iter()
            .map(|r| r.distance_fracs_for_mode(mode))
            .collect();
        t.row(once(mode.label().to_string()).chain(column_means(&fracs).map(pct)));
    }
    text.push_str(&t.render());
    Ok(text)
}

/// Fig 6: load-port utilization and its attribution to global-stable loads.
fn fig6(session: &SweepSession<'_>, _: &[Suite]) -> Result<String, CellFailure> {
    // Baseline + EVES, with the oracle attached for attribution (§4.3).
    let runs = session.suite_with(true, |_, oracle| {
        let mut c = Eves.config(oracle);
        c.track_per_pc = false;
        c
    })?;
    let samples: Vec<(Category, Vec<f64>)> = runs
        .iter()
        .map(|r| {
            let s = &r.result.stats;
            let util = ratio(s.load_utilized_cycles, s.cycles);
            let blocking = ratio(s.load_cycles_stable_blocking, s.load_utilized_cycles);
            let free = ratio(s.load_cycles_stable_free, s.load_utilized_cycles);
            (r.category, vec![util, blocking, free])
        })
        .collect();
    Ok(category_means(
        "Fig 6: load-port utilization in baseline+EVES (oracle attribution)",
        &[
            "load-utilized cycles",
            "stable blocks non-stable",
            "stable holds port (none waiting)",
        ],
        &[pct, pct, pct],
        &samples,
    ))
}

/// Fig 7: performance headroom of Ideal Constable vs Ideal Stable LVP,
/// Ideal Stable LVP + data-fetch elimination, and 2× load execution width.
fn fig7(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    Ok(speedup_by_category(
        "Fig 7: speedup over baseline (oracle headroom study)",
        &[
            "IdealLVP",
            "IdealLVP+fetch-elim",
            "2x load width",
            "Ideal Constable",
        ],
        &suites[0].runs,
        &suites[1..],
    ))
}

/// Fig 9a: SLD updates per cycle during rename.
fn fig9a(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    let samples: Vec<(Category, Vec<f64>)> = suites[0]
        .runs
        .iter()
        .map(|r| {
            let h = &r.result.stats.sld_updates_per_cycle;
            // Buckets: [0,1) [1,2) [2,3) [3,4) 4+ → ≤2 is the first three.
            let below: u64 = h.bucket_counts().iter().take(3).sum();
            (r.category, vec![h.mean(), ratio(below, h.total())])
        })
        .collect();
    let mut text = category_means(
        "Fig 9(a): SLD updates per cycle (rename stage)",
        &["mean updates/cycle", "cycles with <=2 updates"],
        &[|m| format!("{m:.3}"), pct],
        &samples,
    );
    let means: Vec<f64> = samples.iter().map(|(_, v)| v[0]).collect();
    if let Some(b) = BoxStats::from_samples(&means) {
        text.push_str(&format!("\nbox (per-workload means): {}\n", b.render()));
    }
    Ok(text)
}

/// Fig 9b: performance delta of correct-path-only structure updates.
fn fig9b(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    let [all_paths, correct_only] = suites else {
        unreachable!("fig9b declares two suites")
    };
    let deltas: Vec<f64> = correct_only
        .runs
        .iter()
        .zip(&all_paths.runs)
        .map(|(c, a)| (c.ipc() / a.ipc() - 1.0) * 100.0)
        .collect();
    let within_1pct = deltas.iter().filter(|d| d.abs() < 1.0).count();
    let line = format!(
        "mean performance change: {:+.2}% | workloads within +/-1%: {}/{}",
        mean(&deltas),
        within_1pct,
        deltas.len()
    );
    Ok(
        "Fig 9(b): correct-path-only vs all-path updates of Constable structures\n".to_string()
            + &mean_box(line, "box (% change): ", &deltas),
    )
}

/// Fig 11: noSMT speedups of EVES, Constable, EVES+Constable, and
/// EVES+Ideal Constable over the baseline.
fn fig11(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    Ok(speedup_by_category(
        "Fig 11: speedup over the baseline (noSMT)",
        &["EVES", "Constable", "EVES+Constable", "EVES+IdealC"],
        &suites[0].runs,
        &suites[1..],
    ))
}

/// Fig 12: per-workload speedup line graph (printed sorted by EVES gain).
fn fig12(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    let (base, others) = suites.split_first().expect("fig12 declares its suites");
    // Per workload: its speedups under EVES, Constable and EVES+Constable.
    let mut rows: Vec<(&str, Vec<f64>)> = base
        .runs
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let sp = others.iter().map(|s| s.runs[i].ipc() / b.ipc()).collect();
            (b.workload.as_str(), sp)
        })
        .collect();
    rows.sort_by(|a, b| a.1[0].partial_cmp(&b.1[0]).expect("no NaN speedups"));
    let constable_wins = rows.iter().filter(|(_, sp)| sp[1] > sp[0]).count();
    let mut t = Table::new(["#", "workload", "EVES", "Constable", "EVES+Constable"]);
    for (i, (name, sp)) in rows.iter().enumerate() {
        let cells = sp.iter().map(|&x| speedup(x));
        t.row(
            [(i + 1).to_string(), name.to_string()]
                .into_iter()
                .chain(cells),
        );
    }
    Ok(format!(
        "Fig 12: per-workload speedups (sorted by EVES gain)\n\
         Constable > EVES in {constable_wins}/{} workloads\n{}",
        rows.len(),
        t.render()
    ))
}

/// Fig 13: Constable restricted to one addressing mode at a time.
fn fig13(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    Ok(speedup_table(
        "Fig 13: speedup eliminating only one class of loads",
        &suites[0].runs,
        labelled(&suites[1..]),
        &[],
    ))
}

/// Fig 14: SMT2 speedups of EVES, Constable, and EVES+Constable.
fn fig14(session: &SweepSession<'_>, _: &[Suite]) -> Result<String, CellFailure> {
    let kinds = [Baseline, Eves, Constable, EvesConstable];
    let grid = session.smt2_suites(&kinds)?;
    let rows = kinds[1..]
        .iter()
        .map(|k| k.label())
        .zip(grid[1..].iter().map(Vec::as_slice));
    Ok(speedup_table(
        "Fig 14: speedup over the baseline (SMT2, throughput)",
        &grid[0],
        rows,
        &[],
    ))
}

/// Fig 15: Constable vs ELAR and RFP, standalone and combined.
fn fig15(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    Ok(speedup_table(
        "Fig 15: speedup vs prior early-address works",
        &suites[0].runs,
        labelled(&suites[1..]),
        &[],
    ))
}

/// Fig 16: load coverage of EVES vs Constable vs combinations.
fn fig16(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    let mut t = Table::new(["config", "coverage"]);
    for s in suites {
        let cov: Vec<f64> = s
            .runs
            .iter()
            .map(|r| r.result.stats.combined_coverage())
            .collect();
        t.row([s.kind.label(), pct(mean(&cov))]);
    }
    Ok(format!(
        "Fig 16: fraction of loads covered (eliminated or value-predicted)\n{}",
        t.render()
    ))
}

/// Fig 17: runtime elimination coverage of global-stable loads per
/// addressing mode, plus loss attribution.
fn fig17(session: &SweepSession<'_>, _: &[Suite]) -> Result<String, CellFailure> {
    let runs = session.suite_with(true, |_, oracle| {
        let mut c = Constable.config(oracle);
        c.track_per_pc = true;
        c
    })?;
    // Per addressing mode: [global-stable loads, of them eliminated], with
    // per-PC stability and modes from the session's shared reports.
    let mut stable = [[0u64; 2]; 3];
    let mut not_stable_elim = 0u64;
    for (r, report) in runs.iter().zip(&session.reports()) {
        let detail: std::collections::HashMap<u64, (AddrMode, bool)> = report
            .pc_details
            .iter()
            .map(|&(pc, mode, _, stable)| (pc, (mode, stable)))
            .collect();
        for (&pc, &(elim, total)) in &r.result.stats.per_pc_loads {
            match detail.get(&pc) {
                Some(&(mode, true)) => {
                    let m = AddrMode::ALL.iter().position(|&x| x == mode).expect("mode");
                    stable[m] = [stable[m][0] + total, stable[m][1] + elim];
                }
                Some(_) => not_stable_elim += elim,
                None => {}
            }
        }
    }
    let all = stable.iter().fold([0, 0], |[t, e], s| [t + s[0], e + s[1]]);
    let mut t = Table::new([
        "mode",
        "global-stable & eliminated",
        "global-stable, not eliminated",
    ]);
    let labels = AddrMode::ALL.map(|m| m.label().to_string());
    for (label, [total, elim]) in labels
        .into_iter()
        .chain(["All loads".into()])
        .zip(stable.into_iter().chain([all]))
    {
        t.row([
            label,
            pct(ratio(elim, total)),
            pct(ratio(total - elim, total)),
        ]);
    }
    // Loss attribution from the engine's reset-reason counters of the
    // same runs: register write, store, snoop, capacity.
    let resets = runs.iter().fold([0u64; 4], |[reg, store, snoop, cap], r| {
        let cs = &r.result.stats.constable;
        [
            reg + cs.resets_reg_write,
            store + cs.resets_store,
            snoop + cs.resets_snoop,
            cap + cs.resets_amt_conflict + cs.resets_rmt_conflict,
        ]
    });
    let [reg, store, snoop, cap] = resets.map(|x| pct(ratio(x, resets.iter().sum())));
    Ok(format!(
        "Fig 17: elimination coverage of global-stable loads\n{}\n\
         Not global-stable but eliminated (phase-stable): {} of global-stable volume\n\
         loss attribution (disarm events): register write {reg} | store {store} | snoop {snoop} | \
         capacity {cap}\n",
        t.render(),
        pct(ratio(not_stable_elim, all[0]))
    ))
}

/// Fig 18: reduction in RS allocations and L1-D accesses.
fn fig18(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    let [base, cons] = suites else {
        unreachable!("fig18 declares two suites")
    };
    let reduction = |f: fn(&sim_core::CoreStats) -> u64| {
        per_workload(&cons.runs, &base.runs, |c, b| {
            (1.0 - ratio(f(c), f(b))) * 100.0
        })
    };
    let (rs, l1) = (reduction(|s| s.rs_allocs), reduction(|s| s.l1d_accesses));
    let (rs_mean, l1_mean) = (mean(&rs), mean(&l1));
    Ok(format!(
        "Fig 18: resource-utilization reduction vs baseline\n{}{}",
        mean_box(
            format!("(a) RS allocations:  mean {rs_mean:.1}%"),
            "    box: ",
            &rs
        ),
        mean_box(
            format!("(b) L1-D accesses:   mean {l1_mean:.1}%"),
            "    box: ",
            &l1
        ),
    ))
}

/// Fig 19: core dynamic power, normalized to the baseline.
fn fig19(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    use sim_power::{core_energy, ActiveUnits, EnergyParams};
    let p = EnergyParams::default();
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
    let mut base_power: Option<f64> = None;
    for s in suites {
        // Each machine is billed for the predictor structures it has.
        let cfg = s.kind.config(Default::default());
        let units = ActiveUnits {
            constable: cfg.constable.is_some(),
            eves: cfg.eves,
        };
        // Power = energy / time; average the per-workload power ratio.
        let mut totals = sim_power::PowerBreakdown::default();
        let mut watts = Vec::new();
        for r in &s.runs {
            let e = core_energy(&r.result.stats, units, &p);
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
        let tt = totals.total().max(1e-12);
        t.row([
            s.kind.label(),
            format!("{:.3}", avg_watts / baseline),
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
    Ok(format!(
        "Fig 19: core dynamic power normalized to baseline\n{}",
        t.render()
    ))
}

/// Figs 20(a)/(b): the baseline and Constable swept along one machine
/// parameter. `axis` is the column header and the unit its values print
/// with; `apply` sets the parameter to a point. Each cell is the point's
/// geomean speedup over the unmodified baseline `base`.
fn sensitivity(
    session: &SweepSession<'_>,
    base: &[RunOutcome],
    title: &str,
    [axis, unit]: [&str; 2],
    points: [f64; 4],
    apply: fn(CoreConfig, f64) -> CoreConfig,
) -> Result<String, CellFailure> {
    // The whole 4×2 sensitivity grid in one call, so all eight configs of
    // every workload reach the pool as one flat job list.
    let mut mks: Vec<Box<MkOracleConfig<'_>>> = Vec::new();
    for &x in &points {
        for kind in [Baseline, Constable] {
            mks.push(Box::new(move |_, o| apply(kind.config(o), x)));
        }
    }
    let mk_refs: Vec<&MkOracleConfig<'_>> = mks.iter().map(|b| b.as_ref()).collect();
    let grid = session.suite_grid(false, &mk_refs)?;
    let mut t = Table::new([axis, "baseline system", "constable"]);
    for (x, pair) in points.iter().zip(grid.chunks(2)) {
        t.row([
            format!("{x}{unit}"),
            speedup(geomean_speedup(base, &pair[0])),
            speedup(geomean_speedup(base, &pair[1])),
        ]);
    }
    Ok(format!("{title}\n{}", t.render()))
}

/// Fig 21: memory-ordering violations by eliminated loads and the ROB
/// allocation increase they cause.
fn fig21(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    let [base, cons] = suites else {
        unreachable!("fig21 declares two suites")
    };
    let viol = per_workload(&cons.runs, &base.runs, |c, _| {
        100.0 * c.elim_violations as f64 / c.loads_eliminated.max(1) as f64
    });
    let rob = per_workload(&cons.runs, &base.runs, |c, b| {
        (ratio(c.rob_allocs, b.rob_allocs) - 1.0) * 100.0
    });
    let (viol_mean, rob_mean) = (mean(&viol), mean(&rob));
    Ok(format!(
        "Fig 21: eliminated-load ordering violations\n{}{}",
        mean_box(
            format!("(a) violating eliminated loads: mean {viol_mean:.3}%"),
            "    box: ",
            &viol
        ),
        mean_box(
            format!("(b) ROB allocation increase:    mean {rob_mean:+.2}%"),
            "    box: ",
            &rob
        ),
    ))
}

/// Fig 22: Constable-AMT-I (invalidate on L1 eviction) vs CV-bit pinning.
fn fig22(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    Ok(speedup_table(
        "Fig 22: CV-bit pinning vs AMT invalidation on L1-D eviction",
        &suites[0].runs,
        labelled(&suites[1..]),
        &[("elimination coverage", |runs| {
            let v: Vec<f64> = runs
                .iter()
                .map(|r| r.result.stats.elimination_coverage())
                .collect();
            pct(mean(&v))
        })],
    ))
}

/// Figs 23–24: the APX (32 architectural registers) study.
fn fig23_24(session: &SweepSession<'_>, _: &[Suite]) -> Result<String, CellFailure> {
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
    let modes = ["PC-rel", "Stack", "Reg"].map(|m| [format!("{m} base"), format!("{m} APX")]);
    let mut mode_rows = Table::new(once("workload".to_string()).chain(modes.into_iter().flatten()));
    // Per workload: load reduction (%), stable fraction base/APX, then
    // the stack- and PC-relative shares base/APX.
    let mut samples: Vec<[f64; 7]> = Vec::new();
    let base_reports = session.reports();
    let apx_reports = session.reports_apx();
    for ((spec, rb), ra) in session.specs().iter().zip(&base_reports).zip(&apx_reports) {
        let red = 1.0 - ra.loads_per_kinst() / rb.loads_per_kinst().max(1e-9);
        let (mb, ma) = (rb.mode_fracs(), ra.mode_fracs());
        let (fb, fa) = (rb.stable_dynamic_frac(), ra.stable_dynamic_frac());
        samples.push([red * 100.0, fb, fa, mb[1], ma[1], mb[0], ma[0]]);
        t.row([
            spec.name.clone(),
            format!("{:.1}", rb.loads_per_kinst()),
            format!("{:.1}", ra.loads_per_kinst()),
            format!("{:.1}%", red * 100.0),
            pct(fb),
            pct(fa),
        ]);
        let shares = (0..3).flat_map(|m| [pct(mb[m]), pct(ma[m])]);
        mode_rows.row(once(spec.name.clone()).chain(shares));
    }
    let [red, fb, fa, stack_b, stack_a, pc_b, pc_a] = column_means(&samples);
    text.push_str(&t.render());
    text.push_str(&format!(
        "\nAVG: load reduction {red:.1}% | stable frac base {} vs APX {}\n",
        pct(fb),
        pct(fa),
    ));
    text.push_str("\nFig 24: global-stable addressing-mode distribution without/with APX\n");
    text.push_str(&mode_rows.render());
    text.push_str(&format!(
        "\nAVG: stack-relative {} -> {} | PC-relative {} -> {}\n",
        pct(stack_b),
        pct(stack_a),
        pct(pc_b),
        pct(pc_a),
    ));
    Ok(text)
}

/// Table 1: storage overhead.
fn table1(_: &SweepSession<'_>, _: &[Suite]) -> Result<String, CellFailure> {
    let cfg = constable::ConstableConfig::paper();
    let s = constable::StorageBreakdown::for_config(&cfg);
    let mut t = Table::new(["structure", "size"]);
    t.row(["SLD (512 entries, 32x16)", &format!("{:.1} KB", s.sld_kb())]);
    t.row(["RMT (2x16 + 14x8 PCs)", &format!("{:.1} KB", s.rmt_kb())]);
    t.row(["AMT (256 entries, 32x8)", &format!("{:.1} KB", s.amt_kb())]);
    t.row(["Total", &format!("{:.1} KB", s.total_kb())]);
    Ok(format!(
        "Table 1: Constable storage overhead\n{}",
        t.render()
    ))
}

/// Table 3: access energy / leakage / area of Constable's structures.
fn table3(_: &SweepSession<'_>, _: &[Suite]) -> Result<String, CellFailure> {
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
    Ok(format!(
        "Table 3: Constable structure estimates (published | analytic cross-check)\n{}",
        t.render()
    ))
}

/// §6.6: AMT granularity ablation (cacheline vs full address).
fn amt_granularity(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    let labels = ["Constable (cacheline AMT)", "Constable (full-address AMT)"];
    let rows = labels
        .iter()
        .map(|l| l.to_string())
        .zip(suites[1..].iter().map(|s| s.runs.as_slice()));
    Ok(speedup_table(
        "AMT granularity ablation (paper: 0.4% apart)",
        &suites[0].runs,
        rows,
        &[],
    ))
}

/// §6.3: xPRF occupancy — how often elimination is forgone for lack of a
/// free xPRF register.
fn xprf(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    let rows: Vec<(String, f64)> = suites[0]
        .runs
        .iter()
        .take(10)
        .map(|r| {
            let s = &r.result.stats.constable;
            let frac = ratio(s.xprf_full_forgone, s.eliminated + s.xprf_full_forgone);
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
fn verify(_: &SweepSession<'_>, suites: &[Suite]) -> Result<String, CellFailure> {
    // The registry already quarantined any mismatching cell, so reaching
    // this body implies zero mismatches.
    let mut text = String::from("Golden functional verification (every load checked at retire)\n");
    for s in suites {
        let mismatches: u64 = s
            .runs
            .iter()
            .map(|r| r.result.stats.golden_mismatches)
            .sum();
        let loads: u64 = s.runs.iter().map(|r| r.result.stats.retired_loads).sum();
        let mut digest = sim_core::TraceDigest::new();
        digest.update_all(s.runs.iter().map(|r| r.result.stats_digest()));
        text.push_str(&format!(
            "{:<32} {} traces, {} loads checked, {} mismatches, suite digest {:#018x}\n",
            s.kind.label(),
            s.runs.len(),
            loads,
            mismatches,
            digest.finish()
        ));
    }
    text.push_str("PASS: zero mismatches everywhere\n");
    Ok(text)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
