// `CellFailure` is a cold quarantine record, constructed at most once per
// failing cell and carrying its forensics by value; boxing the Err variant
// would complicate every signature to optimize a path that never runs hot.
#![allow(clippy::result_large_err)]

//! # experiments — the paper's evaluation, regenerated
//!
//! One runner per table/figure of *Constable* (ISCA 2024). Each function in
//! [`figures`] prints the same rows/series the paper reports; the
//! `experiments` binary dispatches on a figure id:
//!
//! ```text
//! cargo run --release -p experiments -- fig11          # full suite
//! cargo run --release -p experiments -- fig11 --quick  # reduced run length
//! cargo run --release -p experiments -- all            # everything
//! ```
//!
//! Every simulation in the harness asserts the §8.5 golden functional check
//! (zero mismatches) — an incorrect run can never feed a figure.
//!
//! ## The sweep engine
//!
//! All figure runners draw their simulations from one [`SweepSession`]
//! ([`sweep`]): a per-invocation cache of `Arc<Program>` builds,
//! `load_inspector` reports, and completed [`RunOutcome`]s keyed by each
//! cell's stable store key ([`store_key`], the same key the on-disk result
//! store uses), executed on a persistent
//! work-stealing pool that takes each figure's whole (workload × config)
//! matrix as a single flat job list. Running several figures in one
//! invocation (`all`, or `fig11 fig12 fig13`) therefore simulates the
//! Baseline suite exactly once and shares every repeated configuration:
//!
//! ```no_run
//! use experiments::{run_figure, RunLength, SweepSession};
//!
//! let specs = sim_workload::suite_subset(4);
//! let session = SweepSession::new(&specs, RunLength::quick());
//! let f11 = run_figure("fig11", &session); // runs Baseline + 4 machines
//! let f12 = run_figure("fig12", &session); // reuses Baseline/EVES/… runs
//! # let _ = (f11, f12);
//! ```
//!
//! Every cell — single-thread or SMT2, memoized or not — runs through one
//! function on the session's one pool, and every counter a figure reads
//! (the Constable engine's included) comes back in the cell's verified
//! result. [`SweepSession::uncached`] runs the same cells with no memo, no
//! dedupe and no store; both modes emit byte-identical figure text —
//! asserted by `tests/sweep.rs` and measured by
//! `cargo bench -p bench --bench sweep`.

pub mod configs;
pub mod fault;
pub mod figures;
pub mod persist;
pub mod runner;
pub mod sweep;

pub use configs::MachineKind;
pub use fault::{CellFailure, CellOutcome};
pub use persist::{decode_outcome, encode_outcome, store_key, PAYLOAD_VERSION};
pub use runner::{RunLength, RunOutcome, WATCHDOG_BUDGET};
pub use sweep::{MkOracleConfig, MkPairConfig, SweepPool, SweepSession};

/// The figure ids the harness understands, with their runners.
pub const FIGURES: &[&str] = &[
    "fig3",
    "fig6",
    "fig7",
    "fig9a",
    "fig9b",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20a",
    "fig20b",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "table1",
    "table3",
    "amt-granularity",
    "xprf",
    "verify",
];

/// The machine suites a figure id sweeps, for figures whose work *is* a
/// plain (workload × machine) matrix. Figures built from custom-config or
/// parameter-swept runs (fig6, fig17, fig20a/b) and the pure-analysis and
/// static ones (fig3, the tables) return `None`.
pub fn figure_kinds(id: &str) -> Option<&'static [MachineKind]> {
    use MachineKind::*;
    Some(match id {
        "fig7" => &[
            Baseline,
            IdealStableLvp,
            IdealStableLvpNoFetch,
            DoubleLoadWidth,
            IdealConstable,
        ],
        "fig9a" => &[Constable],
        "fig9b" => &[Constable, ConstableCorrectPathOnly],
        "fig11" | "fig14" | "fig15" | "fig16" => {
            &[Baseline, Eves, Constable, EvesConstable, EvesIdealConstable]
        }
        "fig12" => &[Baseline, Eves, Constable, EvesConstable],
        "fig13" => &[
            Baseline,
            Constable,
            ConstableOnly(sim_isa::AddrMode::PcRelative),
            ConstableOnly(sim_isa::AddrMode::StackRelative),
            ConstableOnly(sim_isa::AddrMode::RegRelative),
        ],
        "fig18" | "fig19" | "fig23" | "fig24" => &[Baseline, Constable],
        "fig21" => &[Baseline, Elar, Rfp, Constable, ElarConstable, RfpConstable],
        "fig22" => &[Baseline, Constable, ConstableAmtI],
        "amt-granularity" => &[Baseline, Constable, ConstableFullAddrAmt],
        "xprf" => &[Constable],
        "verify" => &[
            Baseline,
            Constable,
            EvesConstable,
            ConstableAmtI,
            ConstableFullAddrAmt,
        ],
        _ => return None,
    })
}

/// Runs the figure named `id` against `session` and returns its report, or
/// the first quarantined cell that kept it from completing (every other
/// cell of the figure still ran; see [`SweepSession::failures`] for the
/// full quarantine list). Figures run in the same session share programs,
/// analyses, and memoized simulation outcomes.
///
/// # Panics
/// Panics on an unknown id (the binary validates first).
pub fn try_run_figure(id: &str, session: &SweepSession<'_>) -> Result<String, CellFailure> {
    match id {
        "fig3" => figures::fig3(session),
        "fig6" => figures::fig6(session),
        "fig7" => figures::fig7(session),
        "fig9a" => figures::fig9a(session),
        "fig9b" => figures::fig9b(session),
        "fig11" => figures::fig11(session),
        "fig12" => figures::fig12(session),
        "fig13" => figures::fig13(session),
        "fig14" => figures::fig14(session),
        "fig15" => figures::fig15(session),
        "fig16" => figures::fig16(session),
        "fig17" => figures::fig17(session),
        "fig18" => figures::fig18(session),
        "fig19" => figures::fig19(session),
        "fig20a" => figures::fig20a(session),
        "fig20b" => figures::fig20b(session),
        "fig21" => figures::fig21(session),
        "fig22" => figures::fig22(session),
        "fig23" | "fig24" => figures::fig23_24(session),
        "table1" => Ok(figures::table1()),
        "table3" => Ok(figures::table3()),
        "amt-granularity" => figures::amt_granularity(session),
        "xprf" => figures::xprf(session),
        "verify" => figures::verify(session),
        other => panic!("unknown figure id {other:?}; known: {FIGURES:?}"),
    }
}

/// [`try_run_figure`] for callers that treat a quarantined cell as fatal
/// (benchmarks, equivalence tests).
///
/// # Panics
/// Panics on an unknown id or any quarantined cell.
pub fn run_figure(id: &str, session: &SweepSession<'_>) -> String {
    try_run_figure(id, session).unwrap_or_else(|f| panic!("figure {id}: {f}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_kinds_maps_only_figure_ids() {
        // Every figure id maps to a non-empty machine list except these.
        let unmapped = [
            "fig3", "fig6", "fig17", "fig20a", "fig20b", "table1", "table3",
        ];
        for id in FIGURES {
            let kinds = figure_kinds(id);
            assert_eq!(kinds.is_none(), unmapped.contains(id), "{id}");
            assert!(kinds.is_none_or(|k| !k.is_empty()), "{id}");
        }
        let fig11 = figure_kinds("fig11").expect("fig11 maps");
        assert_eq!(fig11.len(), 5);
        assert!(fig11.contains(&MachineKind::EvesIdealConstable));
        assert_eq!(figure_kinds("xprf"), Some(&[MachineKind::Constable][..]));
        let amt = figure_kinds("amt-granularity").expect("amt-granularity maps");
        assert!(amt.contains(&MachineKind::ConstableFullAddrAmt));
        assert!(figure_kinds("nope").is_none());
    }
}
