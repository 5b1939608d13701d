// `CellFailure` is a cold quarantine record, constructed at most once per
// failing cell and carrying its forensics by value; boxing the Err variant
// would complicate every signature to optimize a path that never runs hot.
#![allow(clippy::result_large_err)]

//! # experiments — the paper's evaluation, regenerated
//!
//! Every table and figure of *Constable* (ISCA 2024) is one entry of the
//! figure registry (`figures.rs`): its id, the single-thread machine
//! suites it runs, and the body that renders the paper's rows and series
//! from them. [`FIGURES`], [`figure_kinds`] and [`try_run_figure`] are
//! views of that registry, and the `experiments` binary dispatches on a
//! figure id:
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
//! Figures draw every simulation from one [`SweepSession`] ([`sweep`]): a
//! per-invocation cache of program builds, `load_inspector` reports, and
//! verified [`RunOutcome`]s keyed by each cell's stable store key
//! ([`store_key`], the key the on-disk result store uses too), run on one
//! work-stealing pool. The registry submits a figure's declared suites as
//! one flat job list, so the suites a figure declares are the suites it
//! runs, and several figures in one invocation (`all`, or `fig11 fig12`)
//! simulate the Baseline suite once and share every repeated machine:
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
//! asserted by `tests/sweep.rs`, which also holds every figure's text to
//! the committed `tests/golden/figures.txt`, and measured by
//! `cargo bench -p bench --bench sweep`.

pub mod configs;
pub mod fault;
mod figures;
pub mod persist;
pub mod runner;
pub mod sweep;

pub use configs::MachineKind;
pub use fault::{CellFailure, CellOutcome};
pub use persist::{decode_outcome, encode_outcome, store_key, PAYLOAD_VERSION};
pub use runner::{RunLength, RunOutcome, WATCHDOG_BUDGET};
pub use sweep::{MkOracleConfig, SweepPool, SweepSession};

/// Every figure id the harness understands, in the order `all` renders
/// them: the ids of the figure registry.
pub const FIGURES: &[&str] = &figure_ids::<{ figures::REGISTRY.len() }>();

const fn figure_ids<const N: usize>() -> [&'static str; N] {
    let mut ids = [""; N];
    let mut i = 0;
    while i < N {
        ids[i] = figures::REGISTRY[i].id;
        i += 1;
    }
    ids
}

fn figure(id: &str) -> Option<&'static figures::Figure> {
    figures::REGISTRY.iter().find(|f| f.id == id)
}

/// The single-thread machine suites figure `id` declares, in the order it
/// submits them. `None` for an unknown id and for a figure that declares
/// no plain suite: one that runs only custom-config cells (fig6, fig17),
/// SMT2 pairs (fig14) or load analyses (fig3, fig23, fig24), or no cells
/// at all (the tables). fig20a and fig20b declare the Baseline suite their
/// sensitivity grids are measured against.
pub fn figure_kinds(id: &str) -> Option<&'static [MachineKind]> {
    figure(id).map(|f| f.kinds).filter(|k| !k.is_empty())
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
    figure(id)
        .unwrap_or_else(|| panic!("unknown figure id {id:?}; known: {FIGURES:?}"))
        .run(session)
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
        use MachineKind::*;
        // Every figure id maps to the plain suites it runs, except these,
        // which run none.
        let unmapped = [
            "fig3", "fig6", "fig14", "fig17", "fig23", "fig24", "table1", "table3",
        ];
        for (i, id) in FIGURES.iter().enumerate() {
            assert!(!FIGURES[..i].contains(id), "{id} is registered twice");
            let kinds = figure_kinds(id);
            assert_eq!(kinds.is_none(), unmapped.contains(id), "{id}");
            assert!(kinds.is_none_or(|k| !k.is_empty()), "{id}");
        }
        let has = |id, kind| figure_kinds(id).is_some_and(|k| k.contains(&kind));
        assert_eq!(figure_kinds("fig11").map(<[_]>::len), Some(5));
        assert!(has("fig11", EvesIdealConstable));
        assert!(has("fig15", Elar) && has("fig15", Rfp));
        assert_eq!(figure_kinds("fig21"), Some(&[Baseline, Constable][..]));
        assert!(!has("fig16", Baseline) && has("fig19", EvesConstable));
        assert_eq!(figure_kinds("fig20a"), Some(&[Baseline][..]));
        assert_eq!(figure_kinds("xprf"), Some(&[Constable][..]));
        assert!(has("amt-granularity", ConstableFullAddrAmt));
        assert!(figure_kinds("nope").is_none());
    }
}
