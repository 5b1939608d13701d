//! Shared job-list machinery: figures and sweeps as flat cell lists.
//!
//! The sweep engine ([`crate::sweep`]) executes whole figures in-process;
//! the job server (`sweep-server`) executes the *same cells* one at a time
//! on supervised worker shards. This module is the vocabulary both sides
//! share: a [`CellSpec`] names one (workload, machine) cell the way the
//! `cell` subcommand and the quarantine repro lines do, [`figure_kinds`]
//! expands a figure id into the machine suites it sweeps, and a
//! [`JobContext`] executes a single cell with a caller-provided scratch
//! through the sweep's own cell runner — memoizing program builds and
//! load-inspector analyses exactly like a [`crate::SweepSession`], but
//! leaving scheduling (queues, shards, deadlines, retries) entirely to the
//! caller.
//!
//! Cell identity is the **stable store key** ([`crate::persist::store_key`])
//! — the same key the persistent result store files the cell under — so a
//! server can dedupe in-flight work and answer repeats from the store with
//! no key-translation layer.

use crate::ckpt::Checkpointer;
use crate::configs::MachineKind;
use crate::fault::{CellFailure, CellOutcome};
use crate::persist;
use crate::runner::RunLength;
use constable::IdealOracle;
use load_inspector::LoadReport;
use result_store::StoreKey;
use sim_core::{CoreConfig, SimScratch};
use sim_workload::{Program, WorkloadSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One (workload, machine) cell. `workload` is a suite workload name, or
/// two names joined with `+` for an SMT2 pairing — the same vocabulary as
/// `experiments -- cell` and the quarantine repro lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    pub workload: String,
    pub kind: MachineKind,
}

impl CellSpec {
    pub fn new(workload: impl Into<String>, kind: MachineKind) -> Self {
        CellSpec {
            workload: workload.into(),
            kind,
        }
    }
}

impl std::fmt::Display for CellSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on {}", self.workload, self.kind.slug())
    }
}

/// The machine suites a figure id sweeps, for figures whose work *is* a
/// plain (workload × machine) matrix. Figures built from instrumented or
/// parameter-swept runs (fig6, fig17, fig20a/b, amt-granularity, xprf, the
/// static tables) are not cell-mappable and return `None`.
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
            MachineKind::ConstableOnly(sim_isa::AddrMode::PcRelative),
            MachineKind::ConstableOnly(sim_isa::AddrMode::StackRelative),
            MachineKind::ConstableOnly(sim_isa::AddrMode::RegRelative),
        ],
        "fig18" | "fig19" | "fig23" | "fig24" => &[Baseline, Constable],
        "fig21" => &[Baseline, Elar, Rfp, Constable, ElarConstable, RfpConstable],
        "fig22" => &[Baseline, Constable, ConstableAmtI],
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

/// Expands a figure id into its flat cell list over `specs` (every
/// workload × every machine kind of the figure), or `None` for ids
/// [`figure_kinds`] cannot map.
pub fn figure_cells(id: &str, specs: &[WorkloadSpec]) -> Option<Vec<CellSpec>> {
    let kinds = figure_kinds(id)?;
    Some(
        kinds
            .iter()
            .flat_map(|&kind| {
                specs
                    .iter()
                    .map(move |s| CellSpec::new(s.name.clone(), kind))
            })
            .collect(),
    )
}

/// The full (workload × machine) matrix over `specs`: every kind in
/// [`MachineKind::ALL`] — the soak surface of the job server.
pub fn sweep_cells(specs: &[WorkloadSpec]) -> Vec<CellSpec> {
    MachineKind::ALL
        .iter()
        .flat_map(|&kind| {
            specs
                .iter()
                .map(move |s| CellSpec::new(s.name.clone(), kind))
        })
        .collect()
}

/// Per-cell execution context: the workload suite, the run length, and
/// memoized program builds + load-inspector reports (shared `Arc`s, like a
/// [`crate::SweepSession`]). Thread-safe; the caller owns all scheduling.
pub struct JobContext {
    specs: Vec<WorkloadSpec>,
    n: RunLength,
    programs: Mutex<HashMap<usize, Arc<Program>>>,
    reports: Mutex<HashMap<usize, Arc<LoadReport>>>,
}

impl JobContext {
    pub fn new(specs: Vec<WorkloadSpec>, n: RunLength) -> Self {
        JobContext {
            specs,
            n,
            programs: Mutex::new(HashMap::new()),
            reports: Mutex::new(HashMap::new()),
        }
    }

    pub fn specs(&self) -> &[WorkloadSpec] {
        &self.specs
    }

    pub fn run_length(&self) -> RunLength {
        self.n
    }

    /// Resolves a cell's workload name (`"a"` or `"a+b"`) to suite indices.
    /// `None` if any name is unknown or the shape is unusable (0 or 3+
    /// threads).
    pub fn resolve(&self, workload: &str) -> Option<Vec<usize>> {
        let idx: Option<Vec<usize>> = workload
            .split('+')
            .map(|name| self.specs.iter().position(|s| s.name == name))
            .collect();
        let idx = idx?;
        (1..=2).contains(&idx.len()).then_some(idx)
    }

    fn program(&self, i: usize) -> Arc<Program> {
        if let Some(p) = self.programs.lock().expect("programs lock").get(&i) {
            return Arc::clone(p);
        }
        let built = self.specs[i].build_arc();
        Arc::clone(
            self.programs
                .lock()
                .expect("programs lock")
                .entry(i)
                .or_insert(built),
        )
    }

    fn report(&self, i: usize) -> Arc<LoadReport> {
        if let Some(r) = self.reports.lock().expect("reports lock").get(&i) {
            return Arc::clone(r);
        }
        let p = self.program(i);
        let built = Arc::new(load_inspector::analyze(&p, self.n.0));
        Arc::clone(
            self.reports
                .lock()
                .expect("reports lock")
                .entry(i)
                .or_insert(built),
        )
    }

    /// The *logical* machine config of a cell (oracle attached when the
    /// kind needs one) — the config the fingerprint, store key, and memo
    /// all describe, before watchdog/deadline instrumentation.
    fn config_for(&self, cell: &CellSpec, indices: &[usize]) -> CoreConfig {
        let oracle = if cell.kind.needs_oracle() {
            let report = self.report(indices[0]);
            IdealOracle::new(report.stable_pcs.iter().copied())
        } else {
            IdealOracle::default()
        };
        cell.kind.config(oracle)
    }

    /// The stable store key of a cell — the dedup identity the server and
    /// the persistent store share. `None` for unresolvable workloads.
    pub fn store_key_for(&self, cell: &CellSpec) -> Option<StoreKey> {
        let indices = self.resolve(&cell.workload)?;
        let cfg = self.config_for(cell, &indices);
        let specs: Vec<&WorkloadSpec> = indices.iter().map(|&i| &self.specs[i]).collect();
        Some(persist::store_key(&specs, &cfg, self.n))
    }

    /// Runs one cell to completion on the caller's scratch, under the
    /// standard [`crate::WATCHDOG_BUDGET`] and an optional wall-clock
    /// `deadline` (an expired deadline aborts the run cleanly with failure
    /// kind `"deadline"`). Panics propagate to the caller — a supervised worker
    /// shard treats an escaping panic as its restart signal.
    pub fn run_cell(
        &self,
        cell: &CellSpec,
        scratch: &mut SimScratch,
        deadline: Option<Instant>,
    ) -> CellOutcome {
        self.run_cell_checkpointed(cell, scratch, deadline, None).0
    }

    /// [`run_cell`](JobContext::run_cell) with an optional mid-run
    /// checkpoint channel: when `ckpt` is given, the run resumes from the
    /// newest verified checkpoint for the cell's key (if any), snapshots
    /// at every interval boundary, and — on a deadline abort — leaves the
    /// latest snapshot in place so the *next* request for the cell resumes
    /// instead of recomputing. Returns the outcome and whether the run
    /// resumed from a checkpoint. Bit-identical to the direct path.
    pub fn run_cell_checkpointed(
        &self,
        cell: &CellSpec,
        scratch: &mut SimScratch,
        deadline: Option<Instant>,
        ckpt: Option<&Checkpointer>,
    ) -> (CellOutcome, bool) {
        let Some(indices) = self.resolve(&cell.workload) else {
            return (
                Err(CellFailure::from_panic(
                    &cell.workload,
                    0,
                    self.n,
                    format!("unknown workload {:?}", cell.workload),
                    false,
                )),
                false,
            );
        };
        let cfg = self.config_for(cell, &indices);
        let fp = cfg.fingerprint();
        let built: Vec<Arc<Program>> = indices.iter().map(|&i| self.program(i)).collect();
        let programs: Vec<&Program> = built.iter().map(Arc::as_ref).collect();
        let category = self.specs[indices[0]].category;
        crate::sweep::run_cell(
            &programs,
            &cell.workload,
            category,
            cfg,
            self.n,
            fp,
            None,
            ckpt,
            deadline,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ctx() -> JobContext {
        JobContext::new(sim_workload::suite_subset(2), RunLength(4_000))
    }

    #[test]
    fn figure_cells_cover_every_kind_and_workload() {
        let specs = sim_workload::suite_subset(3);
        let cells = figure_cells("fig11", &specs).expect("fig11 maps");
        assert_eq!(cells.len(), 5 * 3);
        assert!(cells
            .iter()
            .any(|c| c.kind == MachineKind::EvesIdealConstable));
        assert!(
            figure_cells("fig6", &specs).is_none(),
            "fig6 is not a matrix"
        );
        assert!(figure_cells("nope", &specs).is_none());
        let all = sweep_cells(&specs);
        assert_eq!(all.len(), MachineKind::ALL.len() * 3);
    }

    #[test]
    fn run_cell_matches_the_sweep_session() {
        let ctx = ctx();
        let specs = sim_workload::suite_subset(2);
        let session = crate::SweepSession::new(&specs, RunLength(4_000));
        let via_session = session.suite(MachineKind::Constable).expect("clean suite");
        let mut scratch = SimScratch::new();
        for (i, expect) in via_session.iter().enumerate() {
            let cell = CellSpec::new(specs[i].name.clone(), MachineKind::Constable);
            let got = ctx.run_cell(&cell, &mut scratch, None).expect("clean cell");
            assert_eq!(got.workload, expect.workload);
            assert_eq!(
                got.result.stats_digest(),
                expect.result.stats_digest(),
                "jobs path diverged from the sweep engine on {}",
                got.workload
            );
        }
    }

    #[test]
    fn store_keys_match_the_persist_path() {
        let ctx = ctx();
        let cell = CellSpec::new(ctx.specs()[0].name.clone(), MachineKind::Baseline);
        let key = ctx.store_key_for(&cell).expect("resolvable");
        let cfg = MachineKind::Baseline.config(IdealOracle::default());
        let expect = persist::store_key(&[&ctx.specs()[0]], &cfg, ctx.run_length());
        assert_eq!(key.hash(), expect.hash());
        assert_eq!(key.bytes(), expect.bytes());
        assert!(ctx
            .store_key_for(&CellSpec::new("no-such-workload", MachineKind::Baseline))
            .is_none());
    }

    #[test]
    fn expired_deadline_fails_the_cell_as_deadline_not_watchdog() {
        let ctx = ctx();
        let cell = CellSpec::new(ctx.specs()[0].name.clone(), MachineKind::Baseline);
        let mut scratch = SimScratch::new();
        let err = ctx
            .run_cell(&cell, &mut scratch, Some(Instant::now()))
            .expect_err("an already-expired deadline must fail the cell");
        assert_eq!(err.kind, "deadline");
        // The scratch came back usable: the same cell now runs clean.
        let ok = ctx.run_cell(
            &cell,
            &mut scratch,
            Some(Instant::now() + Duration::from_secs(3600)),
        );
        assert!(ok.is_ok(), "generous deadline must be invisible");
    }

    #[test]
    fn smt2_pair_cells_resolve_and_run() {
        let ctx = ctx();
        let pair = format!("{}+{}", ctx.specs()[0].name, ctx.specs()[1].name);
        assert_eq!(ctx.resolve(&pair).unwrap().len(), 2);
        let cell = CellSpec::new(pair, MachineKind::Baseline);
        assert!(ctx.store_key_for(&cell).is_some());
        let mut scratch = SimScratch::new();
        let out = ctx.run_cell(&cell, &mut scratch, None).expect("clean pair");
        assert_eq!(out.result.retired_per_thread.len(), 2);
    }
}
