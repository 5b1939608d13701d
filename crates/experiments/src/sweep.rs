//! # Sweep engine — cross-figure memoization + a persistent flat job pool
//!
//! Regenerating the paper's figures is dominated by *redundant
//! orchestration*, not simulation: every figure re-runs the full Baseline
//! suite, rebuilds each workload's program once per (figure × config), and
//! re-runs `load_inspector::analyze` from scratch. A [`SweepSession`]
//! eliminates that ineffectual work for one CLI invocation:
//!
//! * **Program cache** — each [`WorkloadSpec`] is assembled exactly once
//!   into a shared [`Arc<Program>`]; every simulation and analysis borrows
//!   the same build. APX builds, read only by the Fig 23/24 reports, are
//!   made inside their report's job and dropped with it.
//! * **Report cache** — `load_inspector::analyze` runs once per
//!   (workload, run-length); Fig 3, Fig 17, Fig 23/24, and every
//!   oracle-carrying configuration reuse the same [`LoadReport`].
//! * **Run memo** — completed [`RunOutcome`]s are keyed by
//!   `(workload per thread slot, CoreConfig::fingerprint)`, single-thread
//!   and SMT2 cells alike. The Baseline suite is simulated exactly once no
//!   matter how many figures ask for it; `--all` shares Constable/EVES
//!   runs across fig11/fig12/fig13/… the same way.
//! * **One cell runner** — every missing cell (single-thread or SMT2,
//!   plain or checkpointed, chaos-faulted or not) runs through
//!   [`run_cell`].
//! * **Persistent pool** — one set of worker threads (each owning a
//!   [`SimScratch`]) lives for the whole session. A figure's entire
//!   (workload × config) matrix is submitted as a single flat job list, so
//!   workers cross config boundaries without ever hitting a barrier, and
//!   scratch allocations reach steady state across the whole sweep.
//!
//! [`SweepSession::uncached`] builds a session that bypasses every cache
//! and calls the direct [`runner::run_suite`] path instead — the reference
//! the equivalence tests (and the `bench/sweep` harness) compare against:
//! memoized output must be byte-identical.

use crate::chaos::{ChaosFault, ChaosPlan};
use crate::ckpt::{self, Checkpointer, SharedStore};
use crate::configs::MachineKind;
use crate::fault::{CellFailure, CellOutcome};
use crate::persist;
use crate::runner::{self, RunLength, RunOutcome, WATCHDOG_BUDGET};
use constable::IdealOracle;
use load_inspector::LoadReport;
use result_store::{GetOutcome, ResultStore, StoreDefectKind, StoreStats};
use sim_core::{Core, CoreConfig, SimScratch};
use sim_workload::{Category, Program, WorkloadSpec};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A unit of pool work: runs on whichever worker steals it first, with that
/// worker's long-lived scratch.
type Job = Box<dyn FnOnce(&mut SimScratch) + Send + 'static>;

/// A batch job producing a `T` (boxed so heterogeneous figures can share
/// the pool).
pub type BatchJob<T> = Box<dyn FnOnce(&mut SimScratch) -> T + Send>;

/// A grid column for [`SweepSession::suite_grid`]: builds one machine per
/// workload, receiving the workload's cached ideal oracle.
pub type MkOracleConfig<'a> = dyn Fn(&WorkloadSpec, IdealOracle) -> CoreConfig + Sync + 'a;

/// A grid column for [`SweepSession::suite_smt2_grid`]: builds one machine
/// per SMT2 pair (keyed by the pair's first workload).
pub type MkPairConfig<'a> = dyn Fn(&WorkloadSpec) -> CoreConfig + Sync + 'a;

/// A sweep cell: the suite index of the workload in each hardware-thread
/// slot (two for an SMT2 pair) and the logical machine config.
type Cell = (Vec<usize>, CoreConfig);

/// A cell's memo identity: its thread-slot workload indices and config
/// fingerprint.
type CellKey = (Vec<usize>, u64);

/// Persistent work-stealing pool: one worker per host core, each owning a
/// [`SimScratch`] that is threaded through every job it executes. Jobs are
/// pulled from a single shared queue, so a flat multi-config job list keeps
/// every core busy across config boundaries (no per-suite barrier).
pub struct SweepPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl SweepPool {
    /// Spawns one worker per available host core.
    pub fn new() -> Self {
        let nworkers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..nworkers)
            .map(|_| {
                let rx: Arc<Mutex<Receiver<Job>>> = Arc::clone(&rx);
                std::thread::spawn(move || {
                    // One scratch per worker for the whole session.
                    let mut scratch = SimScratch::new();
                    loop {
                        // Hold the lock only to steal, never while working.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        let Ok(job) = job else { break };
                        // Keep the worker alive if a job asserts (e.g. a
                        // golden-check failure): the batch collector turns
                        // the missing result into a panic on the caller's
                        // thread, where the message is actually visible.
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            job(&mut scratch)
                        }));
                        if r.is_err() {
                            scratch = SimScratch::new();
                        }
                    }
                })
            })
            .collect();
        SweepPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Runs `jobs` across the pool and returns their results in submission
    /// order. Blocks until the whole batch is done.
    ///
    /// # Panics
    /// Panics if any job panicked on its worker (with that job's panic
    /// payload). Sweep-cell work goes through
    /// [`run_batch_guarded`](SweepPool::run_batch_guarded) instead, which
    /// quarantines the panic.
    pub fn run_batch<T: Send + 'static>(&self, jobs: Vec<BatchJob<T>>) -> Vec<T> {
        self.run_batch_guarded(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("sweep job panicked on its worker: {p}")))
            .collect()
    }

    /// [`run_batch`](SweepPool::run_batch) with a per-job panic boundary:
    /// a job that panics yields `Err(payload)` in its slot while every
    /// other job of the batch still completes. The panicking worker's
    /// scratch is discarded (a partially-built core may have left it in an
    /// arbitrary state) and replaced with a fresh one, then the worker goes
    /// back to stealing jobs.
    pub fn run_batch_guarded<T: Send + 'static>(
        &self,
        jobs: Vec<BatchJob<T>>,
    ) -> Vec<Result<T, String>> {
        let total = jobs.len();
        let (rtx, rrx) = mpsc::channel::<(usize, Result<T, String>)>();
        let tx = self.tx.as_ref().expect("pool is live until dropped");
        for (i, job) in jobs.into_iter().enumerate() {
            let rtx = rtx.clone();
            tx.send(Box::new(move |scratch: &mut SimScratch| {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(scratch)))
                    .map_err(|payload| {
                        // Poisoned-scratch disposal: the job died mid-build
                        // or mid-run, so nothing in the scratch is trusted.
                        *scratch = SimScratch::new();
                        panic_message(payload)
                    });
                let _ = rtx.send((i, out));
            }))
            .expect("workers outlive the session");
        }
        drop(rtx);
        let mut slots: Vec<Option<Result<T, String>>> = (0..total).map(|_| None).collect();
        for _ in 0..total {
            let (i, out) = rrx.recv().expect("guarded jobs always report");
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job reports exactly once"))
            .collect()
    }
}

/// Renders a caught panic payload (the `&str`/`String` cases cover every
/// `panic!`/`assert!` in the harness).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Default for SweepPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SweepPool {
    fn drop(&mut self) {
        // Closing the queue ends the worker loops.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Memoization state + pool of a cached session.
struct SweepCache {
    pool: SweepPool,
    /// Workload index → shared (plain) program build. APX builds are
    /// never cached: they exist only inside their report's job.
    programs: Mutex<HashMap<usize, Arc<Program>>>,
    /// `(workload index, apx, run length)` → load-inspector report.
    reports: Mutex<HashMap<(usize, bool, u64), Arc<LoadReport>>>,
    /// `(thread-slot workload indices, config fingerprint)` → completed or
    /// quarantined run, single-thread and SMT2 alike. Failures memoize
    /// too: a cell that died once is reported once, not retried by every
    /// later figure that asks for it.
    outcomes: Mutex<HashMap<CellKey, CellOutcome>>,
}

/// One figure-sweep invocation: the workload suite, the run length, and —
/// unless built [`uncached`](SweepSession::uncached) — the caches and the
/// persistent pool shared by every figure of the invocation.
pub struct SweepSession<'s> {
    specs: &'s [WorkloadSpec],
    n: RunLength,
    cache: Option<SweepCache>,
    /// Deterministic fault injection schedule (chaos mode), if enabled.
    chaos: Option<ChaosPlan>,
    /// Persistent on-disk result store, if attached: memoizable cells are
    /// answered from disk (after checksum + digest verification) before
    /// any pool time is spent, and freshly computed clean cells are
    /// written back. Store damage quarantines and recomputes — it never
    /// fails a figure. Shared (`Arc`) so per-cell [`Checkpointer`]s on the
    /// pool can reach the same handle.
    store: SharedStore,
    /// Mid-run checkpoint interval (core loop iterations per slice), if
    /// this session checkpoints long cells. Requires an attached store.
    ckpt_interval: Option<u64>,
    /// Every quarantined cell of this session, in discovery order — the
    /// source of the binary's final quarantine table.
    failures: Mutex<Vec<CellFailure>>,
}

impl<'s> SweepSession<'s> {
    /// A memoizing session with a persistent worker pool (the production
    /// configuration of the `experiments` binary).
    pub fn new(specs: &'s [WorkloadSpec], n: RunLength) -> Self {
        SweepSession {
            specs,
            n,
            cache: Some(SweepCache {
                pool: SweepPool::new(),
                programs: Mutex::new(HashMap::new()),
                reports: Mutex::new(HashMap::new()),
                outcomes: Mutex::new(HashMap::new()),
            }),
            chaos: None,
            store: Arc::new(Mutex::new(None)),
            ckpt_interval: None,
            failures: Mutex::new(Vec::new()),
        }
    }

    /// A session with every cache disabled: suites run through the direct
    /// [`runner::run_suite`] path (per-run builds, per-run analyses, scoped
    /// threads), exactly as the pre-sweep harness did. Used as the
    /// byte-identical reference in tests and benchmarks.
    pub fn uncached(specs: &'s [WorkloadSpec], n: RunLength) -> Self {
        SweepSession {
            specs,
            n,
            cache: None,
            chaos: None,
            store: Arc::new(Mutex::new(None)),
            ckpt_interval: None,
            failures: Mutex::new(Vec::new()),
        }
    }

    /// Enables deterministic chaos injection on this session's pooled
    /// cells. Cached sessions only — the uncached reference path stays a
    /// faithful replay of the pre-sweep harness.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        assert!(
            self.cache.is_some(),
            "chaos mode requires the cached (pooled) session"
        );
        self.chaos = Some(plan);
        self
    }

    /// The chaos plan, if this session injects faults.
    pub fn chaos(&self) -> Option<ChaosPlan> {
        self.chaos
    }

    /// Enables mid-run checkpointing of missing cells every `interval`
    /// core loop iterations. Only effective once a store is attached
    /// ([`with_store`](SweepSession::with_store)) — checkpoints live in
    /// the store's `checkpoints/` tier. Results stay bit-identical —
    /// slicing never changes what the model computes.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        assert!(
            self.cache.is_some(),
            "checkpointing requires the cached (pooled) session"
        );
        self.ckpt_interval = Some(interval.max(1));
        self
    }

    /// Attaches a persistent result store. Cached sessions only — the
    /// uncached reference path stays a faithful replay of the pre-sweep
    /// harness. Defects the store found while opening (a torn journal
    /// tail) land in the quarantine registry immediately.
    pub fn with_store(self, mut store: ResultStore) -> Self {
        assert!(
            self.cache.is_some(),
            "the result store requires the cached (pooled) session"
        );
        for defect in store.take_open_defects() {
            self.record_failure(&CellFailure::from_store_defect(
                &defect, "(store)", 0, self.n,
            ));
        }
        *self.store.lock().expect("store lock") = Some(store);
        self
    }

    /// The store's hit/miss/write/quarantine counters, if one is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store
            .lock()
            .expect("store lock")
            .as_ref()
            .map(ResultStore::stats)
    }

    /// Records an externally detected store failure (e.g. the store
    /// directory could not be opened) in the quarantine registry.
    pub fn record_store_failure(&self, failure: &CellFailure) {
        self.record_failure(failure);
    }

    /// Applies end-of-run store chaos (journal-tail truncation), if an
    /// I/O chaos plan scheduled it. Called by the binary after the last
    /// figure so the *next* open exercises replay recovery.
    pub fn finish_store(&self) {
        if let Some(store) = self.store.lock().expect("store lock").as_mut() {
            if let Err(e) = store.apply_close_chaos() {
                eprintln!("[store: close-time chaos injection failed: {e}]");
            }
        }
    }

    /// Tries to answer one cell from the store. A verified hit returns the
    /// decoded outcome; damage (checksum mismatch, torn record, version
    /// skew, digest disagreement) is quarantined inside the store, filed
    /// in the failure registry with forensics, and answered `None` so the
    /// cell recomputes.
    fn store_lookup(
        &self,
        store: &mut ResultStore,
        specs: &[&WorkloadSpec],
        cfg: &CoreConfig,
        fp: u64,
    ) -> Option<RunOutcome> {
        let key = persist::store_key(specs, cfg, self.n);
        let name = specs
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        match store.get(&key) {
            GetOutcome::Hit {
                payload,
                stats_digest,
            } => match persist::decode_outcome(&payload) {
                Ok(outcome) => {
                    let actual = outcome.result.stats_digest();
                    if actual == stats_digest && outcome.workload == name {
                        return Some(outcome);
                    }
                    // The payload passed its checksum but decodes to a
                    // different run (or workload) than the header promised.
                    let defect = store.quarantine(
                        &key,
                        StoreDefectKind::DigestMismatch,
                        stats_digest,
                        actual,
                    );
                    self.record_failure(&CellFailure::from_store_defect(
                        &defect, &name, fp, self.n,
                    ));
                    None
                }
                Err(persist::PayloadError::Version { found }) => {
                    let defect = store.quarantine(
                        &key,
                        StoreDefectKind::VersionSkew,
                        u64::from(persist::PAYLOAD_VERSION),
                        u64::from(found),
                    );
                    self.record_failure(&CellFailure::from_store_defect(
                        &defect, &name, fp, self.n,
                    ));
                    None
                }
                Err(persist::PayloadError::Malformed(_)) => {
                    let defect = store.quarantine(&key, StoreDefectKind::Corrupt, 0, 0);
                    self.record_failure(&CellFailure::from_store_defect(
                        &defect, &name, fp, self.n,
                    ));
                    None
                }
            },
            GetOutcome::Miss => None,
            GetOutcome::Defect(defect) => {
                self.record_failure(&CellFailure::from_store_defect(&defect, &name, fp, self.n));
                None
            }
        }
    }

    /// Writes one freshly computed, verified-clean cell back to the store.
    /// Write failures are reported but never fail the cell — the result is
    /// already in the in-process memo.
    fn store_put(
        &self,
        store: &mut ResultStore,
        specs: &[&WorkloadSpec],
        cfg: &CoreConfig,
        outcome: &RunOutcome,
    ) {
        let key = persist::store_key(specs, cfg, self.n);
        let payload = persist::encode_outcome(outcome);
        let digest = outcome.result.stats_digest();
        if let Err(e) = store.put(&key, &payload, digest) {
            eprintln!("[store: write failed for {}: {e}]", outcome.workload);
        }
    }

    /// Whether this session checkpoints missing cells mid-run: an interval
    /// is set *and* a store is attached to keep the snapshots in.
    fn checkpointing(&self) -> bool {
        self.ckpt_interval.is_some() && self.store.lock().expect("store lock").is_some()
    }

    /// Builds the per-cell checkpoint handle: the same stable store key the
    /// finished result will be filed under (logical config — before
    /// watchdog instrumentation), the shared store, and the chaos
    /// kill-boundary (if this cell drew one).
    fn checkpointer(
        &self,
        specs: &[&WorkloadSpec],
        cfg: &CoreConfig,
        name: &str,
        fp: u64,
    ) -> Checkpointer {
        let key = persist::store_key(specs, cfg, self.n);
        let interval = self.ckpt_interval.expect("checkpointing() gated");
        Checkpointer::new(Arc::clone(&self.store), key, interval)
            .with_kill_at(self.chaos.and_then(|c| c.ckpt_kill_for(name, fp)))
    }

    /// Every cell quarantined so far, in discovery order.
    pub fn failures(&self) -> Vec<CellFailure> {
        self.failures.lock().expect("failures lock").clone()
    }

    /// Records a quarantined cell, once per (workload, fingerprint).
    fn record_failure(&self, f: &CellFailure) {
        let mut reg = self.failures.lock().expect("failures lock");
        if !reg
            .iter()
            .any(|g| g.workload == f.workload && g.fingerprint == f.fingerprint)
        {
            reg.push(f.clone());
        }
    }

    /// Records every `Err` of a freshly computed cell list.
    fn record_cell_failures(&self, cells: &[CellOutcome]) {
        for cell in cells {
            if let Err(f) = cell {
                self.record_failure(f);
            }
        }
    }

    /// The workload suite this session sweeps.
    pub fn specs(&self) -> &'s [WorkloadSpec] {
        self.specs
    }

    /// Retired instructions per thread per run.
    pub fn run_length(&self) -> RunLength {
        self.n
    }

    /// Whether this session memoizes (false for the reference mode).
    pub fn is_cached(&self) -> bool {
        self.cache.is_some()
    }

    // ------------------------------------------------------------ programs

    /// The shared build of workload `i` (assembled on first use).
    pub fn program(&self, i: usize) -> Arc<Program> {
        let Some(cache) = &self.cache else {
            return self.specs[i].build_arc();
        };
        if let Some(p) = cache.programs.lock().expect("programs lock").get(&i) {
            return Arc::clone(p);
        }
        let built = self.specs[i].build_arc();
        Arc::clone(
            cache
                .programs
                .lock()
                .expect("programs lock")
                .entry(i)
                .or_insert(built),
        )
    }

    /// Builds every missing program as one flat pool batch (no-op when
    /// everything is cached already).
    fn ensure_programs(&self) {
        let Some(cache) = &self.cache else { return };
        let missing: Vec<usize> = {
            let map = cache.programs.lock().expect("programs lock");
            (0..self.specs.len())
                .filter(|&i| !map.contains_key(&i))
                .collect()
        };
        if missing.is_empty() {
            return;
        }
        let jobs: Vec<BatchJob<Arc<Program>>> = missing
            .iter()
            .map(|&i| {
                let spec = self.specs[i].clone();
                let job: BatchJob<Arc<Program>> = Box::new(move |_| spec.build_arc());
                job
            })
            .collect();
        let built = cache.pool.run_batch(jobs);
        let mut map = cache.programs.lock().expect("programs lock");
        for (&i, p) in missing.iter().zip(built) {
            map.entry(i).or_insert(p);
        }
    }

    // ------------------------------------------------------------- reports

    /// The load-inspector report of workload `i` at this session's run
    /// length (computed once, shared by every consumer).
    pub fn report(&self, i: usize) -> Arc<LoadReport> {
        self.report_inner(i, false)
    }

    /// [`SweepSession::report`] for the APX build.
    pub fn report_apx(&self, i: usize) -> Arc<LoadReport> {
        self.report_inner(i, true)
    }

    /// A job that analyses workload `i`. The plain build comes from the
    /// shared program cache; the APX build is made, analysed and dropped
    /// inside the job, because its report is the only thing that reads it.
    fn analysis_job(&self, i: usize, apx: bool) -> impl FnOnce() -> LoadReport + Send + 'static {
        let n = self.n.0;
        let plain = (!apx).then(|| self.program(i));
        let spec = self.specs[i].clone();
        move || {
            let p = plain.unwrap_or_else(|| spec.with_apx(true).build_arc());
            load_inspector::analyze(&p, n)
        }
    }

    fn report_inner(&self, i: usize, apx: bool) -> Arc<LoadReport> {
        let Some(cache) = &self.cache else {
            return Arc::new(self.analysis_job(i, apx)());
        };
        let key = (i, apx, self.n.0);
        if let Some(r) = cache.reports.lock().expect("reports lock").get(&key) {
            return Arc::clone(r);
        }
        let built = Arc::new(self.analysis_job(i, apx)());
        Arc::clone(
            cache
                .reports
                .lock()
                .expect("reports lock")
                .entry(key)
                .or_insert(built),
        )
    }

    /// All reports of the suite, computed as one flat pool batch.
    pub fn reports(&self) -> Vec<Arc<LoadReport>> {
        self.reports_inner(false)
    }

    /// All APX-build reports of the suite.
    pub fn reports_apx(&self) -> Vec<Arc<LoadReport>> {
        self.reports_inner(true)
    }

    fn reports_inner(&self, apx: bool) -> Vec<Arc<LoadReport>> {
        let Some(cache) = &self.cache else {
            // Direct path: per-call builds and analyses, scoped threads —
            // what fig3 did before the session existed.
            return runner::drive_plain(
                self.specs.len(),
                |i| Arc::new(self.analysis_job(i, apx)()),
            );
        };
        if !apx {
            self.ensure_programs();
        }
        let missing: Vec<usize> = {
            let map = cache.reports.lock().expect("reports lock");
            (0..self.specs.len())
                .filter(|&i| !map.contains_key(&(i, apx, self.n.0)))
                .collect()
        };
        if !missing.is_empty() {
            let jobs: Vec<BatchJob<Arc<LoadReport>>> = missing
                .iter()
                .map(|&i| {
                    let analyze = self.analysis_job(i, apx);
                    let job: BatchJob<Arc<LoadReport>> = Box::new(move |_| Arc::new(analyze()));
                    job
                })
                .collect();
            let built = cache.pool.run_batch(jobs);
            let mut map = cache.reports.lock().expect("reports lock");
            for (&i, r) in missing.iter().zip(built) {
                map.entry((i, apx, self.n.0)).or_insert(r);
            }
        }
        (0..self.specs.len())
            .map(|i| self.report_inner(i, apx))
            .collect()
    }

    // -------------------------------------------------------------- suites

    /// Runs the whole suite under machine `kind`, memoized. `Err` carries
    /// the first quarantined cell; every healthy cell still completed (and
    /// every failure is in [`failures`](SweepSession::failures)).
    pub fn suite(&self, kind: MachineKind) -> Result<Vec<RunOutcome>, CellFailure> {
        self.suites(&[kind]).map(|mut v| v.pop().expect("one kind"))
    }

    /// Per-cell results of the suite under machine `kind` — the quarantine
    /// surface behind [`suite`](SweepSession::suite), for callers (tests,
    /// forensics) that want failing and healthy cells side by side.
    pub fn suite_cells(&self, kind: MachineKind) -> Vec<CellOutcome> {
        if self.cache.is_none() {
            let cells = runner::run_suite(self.specs, self.n, kind.needs_oracle(), |_, oracle| {
                kind.config(oracle)
            });
            self.record_cell_failures(&cells);
            return cells;
        }
        let sets = vec![self.cells_for(kind.needs_oracle(), |_, oracle| kind.config(oracle))];
        self.run_cells(sets).pop().expect("one set")
    }

    /// Runs the suite under several machines at once: every missing
    /// (workload × config) cell across *all* kinds becomes one flat job
    /// list on the pool, so workers never idle at a config boundary.
    pub fn suites(&self, kinds: &[MachineKind]) -> Result<Vec<Vec<RunOutcome>>, CellFailure> {
        if self.cache.is_none() {
            return kinds
                .iter()
                .map(|&k| {
                    let cells =
                        runner::run_suite(self.specs, self.n, k.needs_oracle(), |_, oracle| {
                            k.config(oracle)
                        });
                    self.record_cell_failures(&cells);
                    cells.into_iter().collect()
                })
                .collect();
        }
        let sets: Vec<Vec<Cell>> = kinds
            .iter()
            .map(|&k| self.cells_for(k.needs_oracle(), |_, oracle| k.config(oracle)))
            .collect();
        self.run_cells(sets)
            .into_iter()
            .map(|cells| cells.into_iter().collect())
            .collect()
    }

    /// Runs the suite under a custom per-workload configuration, memoized
    /// by config fingerprint (the general form behind Fig 6, Fig 17, and
    /// the Fig 20 sensitivity sweeps).
    pub fn suite_with<F>(&self, with_oracle: bool, mk: F) -> Result<Vec<RunOutcome>, CellFailure>
    where
        F: Fn(&WorkloadSpec, IdealOracle) -> CoreConfig + Sync,
    {
        if self.cache.is_none() {
            let cells = runner::run_suite(self.specs, self.n, with_oracle, mk);
            self.record_cell_failures(&cells);
            return cells.into_iter().collect();
        }
        let sets = vec![self.cells_for(with_oracle, mk)];
        self.run_cells(sets)
            .pop()
            .expect("one set in, one out")
            .into_iter()
            .collect()
    }

    /// [`suite_with`](SweepSession::suite_with) over several config makers
    /// at once: one flat submission covering every (workload × maker)
    /// cell, so a sensitivity sweep's whole grid (Fig 20's depth/port
    /// scaling) reaches the pool together. Results are per maker, in maker
    /// order — identical to calling `suite_with` once per maker.
    pub fn suite_grid(
        &self,
        with_oracle: bool,
        mks: &[&MkOracleConfig<'_>],
    ) -> Result<Vec<Vec<RunOutcome>>, CellFailure> {
        if self.cache.is_none() {
            return mks
                .iter()
                .map(|mk| {
                    let cells = runner::run_suite(self.specs, self.n, with_oracle, |s, o| mk(s, o));
                    self.record_cell_failures(&cells);
                    cells.into_iter().collect()
                })
                .collect();
        }
        let sets: Vec<Vec<Cell>> = mks
            .iter()
            .map(|mk| self.cells_for(with_oracle, |s, o| mk(s, o)))
            .collect();
        self.run_cells(sets)
            .into_iter()
            .map(|cells| cells.into_iter().collect())
            .collect()
    }

    /// Builds the single-thread cells a suite run would use (attaching the
    /// cached oracle when requested). Missing reports are batch-computed on
    /// the pool first, so a cold oracle-needing figure analyzes its
    /// workloads in parallel instead of serially on the caller thread.
    fn cells_for<F>(&self, with_oracle: bool, mk: F) -> Vec<Cell>
    where
        F: Fn(&WorkloadSpec, IdealOracle) -> CoreConfig,
    {
        let reports = with_oracle.then(|| self.reports());
        self.specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let oracle = match &reports {
                    Some(reports) => IdealOracle::new(reports[i].stable_pcs.iter().copied()),
                    None => IdealOracle::default(),
                };
                (vec![i], mk(spec, oracle))
            })
            .collect()
    }

    /// The memoizing core behind every cached suite, grid and SMT2
    /// pairing: runs every cell not already in the outcome memo as one
    /// flat *guarded* pool batch (a panicking cell quarantines instead of
    /// poisoning the batch), then assembles each set's results in order.
    /// Missing cells are deduplicated across sets (two figures — or two
    /// kinds of one figure — asking for the same cell share one run) and
    /// answered from the store before any pool time is spent.
    fn run_cells(&self, sets: Vec<Vec<Cell>>) -> Vec<Vec<CellOutcome>> {
        let cache = self.cache.as_ref().expect("cached mode only");
        self.ensure_programs();
        let keyed: Vec<Vec<CellKey>> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|(workloads, cfg)| (workloads.clone(), cfg.fingerprint()))
                    .collect()
            })
            .collect();
        let mut missing: Vec<(CellKey, CoreConfig)> = Vec::new();
        {
            let done = cache.outcomes.lock().expect("outcomes lock");
            let mut queued: HashSet<&CellKey> = HashSet::new();
            for (set, keys) in sets.into_iter().zip(&keyed) {
                for ((_, cfg), key) in set.into_iter().zip(keys) {
                    if !done.contains_key(key) && queued.insert(key) {
                        missing.push((key.clone(), cfg));
                    }
                }
            }
        }
        // A verified store hit goes straight into the outcome memo; a
        // damaged record quarantines (with forensics in the failure
        // registry) and falls through to recompute.
        if !missing.is_empty() {
            let mut guard = self.store.lock().expect("store lock");
            if let Some(store) = guard.as_mut() {
                let mut done = cache.outcomes.lock().expect("outcomes lock");
                missing.retain(|((workloads, fp), cfg)| {
                    match self.store_lookup(store, &self.cell_specs(workloads), cfg, *fp) {
                        Some(outcome) => {
                            done.entry((workloads.clone(), *fp)).or_insert(Ok(outcome));
                            false
                        }
                        None => true,
                    }
                });
            }
        }
        if !missing.is_empty() {
            let n = self.n;
            let ckpt_on = self.checkpointing();
            let jobs: Vec<BatchJob<CellOutcome>> = missing
                .iter()
                .map(|((workloads, fp), cfg)| {
                    let fp = *fp;
                    let programs: Vec<Arc<Program>> =
                        workloads.iter().map(|&i| self.program(i)).collect();
                    let name = self.cell_name(workloads);
                    let category = self.specs[workloads[0]].category;
                    let fault = self.chaos.and_then(|c| c.fault_for(&name, fp));
                    let ckpt = (ckpt_on && fault.is_none())
                        .then(|| self.checkpointer(&self.cell_specs(workloads), cfg, &name, fp));
                    let cfg = cfg.clone();
                    let job: BatchJob<CellOutcome> = Box::new(move |scratch| {
                        let programs: Vec<&Program> = programs.iter().map(Arc::as_ref).collect();
                        run_cell(
                            &programs,
                            &name,
                            category,
                            cfg,
                            n,
                            fp,
                            fault,
                            ckpt.as_ref(),
                            scratch,
                        )
                    });
                    job
                })
                .collect();
            let outcomes = cache.pool.run_batch_guarded(jobs);
            let mut done = cache.outcomes.lock().expect("outcomes lock");
            let mut store_guard = self.store.lock().expect("store lock");
            for (((workloads, fp), cfg), outcome) in missing.into_iter().zip(outcomes) {
                let cell = outcome.unwrap_or_else(|payload| {
                    // The job panicked on its worker: wrap the payload in
                    // a quarantine bundle, re-asking the chaos plan whether
                    // the cell was scheduled for an injected panic —
                    // classic, or a checkpoint-boundary kill. (`ckpt_on`,
                    // not `self.checkpointing()`: the latter locks the
                    // store, which this thread already holds.)
                    let name = self.cell_name(&workloads);
                    let injected = self.chaos.is_some_and(|c| {
                        c.fault_for(&name, fp) == Some(ChaosFault::Panic)
                            || (ckpt_on && c.ckpt_kill_for(&name, fp).is_some())
                    });
                    Err(CellFailure::from_panic(
                        &name, fp, self.n, payload, injected,
                    ))
                });
                if let Err(f) = &cell {
                    self.record_failure(f);
                }
                // Persist freshly computed clean cells (the store only
                // ever holds verified-Ok outcomes).
                if let (Ok(run), Some(store)) = (&cell, store_guard.as_mut()) {
                    self.store_put(store, &self.cell_specs(&workloads), &cfg, run);
                }
                done.entry((workloads, fp)).or_insert(cell);
            }
        }
        let done = cache.outcomes.lock().expect("outcomes lock");
        keyed
            .iter()
            .map(|keys| {
                keys.iter()
                    .map(|key| done.get(key).expect("just computed").clone())
                    .collect()
            })
            .collect()
    }

    /// The suite specs of a cell's thread slots.
    fn cell_specs(&self, workloads: &[usize]) -> Vec<&'s WorkloadSpec> {
        workloads.iter().map(|&i| &self.specs[i]).collect()
    }

    /// A cell's workload name: one suite name, or an SMT2 pair's two names
    /// joined with `+` (the vocabulary of the `cell` subcommand).
    fn cell_name(&self, workloads: &[usize]) -> String {
        workloads
            .iter()
            .map(|&i| self.specs[i].name.as_str())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Runs the SMT2 pairing (workload `i` co-scheduled with `i + half`),
    /// memoized by pair and config fingerprint. Quarantined per pair, like
    /// the single-thread suites.
    pub fn suite_smt2<F>(&self, mk: F) -> Result<Vec<RunOutcome>, CellFailure>
    where
        F: Fn(&WorkloadSpec) -> CoreConfig + Sync,
    {
        self.suite_smt2_grid(&[&mk])
            .map(|mut v| v.pop().expect("one maker in, one out"))
    }

    /// [`suite_smt2`](SweepSession::suite_smt2) over several config makers
    /// at once (Fig 14's four machine pairings): every missing
    /// (pair × maker) cell reaches the pool as one submission. Results are
    /// per maker, in maker order — identical to calling `suite_smt2` once
    /// per maker.
    pub fn suite_smt2_grid(
        &self,
        mks: &[&MkPairConfig<'_>],
    ) -> Result<Vec<Vec<RunOutcome>>, CellFailure> {
        if self.cache.is_none() {
            return mks
                .iter()
                .map(|mk| {
                    let cells = runner::run_suite_smt2(self.specs, self.n, |s| mk(s));
                    self.record_cell_failures(&cells);
                    cells.into_iter().collect()
                })
                .collect();
        }
        let half = self.specs.len() / 2;
        let sets: Vec<Vec<Cell>> = mks
            .iter()
            .map(|mk| {
                (0..half)
                    .map(|i| (vec![i, i + half], mk(&self.specs[i])))
                    .collect()
            })
            .collect();
        self.run_cells(sets)
            .into_iter()
            .map(|cells| cells.into_iter().collect())
            .collect()
    }

    // --------------------------------------------------------- generic jobs

    /// Runs arbitrary figure-specific jobs (e.g. the Fig 17 loss-attribution
    /// or the xPRF occupancy instrumentation) on the session pool with
    /// worker-scratch reuse; results return in submission order. These are
    /// not memoized — they exist so instrumented loops share the pool and
    /// its scratch instead of building fresh cores sequentially.
    pub fn run_batch<T: Send + 'static>(&self, jobs: Vec<BatchJob<T>>) -> Vec<T> {
        match &self.cache {
            Some(cache) => cache.pool.run_batch(jobs),
            None => jobs
                .into_iter()
                .map(|job| {
                    let mut scratch = SimScratch::new();
                    job(&mut scratch)
                })
                .collect(),
        }
    }
}

/// Runs one (workload, machine) cell: the single path every sweep cell
/// takes. `programs` holds one program per hardware thread (two for an
/// SMT2 pair), and each thread retires `n / programs.len()` instructions.
/// `fp` is the logical fingerprint the memo and the failure registry file
/// the cell under, computed before the watchdog and chaos knobs applied
/// here (harness instrumentation, not machine identity). With `ckpt`, the
/// run resumes from the cell's newest checkpoint and snapshots at every
/// interval boundary — bit-identical to the straight run. Verification is
/// per cell: a failing run returns its quarantine bundle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cell(
    programs: &[&Program],
    name: &str,
    category: Category,
    mut cfg: CoreConfig,
    n: RunLength,
    fp: u64,
    fault: Option<ChaosFault>,
    ckpt: Option<&Checkpointer>,
    scratch: &mut SimScratch,
) -> CellOutcome {
    if fault == Some(ChaosFault::Panic) {
        panic!("chaos: injected worker panic ({name})");
    }
    let per_thread = n.0 / programs.len() as u64;
    cfg.watchdog_no_retire.get_or_insert(WATCHDOG_BUDGET);
    if fault == Some(ChaosFault::Stall) {
        // Wedge the core halfway through: retirement stops, the pipeline
        // starves, and the watchdog must abort with a frozen snapshot.
        cfg.wedge_after_retire = Some(per_thread / 2);
    }
    let s = std::mem::take(scratch);
    let mut result = match ckpt {
        Some(ckpt) => {
            let (result, s) = ckpt::run_checkpointed(programs, &cfg, s, per_thread, ckpt);
            *scratch = s;
            result
        }
        None => {
            let mut core = Core::new_multi_with_scratch(programs.to_vec(), cfg, s);
            let result = core.run(per_thread);
            *scratch = core.into_scratch();
            result
        }
    };
    if fault == Some(ChaosFault::CorruptDigest) {
        // Simulated digest corruption: trip the §8.5 verification path
        // without touching the (shared, memoized) simulation inputs.
        result.stats.golden_mismatches += 1;
    }
    match result.verify() {
        Ok(()) => Ok(RunOutcome {
            workload: name.to_string(),
            category,
            result,
        }),
        Err(e) => Err(CellFailure::from_error(name, fp, n, &e, fault.is_some())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_batches_in_submission_order() {
        let pool = SweepPool::new();
        let jobs: Vec<BatchJob<usize>> = (0..32)
            .map(|i| {
                let job: BatchJob<usize> = Box::new(move |_| i * 2);
                job
            })
            .collect();
        let out = pool.run_batch(jobs);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
        // A second batch reuses the same live workers.
        let jobs: Vec<BatchJob<usize>> = (0..5)
            .map(|i| {
                let job: BatchJob<usize> = Box::new(move |_| i + 100);
                job
            })
            .collect();
        assert_eq!(pool.run_batch(jobs), vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn session_memoizes_programs_reports_and_runs() {
        let specs = sim_workload::suite_subset(2);
        let session = SweepSession::new(&specs, RunLength(4_000));
        let p1 = session.program(0);
        let p2 = session.program(0);
        assert!(Arc::ptr_eq(&p1, &p2), "program cache must share builds");
        let r1 = session.report(1);
        let r2 = session.report(1);
        assert!(Arc::ptr_eq(&r1, &r2), "report cache must share analyses");

        let a = session.suite(MachineKind::Baseline).expect("clean suite");
        let b = session.suite(MachineKind::Baseline).expect("clean suite");
        assert_eq!(a.len(), specs.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.result.stats.cycles, y.result.stats.cycles);
            assert_eq!(x.result.stats.retired, y.result.stats.retired);
        }
    }

    #[test]
    fn apx_reports_do_not_retain_their_programs() {
        let specs = sim_workload::suite_subset(2);
        let session = SweepSession::new(&specs, RunLength(4_000));
        let cached = |session: &SweepSession<'_>| {
            let cache = session.cache.as_ref().expect("cached session");
            let map = cache.programs.lock().expect("programs lock");
            let mut v: Vec<(usize, bool)> = map.iter().map(|(&i, p)| (i, p.apx())).collect();
            v.sort_unstable();
            v
        };
        let first = session.reports_apx();
        assert_eq!(first.len(), specs.len());
        assert!(cached(&session).is_empty(), "APX builds must not be cached");

        session.reports();
        let plain: Vec<(usize, bool)> = (0..specs.len()).map(|i| (i, false)).collect();
        assert_eq!(cached(&session), plain, "only plain builds are cached");

        let second = session.reports_apx();
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(a, b), "APX reports stay memoized");
        }
        assert!(Arc::ptr_eq(&first[0], &session.report_apx(0)));
        assert_eq!(cached(&session), plain);
    }

    #[test]
    fn cached_suite_matches_direct_run_suite() {
        let specs = sim_workload::suite_subset(2);
        let n = RunLength(4_000);
        let cached = SweepSession::new(&specs, n);
        let direct = SweepSession::uncached(&specs, n);
        for kind in [MachineKind::Baseline, MachineKind::Constable] {
            let a = cached.suite(kind).expect("clean suite");
            let b = direct.suite(kind).expect("clean suite");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.workload, y.workload);
                assert_eq!(
                    x.result.stats, y.result.stats,
                    "{}: memoized run diverged from run_suite under {:?}",
                    x.workload, kind
                );
            }
        }
    }
}
