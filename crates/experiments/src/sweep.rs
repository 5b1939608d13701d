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
//! * **One cell runner** — every missing cell (single-thread or SMT2)
//!   runs through [`run_cell`].
//! * **Per-cell persistence** — with a store attached, each cell's job
//!   writes its verified result the moment it finishes, so a killed sweep
//!   loses only the cells in flight and the rerun answers the rest from
//!   disk.
//! * **Persistent pool** — one set of worker threads (each owning a
//!   [`SimScratch`]) lives for the whole session. A figure's entire
//!   (workload × config) matrix is submitted as a single flat job list, so
//!   workers cross config boundaries without ever hitting a barrier, and
//!   scratch allocations reach steady state across the whole sweep.
//!
//! [`SweepSession::uncached`] builds a session with no memo, no dedupe and
//! no store: every cell it is asked for runs through the same
//! [`run_cell`] on the same kind of pool, building its programs inside its
//! job. It is the reference the equivalence tests (and the `bench/sweep`
//! harness) compare against: memoized output must be byte-identical.
//!
//! Every counter a figure reads, the Constable engine's included, comes
//! back inside the cell's verified [`sim_core::SimResult`]; no figure
//! builds a core of its own.

use crate::configs::MachineKind;
use crate::fault::{CellFailure, CellOutcome};
use crate::persist;
use crate::runner::{RunLength, RunOutcome, WATCHDOG_BUDGET};
use constable::IdealOracle;
use load_inspector::LoadReport;
use result_store::{GetOutcome, ResultStore, StoreDefectKind, StoreKey, StoreStats};
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

/// The session's store slot, shared (`Arc`) so pool workers can persist
/// the cells they finish.
type SharedStore = Arc<Mutex<Option<ResultStore>>>;

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

/// Memoization state of a cached session.
struct SweepCache {
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

/// One figure-sweep invocation: the workload suite, the run length, the
/// persistent pool every cell, build and analysis runs on, and — unless
/// built [`uncached`](SweepSession::uncached) — the caches shared by every
/// figure of the invocation.
pub struct SweepSession<'s> {
    specs: &'s [WorkloadSpec],
    n: RunLength,
    pool: SweepPool,
    cache: Option<SweepCache>,
    /// Persistent on-disk result store, if attached: memoizable cells are
    /// answered from disk (after checksum + digest verification) before
    /// any pool time is spent, and freshly computed clean cells are
    /// written back by the job that computed them. Store damage
    /// quarantines and recomputes — it never fails a figure.
    store: SharedStore,
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
            pool: SweepPool::new(),
            cache: Some(SweepCache {
                programs: Mutex::new(HashMap::new()),
                reports: Mutex::new(HashMap::new()),
                outcomes: Mutex::new(HashMap::new()),
            }),
            store: Arc::new(Mutex::new(None)),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// A session with every cache disabled: each cell asked for runs
    /// through [`run_cell`] on the pool, with its programs built inside its
    /// job, and nothing is memoized, deduplicated or stored. Used as the
    /// byte-identical reference in tests and benchmarks.
    pub fn uncached(specs: &'s [WorkloadSpec], n: RunLength) -> Self {
        SweepSession {
            specs,
            n,
            pool: SweepPool::new(),
            cache: None,
            store: Arc::new(Mutex::new(None)),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// Attaches a persistent result store. Cached sessions only — the
    /// uncached reference never reads or writes a store.
    pub fn with_store(self, store: ResultStore) -> Self {
        assert!(
            self.cache.is_some(),
            "the result store requires the cached session"
        );
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

    /// Tries to answer one cell from the store. A verified hit returns the
    /// decoded outcome; damage (checksum mismatch, torn record, version
    /// skew, digest disagreement) is quarantined inside the store, filed
    /// in the failure registry with forensics, and answered `None` so the
    /// cell recomputes.
    fn store_lookup(
        &self,
        store: &mut ResultStore,
        key: &StoreKey,
        name: &str,
        fp: u64,
    ) -> Option<RunOutcome> {
        match store.get(key) {
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
                        key,
                        StoreDefectKind::DigestMismatch,
                        stats_digest,
                        actual,
                    );
                    self.record_failure(&CellFailure::from_store_defect(&defect, name, fp, self.n));
                    None
                }
                Err(persist::PayloadError::Version { found }) => {
                    let defect = store.quarantine(
                        key,
                        StoreDefectKind::VersionSkew,
                        u64::from(persist::PAYLOAD_VERSION),
                        u64::from(found),
                    );
                    self.record_failure(&CellFailure::from_store_defect(&defect, name, fp, self.n));
                    None
                }
                Err(persist::PayloadError::Malformed(_)) => {
                    let defect = store.quarantine(key, StoreDefectKind::Corrupt, 0, 0);
                    self.record_failure(&CellFailure::from_store_defect(&defect, name, fp, self.n));
                    None
                }
            },
            GetOutcome::Miss => None,
            GetOutcome::Defect(defect) => {
                self.record_failure(&CellFailure::from_store_defect(&defect, name, fp, self.n));
                None
            }
        }
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

    /// The workload suite this session sweeps.
    pub fn specs(&self) -> &'s [WorkloadSpec] {
        self.specs
    }

    /// Retired instructions per thread per run.
    pub fn run_length(&self) -> RunLength {
        self.n
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
        let built = self.pool.run_batch(jobs);
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

    /// Workload `i`'s program as a loader a pool job calls. A cached
    /// session's plain build comes from the shared program cache; an APX
    /// build, or any build of an uncached session, is made inside the job
    /// and dropped with it.
    fn program_loader(
        &self,
        i: usize,
        apx: bool,
    ) -> impl FnOnce() -> Arc<Program> + Send + 'static {
        let shared = (!apx && self.cache.is_some()).then(|| self.program(i));
        let mut spec = self.specs[i].clone();
        spec.apx |= apx;
        move || shared.unwrap_or_else(|| spec.build_arc())
    }

    /// A job that analyses workload `i` (see
    /// [`program_loader`](SweepSession::program_loader) for its build).
    fn analysis_job(&self, i: usize, apx: bool) -> impl FnOnce() -> LoadReport + Send + 'static {
        let n = self.n.0;
        let load = self.program_loader(i, apx);
        move || load_inspector::analyze(&load(), n)
    }

    /// Analyses workloads `idx` as one flat pool batch.
    fn analyze_on_pool(&self, idx: &[usize], apx: bool) -> Vec<Arc<LoadReport>> {
        let jobs: Vec<BatchJob<Arc<LoadReport>>> = idx
            .iter()
            .map(|&i| {
                let analyze = self.analysis_job(i, apx);
                let job: BatchJob<Arc<LoadReport>> = Box::new(move |_| Arc::new(analyze()));
                job
            })
            .collect();
        self.pool.run_batch(jobs)
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
            // Uncached: every analysis reruns on the pool, nothing is kept.
            let all: Vec<usize> = (0..self.specs.len()).collect();
            return self.analyze_on_pool(&all, apx);
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
            let built = self.analyze_on_pool(&missing, apx);
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

    /// Runs the suite under several machines at once: every missing
    /// (workload × config) cell across *all* kinds becomes one flat job
    /// list on the pool, so workers never idle at a config boundary.
    pub fn suites(&self, kinds: &[MachineKind]) -> Result<Vec<Vec<RunOutcome>>, CellFailure> {
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

    /// The core behind every suite, grid and SMT2 pairing: runs each
    /// cell not already in the outcome memo through [`run_cell`] as one
    /// flat *guarded* pool batch (a panicking cell quarantines instead of
    /// poisoning the batch), then assembles each set's results in order.
    /// Missing cells are deduplicated across sets (two figures — or two
    /// kinds of one figure — asking for the same cell share one run) and
    /// answered from the store before any pool time is spent. An uncached
    /// session skips all three: every cell of every set runs.
    ///
    /// With a store attached, each job persists its own cell right after
    /// it verifies, so the store holds only verified-clean outcomes and a
    /// killed sweep keeps every cell that finished. With more than one
    /// worker, records therefore land in completion order, not submission
    /// order; nothing depends on that order, since each record stands
    /// alone.
    fn run_cells(&self, sets: Vec<Vec<Cell>>) -> Vec<Vec<CellOutcome>> {
        let Some(cache) = &self.cache else {
            let lens: Vec<usize> = sets.iter().map(Vec::len).collect();
            let cells = sets
                .into_iter()
                .flatten()
                .map(|(workloads, cfg)| ((workloads, cfg.fingerprint()), cfg, None))
                .collect();
            let mut outcomes = self.run_on_pool(cells).into_iter().map(|(_, cell)| cell);
            return lens
                .into_iter()
                .map(|len| outcomes.by_ref().take(len).collect())
                .collect();
        };
        self.ensure_programs();
        let keyed: Vec<Vec<CellKey>> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|(workloads, cfg)| (workloads.clone(), cfg.fingerprint()))
                    .collect()
            })
            .collect();
        let mut missing: Vec<(CellKey, CoreConfig, Option<StoreKey>)> = Vec::new();
        {
            let done = cache.outcomes.lock().expect("outcomes lock");
            let mut queued: HashSet<&CellKey> = HashSet::new();
            for (set, keys) in sets.into_iter().zip(&keyed) {
                for ((_, cfg), key) in set.into_iter().zip(keys) {
                    if !done.contains_key(key) && queued.insert(key) {
                        missing.push((key.clone(), cfg, None));
                    }
                }
            }
        }
        // With a store attached, every missing cell gets its stable store
        // key (logical config, before watchdog instrumentation). A verified
        // hit goes straight into the outcome memo; a damaged record
        // quarantines (with forensics in the failure registry) and falls
        // through to recompute, carrying its key to the job.
        if !missing.is_empty() {
            let mut guard = self.store.lock().expect("store lock");
            if let Some(store) = guard.as_mut() {
                let mut done = cache.outcomes.lock().expect("outcomes lock");
                missing.retain_mut(|((workloads, fp), cfg, store_key)| {
                    let key = persist::store_key(&self.cell_specs(workloads), cfg, self.n);
                    let name = self.cell_name(workloads);
                    match self.store_lookup(store, &key, &name, *fp) {
                        Some(outcome) => {
                            done.entry((workloads.clone(), *fp)).or_insert(Ok(outcome));
                            false
                        }
                        None => {
                            *store_key = Some(key);
                            true
                        }
                    }
                });
            }
        }
        if !missing.is_empty() {
            let outcomes = self.run_on_pool(missing);
            let mut done = cache.outcomes.lock().expect("outcomes lock");
            for (key, cell) in outcomes {
                done.entry(key).or_insert(cell);
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

    /// Runs `cells` through [`run_cell`] as one guarded pool batch and
    /// files every failure in the registry. A cell carrying a store key is
    /// persisted by its own job the moment it verifies.
    fn run_on_pool(
        &self,
        cells: Vec<(CellKey, CoreConfig, Option<StoreKey>)>,
    ) -> Vec<(CellKey, CellOutcome)> {
        let n = self.n;
        let jobs: Vec<BatchJob<CellOutcome>> = cells
            .iter()
            .map(|((workloads, fp), cfg, store_key)| {
                let fp = *fp;
                let loaders: Vec<_> = workloads
                    .iter()
                    .map(|&i| self.program_loader(i, false))
                    .collect();
                let name = self.cell_name(workloads);
                let category = self.specs[workloads[0]].category;
                let cfg = cfg.clone();
                let store_key = store_key.clone();
                let store = Arc::clone(&self.store);
                let job: BatchJob<CellOutcome> = Box::new(move |scratch| {
                    let programs: Vec<Arc<Program>> =
                        loaders.into_iter().map(|load| load()).collect();
                    let programs: Vec<&Program> = programs.iter().map(Arc::as_ref).collect();
                    let cell = run_cell(&programs, &name, category, cfg, n, fp, scratch);
                    if let (Ok(run), Some(key)) = (&cell, &store_key) {
                        store_put(&store, key, run);
                    }
                    cell
                });
                job
            })
            .collect();
        let outcomes = self.pool.run_batch_guarded(jobs);
        cells
            .into_iter()
            .zip(outcomes)
            .map(|(((workloads, fp), _, _), outcome)| {
                // A job that panicked on its worker is wrapped in a
                // quarantine bundle carrying the payload.
                let cell = outcome.unwrap_or_else(|payload| {
                    Err(CellFailure::from_panic(
                        &self.cell_name(&workloads),
                        fp,
                        self.n,
                        payload,
                    ))
                });
                if let Err(f) = &cell {
                    self.record_failure(f);
                }
                ((workloads, fp), cell)
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

    /// Runs the SMT2 pairing (workload `i` co-scheduled with `i + half`)
    /// under several config makers at once (Fig 14's machine pairings),
    /// memoized by pair and config fingerprint and quarantined per pair,
    /// like the single-thread suites: every missing (pair × maker) cell
    /// reaches the pool as one submission. Results are per maker, in maker
    /// order.
    pub fn suite_smt2_grid(
        &self,
        mks: &[&MkPairConfig<'_>],
    ) -> Result<Vec<Vec<RunOutcome>>, CellFailure> {
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
}

/// Writes one freshly computed, verified-clean cell to the store, if one
/// is attached. Runs on the pool worker that computed the cell. Write
/// failures are reported but never fail the cell — the result still
/// reaches the in-process memo.
fn store_put(store: &SharedStore, key: &StoreKey, outcome: &RunOutcome) {
    let payload = persist::encode_outcome(outcome);
    let digest = outcome.result.stats_digest();
    if let Some(store) = store.lock().expect("store lock").as_mut() {
        if let Err(e) = store.put(key, &payload, digest) {
            eprintln!("[store: write failed for {}: {e}]", outcome.workload);
        }
    }
}

/// Runs one (workload, machine) cell: the single path every sweep cell
/// takes. `programs` holds one program per hardware thread (two for an
/// SMT2 pair), and each thread retires `n / programs.len()` instructions.
/// `fp` is the logical fingerprint the memo and the failure registry file
/// the cell under, computed before the watchdog budget applied here
/// (harness instrumentation, not machine identity). Verification is per
/// cell: a failing run returns its quarantine bundle.
pub(crate) fn run_cell(
    programs: &[&Program],
    name: &str,
    category: Category,
    mut cfg: CoreConfig,
    n: RunLength,
    fp: u64,
    scratch: &mut SimScratch,
) -> CellOutcome {
    let per_thread = n.0 / programs.len() as u64;
    cfg.watchdog_no_retire.get_or_insert(WATCHDOG_BUDGET);
    let mut core = Core::new_multi_with_scratch(programs.to_vec(), cfg, std::mem::take(scratch));
    let result = core.run(per_thread);
    *scratch = core.into_scratch();
    match result.verify() {
        Ok(()) => Ok(RunOutcome {
            workload: name.to_string(),
            category,
            result,
        }),
        Err(e) => Err(CellFailure::from_error(name, fp, n, &e)),
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
    fn cached_suite_matches_uncached_session() {
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
                    "{}: memoized run diverged from the uncached session under {:?}",
                    x.workload, kind
                );
            }
        }
    }
}
