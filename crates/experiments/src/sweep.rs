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
//!   (workload, APX build) at the session's run length; Fig 3, Fig 17,
//!   Fig 23/24, and every oracle-carrying configuration reuse the same
//!   [`LoadReport`].
//! * **Run memo** — completed [`RunOutcome`]s are keyed by the cell's
//!   stable store key ([`persist::store_key`]: the workload in each thread
//!   slot, the logical config, the run length), single-thread and SMT2
//!   cells alike. It is the one identity a cell has: the dedupe, the
//!   result store and the failure registry use it too. The Baseline suite
//!   is simulated exactly once no matter how many figures ask for it;
//!   `--all` shares Constable/EVES runs across fig11/fig12/fig13/… the
//!   same way.
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
use sim_core::{Core, CoreConfig, FastHashMap, SimScratch};
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

/// A sweep cell: the suite index of the workload in each hardware-thread
/// slot (two for an SMT2 pair), the logical machine config, and the stable
/// store key built from both — the cell's identity in the memo, the
/// dedupe, the store and the failure registry.
struct Cell {
    workloads: Vec<usize>,
    cfg: CoreConfig,
    key: StoreKey,
}

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
    /// `(workload index, apx)` → load-inspector report at the session's
    /// run length.
    reports: Mutex<HashMap<(usize, bool), Arc<LoadReport>>>,
    /// Cell store key → completed or quarantined run, single-thread and
    /// SMT2 alike. Failures memoize too: a cell that died once is reported
    /// once, not retried by every later figure that asks for it. Every
    /// cell request hashes its ~700-byte key here, which `FastHashMap`
    /// does in about half the time of the default hasher.
    outcomes: Mutex<FastHashMap<StoreKey, CellOutcome>>,
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
                outcomes: Mutex::new(FastHashMap::default()),
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
    fn store_lookup(&self, store: &mut ResultStore, cell: &Cell) -> Option<RunOutcome> {
        let name = self.cell_name(&cell.workloads);
        let defect = match store.get(&cell.key) {
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
                    store.quarantine(
                        &cell.key,
                        StoreDefectKind::DigestMismatch,
                        stats_digest,
                        actual,
                    )
                }
                Err(persist::PayloadError::Version { found }) => store.quarantine(
                    &cell.key,
                    StoreDefectKind::VersionSkew,
                    u64::from(persist::PAYLOAD_VERSION),
                    u64::from(found),
                ),
                Err(persist::PayloadError::Malformed(_)) => {
                    store.quarantine(&cell.key, StoreDefectKind::Corrupt, 0, 0)
                }
            },
            GetOutcome::Miss => return None,
            GetOutcome::Defect(defect) => defect,
        };
        self.record_failure(&CellFailure::from_store_defect(
            &defect, &name, &cell.key, &cell.cfg, self.n,
        ));
        None
    }

    /// Every cell quarantined so far, in discovery order.
    pub fn failures(&self) -> Vec<CellFailure> {
        self.failures.lock().expect("failures lock").clone()
    }

    /// Records a quarantined cell, once per (workload, store key hash).
    fn record_failure(&self, f: &CellFailure) {
        let mut reg = self.failures.lock().expect("failures lock");
        if !reg
            .iter()
            .any(|g| g.workload == f.workload && g.key_hash == f.key_hash)
        {
            reg.push(f.clone());
        }
    }

    /// The workload suite this session sweeps.
    pub fn specs(&self) -> &'s [WorkloadSpec] {
        self.specs
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
        let key = (i, apx);
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
                .filter(|&i| !map.contains_key(&(i, apx)))
                .collect()
        };
        if !missing.is_empty() {
            let built = self.analyze_on_pool(&missing, apx);
            let mut map = cache.reports.lock().expect("reports lock");
            for (&i, r) in missing.iter().zip(built) {
                map.entry((i, apx)).or_insert(r);
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
    }

    /// Runs the suite under a custom per-workload configuration, memoized
    /// by store key (the general form behind Fig 6, Fig 17, and
    /// the Fig 20 sensitivity sweeps).
    pub fn suite_with<F>(&self, with_oracle: bool, mk: F) -> Result<Vec<RunOutcome>, CellFailure>
    where
        F: Fn(&WorkloadSpec, IdealOracle) -> CoreConfig + Sync,
    {
        let sets = vec![self.cells_for(with_oracle, mk)];
        self.run_cells(sets)
            .map(|mut v| v.pop().expect("one set in, one out"))
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
                self.cell(vec![i], mk(spec, oracle))
            })
            .collect()
    }

    /// A cell with its store key, assembled from the logical config (before
    /// [`run_cell`] layers its watchdog budget on top).
    fn cell(&self, workloads: Vec<usize>, cfg: CoreConfig) -> Cell {
        let specs: Vec<&WorkloadSpec> = workloads.iter().map(|&i| &self.specs[i]).collect();
        let key = persist::store_key(&specs, &cfg, self.n);
        Cell {
            workloads,
            cfg,
            key,
        }
    }

    /// The core behind every suite, grid and SMT2 pairing: runs each
    /// cell not already in the outcome memo through [`run_cell`] as one
    /// flat *guarded* pool batch (a panicking cell quarantines instead of
    /// poisoning the batch), then assembles each set's results in order,
    /// or returns the first quarantined cell in set order.
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
    fn run_cells(&self, sets: Vec<Vec<Cell>>) -> Result<Vec<Vec<RunOutcome>>, CellFailure> {
        let Some(cache) = &self.cache else {
            let mut outcomes = self.run_on_pool(&sets.iter().flatten().collect::<Vec<_>>());
            return sets
                .iter()
                .map(|set| outcomes.drain(..set.len()).collect())
                .collect();
        };
        self.ensure_programs();
        // One memo lookup per cell: hits are cloned out now, and only the
        // misses are looked up again once they have run.
        let mut missing: Vec<&Cell> = Vec::new();
        let hits: Vec<Vec<Option<CellOutcome>>> = {
            let done = cache.outcomes.lock().expect("outcomes lock");
            let mut queued: HashSet<&StoreKey> = HashSet::new();
            sets.iter()
                .map(|set| {
                    set.iter()
                        .map(|cell| {
                            let hit = done.get(&cell.key).cloned();
                            if hit.is_none() && queued.insert(&cell.key) {
                                missing.push(cell);
                            }
                            hit
                        })
                        .collect()
                })
                .collect()
        };
        // With a store attached, a verified hit goes straight into the
        // outcome memo; a damaged record quarantines (with forensics in the
        // failure registry) and falls through to recompute.
        if !missing.is_empty() {
            let mut guard = self.store.lock().expect("store lock");
            if let Some(store) = guard.as_mut() {
                let mut done = cache.outcomes.lock().expect("outcomes lock");
                missing.retain(|&cell| match self.store_lookup(store, cell) {
                    Some(outcome) => {
                        done.entry(cell.key.clone()).or_insert(Ok(outcome));
                        false
                    }
                    None => true,
                });
            }
        }
        if !missing.is_empty() {
            let outcomes = self.run_on_pool(&missing);
            let mut done = cache.outcomes.lock().expect("outcomes lock");
            for (cell, outcome) in missing.into_iter().zip(outcomes) {
                done.entry(cell.key.clone()).or_insert(outcome);
            }
        }
        let done = cache.outcomes.lock().expect("outcomes lock");
        sets.iter()
            .zip(hits)
            .map(|(set, hits)| {
                set.iter()
                    .zip(hits)
                    .map(|(cell, hit)| {
                        hit.unwrap_or_else(|| done.get(&cell.key).expect("just computed").clone())
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs `cells` through [`run_cell`] as one guarded pool batch and
    /// files every failure in the registry. With a store attached, each
    /// job persists its own cell the moment it verifies.
    fn run_on_pool(&self, cells: &[&Cell]) -> Vec<CellOutcome> {
        let n = self.n;
        let jobs: Vec<BatchJob<CellOutcome>> = cells
            .iter()
            .map(|cell| {
                let loaders: Vec<_> = cell
                    .workloads
                    .iter()
                    .map(|&i| self.program_loader(i, false))
                    .collect();
                let name = self.cell_name(&cell.workloads);
                let category = self.specs[cell.workloads[0]].category;
                let cfg = cell.cfg.clone();
                let key = cell.key.clone();
                let store = Arc::clone(&self.store);
                let job: BatchJob<CellOutcome> = Box::new(move |scratch| {
                    let programs: Vec<Arc<Program>> =
                        loaders.into_iter().map(|load| load()).collect();
                    let programs: Vec<&Program> = programs.iter().map(Arc::as_ref).collect();
                    let outcome = run_cell(&programs, &name, category, &cfg, n, &key, scratch);
                    if let Ok(run) = &outcome {
                        store_put(&store, &key, run);
                    }
                    outcome
                });
                job
            })
            .collect();
        let outcomes = self.pool.run_batch_guarded(jobs);
        cells
            .iter()
            .zip(outcomes)
            .map(|(cell, outcome)| {
                // A job that panicked on its worker is wrapped in a
                // quarantine bundle carrying the payload.
                let outcome = outcome.unwrap_or_else(|payload| {
                    Err(CellFailure::from_panic(
                        &self.cell_name(&cell.workloads),
                        &cell.key,
                        &cell.cfg,
                        self.n,
                        payload,
                    ))
                });
                if let Err(f) = &outcome {
                    self.record_failure(f);
                }
                outcome
            })
            .collect()
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

    /// [`suites`](SweepSession::suites) for the SMT2 pairing (workload `i`
    /// co-scheduled with `i + half`, Fig 14): every missing (pair ×
    /// machine) cell reaches the pool as one submission, memoized by store
    /// key and quarantined per pair. Pairs run with an empty oracle.
    /// Results are per kind, in kind order.
    pub fn smt2_suites(&self, kinds: &[MachineKind]) -> Result<Vec<Vec<RunOutcome>>, CellFailure> {
        let half = self.specs.len() / 2;
        let sets: Vec<Vec<Cell>> = kinds
            .iter()
            .map(|k| {
                (0..half)
                    .map(|i| self.cell(vec![i, i + half], k.config(IdealOracle::default())))
                    .collect()
            })
            .collect();
        self.run_cells(sets)
    }
}

/// Writes one freshly computed, verified-clean cell to the store, if one
/// is attached. Runs on the pool worker that computed the cell. Write
/// failures are reported but never fail the cell — the result still
/// reaches the in-process memo.
fn store_put(store: &SharedStore, key: &StoreKey, outcome: &RunOutcome) {
    if let Some(store) = store.lock().expect("store lock").as_mut() {
        let payload = persist::encode_outcome(outcome);
        if let Err(e) = store.put(key, &payload, outcome.result.stats_digest()) {
            crate::errln!("[store: write failed for {}: {e}]", outcome.workload);
        }
    }
}

/// Runs one (workload, machine) cell: the single path every sweep cell
/// takes. `programs` holds one program per hardware thread (two for an
/// SMT2 pair), and each thread retires `n / programs.len()` instructions.
/// `cfg` is the logical config `key` was assembled from; the watchdog
/// budget applied here is harness instrumentation, not machine identity.
/// Verification is per cell: a failing run returns its quarantine bundle.
pub(crate) fn run_cell(
    programs: &[&Program],
    name: &str,
    category: Category,
    cfg: &CoreConfig,
    n: RunLength,
    key: &StoreKey,
    scratch: &mut SimScratch,
) -> CellOutcome {
    let per_thread = n.0 / programs.len() as u64;
    let mut machine = cfg.clone();
    machine.watchdog_no_retire.get_or_insert(WATCHDOG_BUDGET);
    let mut core =
        Core::new_multi_with_scratch(programs.to_vec(), machine, std::mem::take(scratch));
    let result = core.run(per_thread);
    *scratch = core.into_scratch();
    match result.verify() {
        Ok(()) => Ok(RunOutcome {
            workload: name.to_string(),
            category,
            result,
        }),
        Err(e) => Err(CellFailure::from_error(name, key, cfg, n, &e)),
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
