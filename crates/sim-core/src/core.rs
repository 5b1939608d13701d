//! The cycle-accurate out-of-order core.
//!
//! A trace-driven nine-stage model (Fig 1 of the paper: Fetch, Decode,
//! Allocate, Rename, Issue, Execute, Memory, Writeback, Retire) built around
//! a unified in-flight window:
//!
//! * **Fetch** follows the functional trace through a TAGE branch predictor
//!   and return-address stack; mispredictions switch fetch onto the *wrong
//!   path* (real static instructions from the predicted target), whose µops
//!   consume pipeline resources and pollute Constable's structures (§6.7.2)
//!   until the branch resolves.
//! * **Rename** applies the baseline dynamic optimizations (move/zero
//!   elimination, constant and branch folding, Memory Renaming), the
//!   optional EVES value predictor, ELAR, RFP, and — the paper's
//!   contribution — Constable's SLD lookup, elimination, and RMT updates,
//!   including SLD read/write port stalls (§6.7.1).
//! * **Issue/Execute/Memory** model 12 execution ports (5 ALU, 3 AGU+load,
//!   2 STA, 2 STD), store-to-load forwarding, store-set memory dependence
//!   prediction, and the full cache/DRAM hierarchy.
//! * **Writeback** trains the SLD, arms elimination (steps 4–6 of Fig 8),
//!   verifies value/MRN speculation, resolves branches, and performs the
//!   store-vs-load disambiguation probe that catches incorrectly eliminated
//!   loads (§6.5).
//! * **Retire** performs the golden functional check of §8.5 on every load —
//!   including eliminated ones — against the functional execution.
//!
//! # Scheduling
//!
//! The backend is scheduled incrementally and event-driven: completions
//! come from a time-ordered event heap filled at issue, issue candidates
//! come from per-thread ready queues fed by dependency wakeup (producers
//! push consumers when they complete), and the store-search /
//! disambiguation / flush paths walk per-thread store/load index rings
//! instead of the whole ROB. Under SMT2, the fetch and rename slots are
//! granted by a parity-free round-robin rotor (see
//! [`crate::sched::FrontendRotor`]): hazard-blocked threads cede the slot
//! within the cycle, and the pointers advance only on progress, so
//! per-cycle frontend work is a pure function of architectural state and
//! the idle-cycle fast-forward applies to multi-thread runs as well.
//! Per-µop timing is locked by the scheduling
//! trace oracle: committed golden digests that any change to issue
//! order, completion timing, or retire order must consciously re-bless.
//! The single-thread rows were captured while the original full-scan
//! scheduler still existed and cross-checked bit-identical against it;
//! the SMT2 rows were re-blessed when the frontend went parity-free
//! (see `tests/README.md`). See [`crate::trace`] and
//! `tests/trace_oracle.rs`.

use crate::config::CoreConfig;
use crate::pctab::PcCountTable;
use crate::sched::{FrontendRotor, SimScratch, ThreadScratch};
use crate::stats::{CoreStats, StallClass};
use crate::trace::{self, TraceRecorder, TraceSummary, UopTrace};
use crate::uop::{Fetched, Tag, Uop, UopStamps, UopState};
use constable::{Constable, IdealConfig, LoadRename, StackState, XprfSlot};
use sim_isa::{AluOp, ArchReg, BranchKind, DynInst, InstClass, OpKind, Pc};
use sim_mem::{line_addr, EvictionSink, MemoryHierarchy, SnoopInjector};
use sim_predictors::{Elar, Eves, Mrn, ReturnStack, StoreSets, Tage};
use sim_workload::{Machine, Program};
use std::collections::VecDeque;

/// Address-space tag shift for SMT threads (thread 1's physical addresses
/// and predictor-visible PCs are offset to model distinct address spaces).
const THREAD_TAG_SHIFT: u32 = 46;

#[derive(Debug)]
struct WrongPath {
    next_sidx: u32,
    cause_seq: u64,
}

/// Retire-time snapshot of a µop: exactly the fields `retire_one` still
/// needs after the window slot is recycled, copied out by value so the
/// slot's heap-backed consumer list is never cloned on the retire path.
#[derive(Clone, Copy)]
struct RetiredUop {
    is_load: bool,
    is_store: bool,
    is_branch: bool,
    in_lb: bool,
    in_sb: bool,
    folded: bool,
    eliminated: bool,
    value_predicted: bool,
    mrn_forwarded: bool,
    seq: u64,
    pc: u64,
    addr: u64,
    result: u64,
    vp_history: u64,
    complete_at: u64,
    xprf: Option<XprfSlot>,
    stack_after: StackState,
}

#[derive(Debug)]
struct Thread<'p> {
    id: usize,
    program: &'p Program,
    /// The thread's functional machine; its next record is sequence
    /// number `machine.executed()`. Wrong-path flushes rewind `cursor`
    /// into `pending`, never the machine.
    machine: Machine<'p>,
    /// Fetched-ahead functional records; front = oldest unretired.
    pending: VecDeque<DynInst>,
    /// Index into `pending` of the next record to fetch.
    cursor: usize,
    rob: VecDeque<Tag>,
    rob_cap: usize,
    /// In-flight stores, oldest first (always a subsequence of `rob`);
    /// store-search and disambiguation walk this instead of the full ROB.
    stores: VecDeque<Tag>,
    /// In-flight loads, oldest first (always a subsequence of `rob`).
    loads: VecDeque<Tag>,
    /// Ready-to-issue µops ordered by ROB position — fed by rename and by
    /// dependency wakeup, drained by issue.
    ready: crate::sched::ReadyQueue,
    /// Monotone ROB position of the next allocation (rolled back on flush).
    rob_pushed: u64,
    /// ROB position of the current oldest entry (advanced at retire).
    rob_head: u64,
    /// Bit r set ⇔ `last_writer[r]` points to a µop whose value is not yet
    /// available; lets dependence registration skip the window lookup for
    /// ready registers.
    writer_pending: u32,
    idq: VecDeque<Fetched>,
    ras: ReturnStack,
    wrong_path: Option<WrongPath>,
    wp_seq_counter: u64,
    fetch_stall_until: u64,
    stack_rename: StackState,
    stack_retired: StackState,
    last_writer: [Option<(Tag, u64)>; 32],
    /// Per architectural register: `seq + 1` of the youngest correct-path
    /// writer renamed so far (0 = none since the last flush repair). Feeds
    /// the Constable arming-race guard: monitors are inserted at load
    /// *writeback*, which cannot see writers that renamed after the load.
    last_write_seq: [u64; 32],
    retired: u64,
    /// Speculative branch history for the value predictor (updated at
    /// rename of conditional branches with the trace outcome).
    vp_history: u64,
}

impl<'p> Thread<'p> {
    /// Builds a thread around recycled queue allocations (`ts` buffers are
    /// cleared by `SimScratch::reset_for_run` before they get here).
    fn new(
        id: usize,
        program: &'p Program,
        rob_cap: usize,
        ts: ThreadScratch,
        machine: Machine<'p>,
    ) -> Self {
        Thread {
            id,
            program,
            machine,
            pending: ts.pending,
            cursor: 0,
            rob: ts.rob,
            rob_cap,
            stores: ts.stores,
            loads: ts.loads,
            ready: ts.ready,
            rob_pushed: 0,
            rob_head: 0,
            writer_pending: 0,
            idq: ts.idq,
            ras: ReturnStack::new(),
            wrong_path: None,
            wp_seq_counter: 0,
            fetch_stall_until: 0,
            stack_rename: StackState::default(),
            stack_retired: StackState::default(),
            last_writer: [None; 32],
            last_write_seq: [0; 32],
            retired: 0,
            vp_history: 0,
        }
    }

    /// Dismantles the thread, returning its queue allocations for reuse.
    fn into_scratch(self) -> ThreadScratch {
        ThreadScratch {
            pending: self.pending,
            rob: self.rob,
            stores: self.stores,
            loads: self.loads,
            ready: self.ready,
            idq: self.idq,
        }
    }

    fn tag_addr(&self, addr: u64) -> u64 {
        addr + ((self.id as u64) << THREAD_TAG_SHIFT)
    }

    /// Functional record of an in-flight correct-path µop, addressed by
    /// its dynamic sequence number. Records are fetched ahead into
    /// `pending` and popped only when their µop retires, so every
    /// in-flight µop's record is `pending[seq - front.seq]` — µops carry
    /// the sequence, not a `DynInst` copy.
    #[inline]
    fn rec(&self, seq: u64) -> &DynInst {
        let front = self.pending.front().expect("in-flight µop has a record");
        let r = &self.pending[(seq - front.seq) as usize];
        debug_assert_eq!(r.seq, seq, "pending ring out of sync");
        r
    }

    fn tag_pc(&self, pc: u64) -> u64 {
        pc + ((self.id as u64) << THREAD_TAG_SHIFT)
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// All counters.
    pub stats: CoreStats,
    /// Retired instructions per thread.
    pub retired_per_thread: Vec<u64>,
    /// Hit the cycle guard before reaching the target (indicates a model
    /// problem; tests assert this is false).
    pub hit_cycle_guard: bool,
    /// Forensics of the first §8.5 golden-check divergence, if any (always
    /// populated when `stats.golden_mismatches > 0`).
    pub first_mismatch: Option<crate::fault::GoldenMismatch>,
    /// Frozen machine state captured by the forward-progress watchdog, if
    /// it aborted this run (see [`CoreConfig::watchdog_no_retire`]).
    pub watchdog: Option<crate::fault::FrozenSnapshot>,
}

impl SimResult {
    /// Instructions per cycle (aggregate across threads).
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Folds every failure condition of the run into one structured
    /// [`SimError`](crate::SimError): watchdog abort, cycle-guard overrun,
    /// or §8.5 golden divergence (with first-mismatch forensics). A clean
    /// run returns `Ok(())`; callers that used to `assert!` on
    /// `hit_cycle_guard`/`golden_mismatches` quarantine this instead.
    pub fn verify(&self) -> Result<(), crate::fault::SimError> {
        if let Some(snap) = &self.watchdog {
            return Err(crate::fault::SimError::Watchdog(snap.clone()));
        }
        if self.hit_cycle_guard {
            return Err(crate::fault::SimError::CycleGuard {
                cycle: self.stats.cycles,
                retired_per_thread: self.retired_per_thread.clone(),
            });
        }
        if self.stats.golden_mismatches > 0 {
            return Err(crate::fault::SimError::GoldenMismatch {
                count: self.stats.golden_mismatches,
                first: self.first_mismatch,
            });
        }
        Ok(())
    }

    /// Digest over every statistic that scheduling order could perturb —
    /// the counter list the scheduler-equivalence suite used to compare
    /// between the legacy and event-driven schedulers, now committed in
    /// the trace-oracle golden rows. The SLD updates-per-cycle histogram
    /// is folded shape-first: it is recorded per rename cycle, so it is
    /// sensitive to the idle fast-forward in a way no scalar counter is.
    /// The counters folded are the `digested` group of [`CoreStats`], in
    /// declaration order; the `kept_out` group and the engine's own
    /// `constable` counters stay out, so adding them moved no committed
    /// digest.
    pub fn stats_digest(&self) -> u64 {
        let s = &self.stats;
        let hist = &s.sld_updates_per_cycle;
        let mut d = sim_mem::TraceDigest::new();
        d.update_all(hist.bucket_counts().iter().copied());
        d.update(hist.total());
        d.update(hist.mean().to_bits());
        d.update_all(s.counters().take(CoreStats::DIGESTED));
        d.update(self.ipc().to_bits());
        d.update(self.retired_per_thread.len() as u64);
        d.update_all(self.retired_per_thread.iter().copied());
        d.finish()
    }
}

/// The core model. See the module docs for the stage breakdown.
pub struct Core<'p> {
    cfg: CoreConfig,
    threads: Vec<Thread<'p>>,
    window: Vec<Uop>,
    /// Trace-only pipeline stamps, parallel to `window`; written only
    /// when a tracer is attached (see [`UopStamps`]).
    stamps: Vec<UopStamps>,
    free_slots: Vec<Tag>,
    events: crate::sched::CompletionQueue,
    /// Scratch: completions due this cycle (sorted into program order).
    due: Vec<(u64, u64, Tag)>,
    /// Scratch: wakeup list of the µop currently completing.
    wake: Vec<(Tag, u64)>,
    /// Scratch: issue candidates for the current cycle, oldest first.
    cands: Vec<Tag>,
    rs_used: usize,
    lb_used: usize,
    sb_used: usize,
    mem: MemoryHierarchy,
    /// One TAGE per hardware thread: branch history must not interleave
    /// across SMT threads (it would make direction prediction depend on
    /// scheduling timing).
    tage: Vec<Tage>,
    eves: Option<Eves>,
    mrn: Option<Mrn>,
    storesets: StoreSets,
    cons: Option<Constable>,
    elar: Option<Elar>,
    rfp: Option<Rfp2>,
    injector: SnoopInjector,
    stats: CoreStats,
    now: u64,
    next_uid: u64,
    rename_block_until: u64,
    /// Parity-free frontend thread selection (modelled state, reset per
    /// run): round-robin pointers for the fetch and rename slots that
    /// advance only when the selected thread makes progress. Selection is
    /// a pure function of architectural state — never of `now` — which is
    /// what makes SMT2 idleness monotonic and the idle fast-forward valid
    /// for multi-thread runs.
    rotor: FrontendRotor,
    /// In-flight (renamed, unretired) correct-path instances per load PC;
    /// feeds the EVES stride component's run-ahead distance.
    inflight_loads: PcCountTable,
    /// Event-driven fast path: true when the last issue attempt found
    /// nothing to do and no backend state (completion, rename, retirement,
    /// flush) has changed since. Issue outcomes depend only on that state,
    /// so a quiescent cycle can skip the candidate gather and port
    /// arbitration entirely — the dominant per-cycle cost during long
    /// memory stalls. Never set when `cfg.event_shortcuts` is off, the
    /// knob the trace-oracle suite validates this shortcut against.
    issue_quiescent: bool,
    /// Whether any phase did work this cycle (fetched, renamed, issued,
    /// completed, retired, or flushed anything). Cleared at the top of each
    /// cycle; a fully idle cycle lets the event-driven run loop fast-forward
    /// to the next time-gated event.
    cycle_work: bool,
    /// Per-access L1-D eviction lines, delivered to the Constable-AMT-I
    /// consumer by [`Core::drain_evictions`]. Enabled only when that
    /// variant is configured; recycled via `SimScratch`.
    evict: EvictionSink,
    /// Global issue sequence number: incremented once per issued µop, in
    /// issue order (trace-oracle observable).
    issue_seq: u64,
    /// Forensics of the first golden-check divergence (cold: written at
    /// most once per run).
    first_mismatch: Option<crate::fault::GoldenMismatch>,
    /// Cycle of the most recent retirement, any thread (forward-progress
    /// watchdog input; only read when `cfg.watchdog_no_retire` is set).
    last_retire_cycle: u64,
    /// Attached scheduling-trace recorder (see [`crate::trace`]); `None`
    /// (and therefore free) outside the trace-oracle tests.
    tracer: Option<TraceRecorder>,
}

// Thin alias so the field reads naturally.
type Rfp2 = sim_predictors::Rfp;

/// The cycle at which [`Core::run`] gives up on a run of
/// `target_per_thread` instructions per thread: 400 cycles per instruction
/// plus 2 M of slack, saturating so a huge target cannot wrap it into a
/// small guard that trips on a healthy run.
fn cycle_guard(target_per_thread: u64) -> u64 {
    target_per_thread
        .saturating_mul(400)
        .saturating_add(2_000_000)
}

impl<'p> Core<'p> {
    /// Creates a single-threaded core running `program`.
    pub fn new(program: &'p Program, cfg: CoreConfig) -> Self {
        Self::new_multi(vec![program], cfg)
    }

    /// Creates a core running one program per hardware thread (SMT2 when
    /// two programs are given; §9.1.2). The ROB is statically partitioned;
    /// RS/LB/SB and all predictors are shared.
    ///
    /// # Panics
    /// Panics unless 1 or 2 programs are supplied.
    pub fn new_multi(programs: Vec<&'p Program>, cfg: CoreConfig) -> Self {
        Self::new_multi_with_scratch(programs, cfg, SimScratch::new())
    }

    /// Like [`Core::new_multi`], but reusing `scratch`'s allocations (the
    /// µop slab, free list, event heap, per-cycle buffers, and the memory
    /// hierarchy when its config is unchanged). Recover the
    /// scratch with [`Core::into_scratch`] after the run; a worker that
    /// loops (build → run → recycle) performs no steady-state window
    /// allocation across an entire suite.
    ///
    /// # Panics
    /// Panics unless 1 or 2 programs are supplied.
    pub fn new_multi_with_scratch(
        programs: Vec<&'p Program>,
        cfg: CoreConfig,
        scratch: SimScratch,
    ) -> Self {
        let machines = programs.iter().map(|p| Machine::new(p)).collect();
        Self::build(programs, machines, cfg, scratch)
    }

    fn build(
        programs: Vec<&'p Program>,
        machines: Vec<Machine<'p>>,
        cfg: CoreConfig,
        mut scratch: SimScratch,
    ) -> Self {
        assert!(
            (1..=2).contains(&programs.len()),
            "1 (noSMT) or 2 (SMT2) threads supported"
        );
        let rob_cap = cfg.rob_size / programs.len();
        let window_cap = cfg.rob_size + 8;
        scratch.reset_for_run(window_cap, programs.len());
        // Eviction tracking costs nothing unless the one consumer of L1-D
        // eviction lines — the Constable-AMT-I variant — is configured.
        scratch.evictions.set_enabled(
            cfg.constable
                .as_ref()
                .is_some_and(|c| c.amt_invalidate_on_l1_evict),
        );
        let threads: Vec<Thread<'p>> = programs
            .iter()
            .zip(machines)
            .enumerate()
            .map(|(i, (p, m))| Thread::new(i, p, rob_cap, scratch.take_thread(), m))
            .collect();
        let nthreads = threads.len();
        Core {
            mem: scratch.take_mem(cfg.mem),
            tage: (0..nthreads).map(|_| Tage::new()).collect(),
            eves: cfg.eves.then(Eves::new),
            mrn: cfg.mrn.then(Mrn::new),
            storesets: StoreSets::new(),
            cons: cfg.constable.clone().map(Constable::new),
            elar: cfg.elar.then(Elar::new),
            rfp: cfg.rfp.then(Rfp2::new),
            injector: SnoopInjector::new(cfg.snoop_rate_per_10k, cfg.seed),
            threads,
            window: scratch.window,
            stamps: scratch.stamps,
            free_slots: scratch.free_slots,
            events: scratch.events,
            due: scratch.due,
            wake: scratch.wake,
            cands: scratch.cands,
            rs_used: 0,
            lb_used: 0,
            sb_used: 0,
            stats: CoreStats::default(),
            now: 0,
            next_uid: 1,
            rename_block_until: 0,
            rotor: FrontendRotor::default(),
            inflight_loads: scratch.inflight_loads,
            issue_quiescent: false,
            cycle_work: false,
            evict: scratch.evictions,
            issue_seq: 0,
            first_mismatch: None,
            last_retire_cycle: 0,
            tracer: None,
            cfg,
        }
    }

    /// Attaches a scheduling-trace recorder; the next [`Core::run`] feeds
    /// it. Recover the sealed trace with [`Core::take_trace`].
    pub fn attach_tracer(&mut self, tracer: TraceRecorder) {
        self.tracer = Some(tracer);
    }

    /// Seals and returns the attached trace, if any (valid after
    /// [`Core::run`]).
    pub fn take_trace(&mut self) -> Option<TraceSummary> {
        let stack = self.stats.stall_cycles;
        self.tracer.take().map(|t| t.into_summary(stack))
    }

    /// Dismantles the core, returning its reusable allocations — including
    /// each thread's ROB, store/load rings, ready set, IDQ, and
    /// fetched-ahead buffer, and the memory hierarchy (reset when the next
    /// run takes it).
    pub fn into_scratch(self) -> SimScratch {
        SimScratch {
            window: self.window,
            stamps: self.stamps,
            free_slots: self.free_slots,
            events: self.events,
            due: self.due,
            wake: self.wake,
            cands: self.cands,
            evictions: self.evict,
            inflight_loads: self.inflight_loads,
            threads: self.threads.into_iter().map(Thread::into_scratch).collect(),
            mem: Some(self.mem),
        }
    }

    /// Runs until every thread has retired `target_per_thread` instructions
    /// (or a generous cycle guard trips, or the forward-progress watchdog
    /// aborts with a frozen snapshot).
    pub fn run(&mut self, target_per_thread: u64) -> SimResult {
        let guard = cycle_guard(target_per_thread);
        let mut hit_guard = false;
        let mut watchdog = None;
        while self.threads.iter().any(|t| t.retired < target_per_thread) {
            self.cycle_work = false;
            self.complete_phase();
            self.retire_phase();
            self.issue_phase();
            self.rename_phase();
            self.fetch_phase();
            let cls = if self.cycle_work {
                StallClass::Active
            } else {
                self.classify_idle()
            };
            let mut span = 1;
            // Event-driven fast-forward: a cycle in which no phase did any
            // work leaves the core's state frozen — nothing can change
            // until the next time-gated event (a completion, the end of a
            // rename-port stall, or the end of a fetch redirect, minimized
            // across every thread). Jump `now` straight there; every
            // skipped cycle would have been an exact no-op, so the cycle
            // count (and with it every statistic) is unchanged. This holds
            // for SMT2 as much as for single-thread runs because frontend
            // thread selection is rotor state that only moves on progress,
            // never a function of `now`: an idle cycle's selection decision
            // replays identically until an event lands. Retire's intra-
            // cycle thread order does read `now`-parity, but it only acts
            // when some ROB head is Done, which requires a completion —
            // an event that ends the span. `cfg.event_shortcuts = false`
            // (the shortcut-validation knob) forces the plain
            // cycle-by-cycle execution the trace-oracle suite compares
            // this against.
            if self.cfg.event_shortcuts && !self.cycle_work {
                if let Some(next) = self.next_event_time() {
                    debug_assert!(next > self.now, "event in the past on an idle cycle");
                    // Idle cycles still leave one statistical trace: when
                    // rename is unblocked, a Constable config records a
                    // zero into the SLD updates-per-cycle histogram each
                    // cycle some IDQ is non-empty (rename_phase reaches
                    // `end_cycle` and records 0 without renaming). Account
                    // the skipped cycles' zeros in bulk so the histogram
                    // stays bit-identical to the unshortened execution. If
                    // rename is *blocked*, `next` never passes
                    // `rename_block_until` (it is one of the candidate
                    // events), so the whole skipped region records nothing
                    // — exactly as a cycle-by-cycle run would.
                    let skipped = next - 1 - self.now;
                    if skipped > 0
                        && self.now >= self.rename_block_until
                        && self.cons.is_some()
                        && self.threads.iter().any(|t| !t.idq.is_empty())
                    {
                        self.stats.sld_updates_per_cycle.record_n(0, skipped);
                    }
                    // The skipped cycles are frozen replicas of the idle
                    // cycle just classified: they count under its class.
                    span += skipped;
                    self.now = next - 1;
                }
            }
            // Every cycle lands in the stall stack, so it sums to `cycles`.
            // The tracer's stream is run-length compressed, so recording a
            // span at once digests like recording its cycles one by one.
            self.stats.stall_cycles[cls as usize] += span;
            if let Some(tr) = self.tracer.as_mut() {
                tr.record_cycles(cls, span);
            }
            self.now += 1;
            // Forward-progress watchdog: a run in which no thread retires
            // anything for the configured budget is wedged (the budget sits
            // far above any legitimate stall span); freeze a snapshot and
            // abort instead of spinning to the much larger cycle guard.
            if let Some(budget) = self.cfg.watchdog_no_retire {
                if self.now - self.last_retire_cycle > budget {
                    watchdog = Some(self.freeze_snapshot());
                    break;
                }
            }
            if self.now >= guard {
                hit_guard = true;
                break;
            }
        }
        self.seal_result(hit_guard, watchdog)
    }

    /// Folds the memory-hierarchy and Constable counters (the derived
    /// per-unit counts and the engine's own [`constable::ConstableStats`])
    /// into the stats and builds the run's [`SimResult`].
    fn seal_result(
        &mut self,
        hit_cycle_guard: bool,
        watchdog: Option<crate::fault::FrozenSnapshot>,
    ) -> SimResult {
        self.stats.cycles = self.now;
        // Fold hierarchy counters into the core stats.
        let h = self.mem.stats();
        self.stats.l1d_accesses = h.loads.get() + h.stores.get();
        let (_, l2, _) = self.mem.cache_stats();
        self.stats.l2_accesses = l2.accesses.get();
        self.stats.dram_accesses = h.dram_accesses.get();
        self.stats.snoops_delivered = h.snoops.get();
        if let Some(c) = &self.cons {
            let cs = c.stats();
            self.stats.sld_reads = cs.loads_renamed;
            self.stats.sld_writes =
                cs.resets_reg_write + cs.resets_store + cs.resets_snoop + cs.armed;
            self.stats.amt_probes = cs.resets_store + cs.resets_snoop + cs.armed;
            self.stats.cv_pins = cs.cv_pins_requested;
            self.stats.constable = cs.clone();
        }
        SimResult {
            stats: self.stats.clone(),
            retired_per_thread: self.threads.iter().map(|t| t.retired).collect(),
            hit_cycle_guard,
            first_mismatch: self.first_mismatch,
            watchdog,
        }
    }

    /// Captures the machine state the watchdog aborted on (cold path).
    fn freeze_snapshot(&self) -> crate::fault::FrozenSnapshot {
        crate::fault::FrozenSnapshot {
            cycle: self.now,
            last_retire_cycle: self.last_retire_cycle,
            retired_per_thread: self.threads.iter().map(|t| t.retired).collect(),
            rob_occupancy: self.threads.iter().map(|t| t.rob.len()).collect(),
            rob_head: self
                .threads
                .iter()
                .map(|t| {
                    t.rob.front().map(|&tag| {
                        let u = &self.window[tag];
                        let state = match u.state {
                            UopState::Waiting => "Waiting",
                            UopState::Ready => "Ready",
                            UopState::Issued => "Issued",
                            UopState::Done => "Done",
                        };
                        (u.pc, state)
                    })
                })
                .collect(),
            next_event: self.next_event_time(),
        }
    }

    /// Statistics so far (valid after [`Core::run`]).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The Constable engine, when configured (for tests/analysis).
    pub fn constable(&self) -> Option<&Constable> {
        self.cons.as_ref()
    }

    // ----------------------------------------------------------------- fetch

    fn fetch_phase(&mut self) {
        let nthreads = self.threads.len();
        // 1 or 2 threads, always a power of two: rotate with a mask, not a
        // hardware division.
        let tmask = nthreads - 1;
        // Parity-free round-robin: the rotor's thread has first claim on
        // the slot, but a stalled or IDQ-full thread is skipped in the same
        // cycle rather than burning it (ICOUNT-lite). The pointer advances
        // only past a thread that actually fetched, so a skipped thread
        // keeps its priority and selection never depends on `now` parity.
        let Some(tid) = (0..nthreads)
            .map(|off| (self.rotor.fetch + off) & tmask)
            .find(|&t| {
                self.now >= self.threads[t].fetch_stall_until
                    && self.threads[t].idq.len() < self.cfg.idq_size
            })
        else {
            return;
        };
        let mut budget = self.cfg.fetch_width.min(self.cfg.decode_width);
        // An eligible thread always delivers at least one µop (both the
        // wrong-path and correct-path arms below push unconditionally), so
        // the slot is used: rotate first claim to the other thread. The
        // budget guard keeps the rotor frozen on cycles fetch cannot touch
        // — a rotor write on a no-work cycle would break the idle-cycle
        // fast-forward's fixed-point argument.
        if budget > 0 {
            self.rotor.fetch_progressed(tid, tmask);
        }
        // One disjoint-field borrow for the whole budget loop: `th` and
        // `tage` are re-resolved once, not once per fetched µop.
        let now = self.now;
        let idq_cap = self.cfg.idq_size;
        let wrong_path_fetch = self.cfg.wrong_path_fetch;
        let th = &mut self.threads[tid];
        let tage = &mut self.tage[tid];
        let stats = &mut self.stats;
        while budget > 0 && th.idq.len() < idq_cap {
            if let Some(wp_sidx) = th.wrong_path.as_ref().map(|wp| wp.next_sidx) {
                // Wrong-path fetch: real static instructions from the
                // predicted (wrong) target, following further predictions.
                let sidx = wp_sidx % th.program.len() as u32;
                let inst = *th.program.inst(sidx);
                let pred_pc = th.tag_pc(inst.pc.0);
                let next_sidx = match inst.kind {
                    OpKind::Branch(BranchKind::Jump { target })
                    | OpKind::Branch(BranchKind::Call { target }) => target,
                    OpKind::Branch(BranchKind::Cond { target, .. }) => {
                        if tage.predict(pred_pc) {
                            target
                        } else {
                            sidx + 1
                        }
                    }
                    _ => sidx + 1,
                };
                if let Some(wp) = th.wrong_path.as_mut() {
                    wp.next_sidx = next_sidx;
                }
                th.idq.push_back(Fetched {
                    thread: tid,
                    sidx,
                    wrong_path: true,
                    seq: 0,
                    mispredicted: false,
                    fetched_at: now,
                });
                stats.fetched_wrong_path += 1;
                self.cycle_work = true;
                budget -= 1;
                continue;
            }
            // Correct path: pull the next functional record.
            while th.pending.len() <= th.cursor {
                th.pending.push_back(th.machine.step());
            }
            let rec = th.pending[th.cursor];
            let inst = *th.program.inst(rec.sidx);
            let ppc = th.tag_pc(inst.pc.0);
            let mut mispredicted = false;
            let mut wrong_target = 0u32;
            let mut pred_taken = false;
            if let OpKind::Branch(kind) = inst.kind {
                match kind {
                    BranchKind::Cond { target, .. } => {
                        pred_taken = tage.predict(ppc);
                        tage.update(ppc, rec.taken);
                        mispredicted = pred_taken != rec.taken;
                        wrong_target = if pred_taken { target } else { rec.sidx + 1 };
                    }
                    BranchKind::Jump { .. } => pred_taken = true,
                    BranchKind::Call { .. } => {
                        th.ras.push(inst.pc.fallthrough().0);
                        pred_taken = true;
                    }
                    BranchKind::Ret => {
                        pred_taken = true;
                        let predicted = th.ras.pop();
                        if predicted != Some(rec.next_pc.0) {
                            mispredicted = true;
                            wrong_target = predicted.map(|p| Pc(p).index()).unwrap_or(rec.sidx + 1);
                        }
                    }
                    BranchKind::Indirect => {
                        // Not emitted by the generator; treat as mispredicted.
                        mispredicted = true;
                        wrong_target = rec.sidx + 1;
                    }
                }
            }
            th.cursor += 1;
            th.idq.push_back(Fetched {
                thread: tid,
                sidx: rec.sidx,
                wrong_path: false,
                seq: rec.seq,
                mispredicted,
                fetched_at: now,
            });
            stats.fetched += 1;
            self.cycle_work = true;
            budget -= 1;
            if mispredicted {
                stats.branch_mispredicts += 1;
                if wrong_path_fetch {
                    th.wrong_path = Some(WrongPath {
                        next_sidx: wrong_target,
                        cause_seq: rec.seq,
                    });
                } else {
                    // No wrong-path modeling: stall fetch until resolution
                    // (handled by the redirect at branch completion).
                    th.fetch_stall_until = u64::MAX;
                }
                break;
            }
            if inst.is_branch() && (rec.taken || pred_taken) {
                break; // fetch break after a taken branch
            }
        }
    }

    // ---------------------------------------------------------------- rename

    /// Registers `consumer`'s dependence on the last writer of `reg`.
    fn add_reg_dep(&mut self, tid: usize, reg: ArchReg, consumer: Tag) {
        // Scoreboard fast path: a clear bit proves the last writer's value
        // is already available (or there is no writer), so no dependence.
        if self.threads[tid].writer_pending & (1u32 << reg.index()) == 0 {
            return;
        }
        let Some((ptag, puid)) = self.threads[tid].last_writer[reg.index()] else {
            return;
        };
        let cuid = self.window[consumer].uid;
        let p = &mut self.window[ptag];
        if p.valid && p.uid == puid && !p.value_available() {
            p.consumers.push((consumer, cuid));
            self.window[consumer].pending_deps += 1;
        }
    }

    fn rename_phase(&mut self) {
        if self.now < self.rename_block_until {
            return;
        }
        let nthreads = self.threads.len();
        let tmask = nthreads - 1;
        if self.threads.iter().all(|t| t.idq.is_empty()) {
            return;
        }
        let mut budget = self.cfg.rename_width;
        let mut loads_this_cycle = 0u32;
        // Parity-free selection: the rotor's thread has first claim on the
        // rename slot; a thread whose IDQ is empty or whose front µop is
        // hazard-blocked cedes the slot to the other thread *in the same
        // cycle* instead of burning it, and the pointer advances only past
        // a thread that renamed at least one µop — a blocked thread keeps
        // its claim. The SLD read-port pool (`loads_this_cycle`) is a
        // per-cycle resource shared across the attempts.
        for off in 0..nthreads {
            let tid = (self.rotor.rename + off) & tmask;
            if self.threads[tid].idq.is_empty() {
                continue;
            }
            if self.rename_from(tid, &mut budget, &mut loads_this_cycle) {
                self.rotor.rename_progressed(tid, tmask);
                break;
            }
        }
        // SLD write-port pressure (§6.7.1): more rename-stage SLD updates
        // than ports stall rename for the overflow cycles.
        if let Some(c) = &mut self.cons {
            let (_, writes) = c.end_cycle();
            self.stats.sld_updates_per_cycle.record(u64::from(writes));
            let ports = self.cfg_sld_write_ports();
            if writes > ports {
                let extra = u64::from(writes - ports).div_ceil(u64::from(ports.max(1)));
                self.rename_block_until = self.now + 1 + extra;
                self.stats.rename_stalls_sld_write += extra;
            }
        }
    }

    /// Renames µops from `tid`'s IDQ until the shared `budget` runs out or
    /// the front µop hits a hazard. Returns whether anything renamed (the
    /// rotor-advance / slot-ceding signal for [`Core::rename_phase`]).
    fn rename_from(&mut self, tid: usize, budget: &mut u32, loads_this_cycle: &mut u32) -> bool {
        let mut renamed_any = false;
        while *budget > 0 {
            let th = &self.threads[tid];
            let Some(f) = th.idq.front() else { break };
            let inst = *th.program.inst(f.sidx);
            // Structural hazards.
            if th.rob.len() >= th.rob_cap {
                break;
            }
            if inst.is_load() && self.lb_used >= self.cfg.lb_size {
                break;
            }
            if inst.is_store() && self.sb_used >= self.cfg.sb_size {
                break;
            }
            if self.rs_used >= self.cfg.rs_size {
                break;
            }
            if self.cons.is_some()
                && inst.is_load()
                && *loads_this_cycle >= self.cfg.rename_width.min(self.sld_read_ports())
            {
                self.stats.rename_stalls_sld_read += 1;
                // The stall counter is observable state mutated this cycle,
                // so the cycle is not idle — without this, a degenerate
                // sld_read_ports=0 config would fast-forward past cycles
                // that must each increment the counter (the zero-SLD-port
                // trace-oracle row locks this).
                self.cycle_work = true;
                break;
            }
            let f = self.threads[tid].idq.pop_front().expect("checked above");
            if inst.is_load() {
                *loads_this_cycle += 1;
            }
            self.rename_one(tid, f, inst);
            *budget -= 1;
            renamed_any = true;
        }
        renamed_any
    }

    fn sld_read_ports(&self) -> u32 {
        self.cfg
            .constable
            .as_ref()
            .map(|c| c.sld_read_ports)
            .unwrap_or(u32::MAX)
    }

    fn cfg_sld_write_ports(&self) -> u32 {
        self.cfg
            .constable
            .as_ref()
            .map(|c| c.sld_write_ports)
            .unwrap_or(u32::MAX)
    }

    #[allow(clippy::too_many_lines)]
    fn rename_one(&mut self, tid: usize, f: Fetched, inst: sim_isa::StaticInst) {
        self.issue_quiescent = false;
        self.cycle_work = true;
        let tag = self.free_slots.pop().expect("window sized to ROB");
        debug_assert!(!self.window[tag].valid, "free slot must be reset");
        let uid = self.next_uid;
        self.next_uid += 1;

        let raw_pc = inst.pc.0;
        // One thread borrow for all the rename-time thread state.
        let (seq, ppc, rob_pos, stack_before) = {
            let th = &mut self.threads[tid];
            let seq = if f.wrong_path {
                th.wp_seq_counter += 1;
                u64::MAX / 2 + th.wp_seq_counter
            } else {
                f.seq
            };
            (seq, th.tag_pc(raw_pc), th.rob_pushed, th.stack_rename)
        };

        // The slot comes off the free list already reset (the squash and
        // retire paths guarantee it), so rename writes its fields straight
        // into the slab — no quarter-KiB stack temporary and no slot copy.
        let is_load = inst.is_load();
        {
            let w = &mut self.window[tag];
            w.valid = true;
            w.uid = uid;
            w.thread = tid;
            w.seq = seq;
            w.sidx = f.sidx;
            w.pc = ppc;
            w.cls = inst.class();
            w.dst = inst.dst;
            w.wrong_path = f.wrong_path;
            w.is_load = is_load;
            w.is_store = inst.is_store();
            w.is_branch = inst.is_branch();
            w.mispredicted = f.mispredicted;
            w.rob_pos = rob_pos;
            if let OpKind::Load { size, .. } | OpKind::Store { size, .. } = inst.kind {
                w.size = size;
            }

            // Baseline rename-stage folding (§8.1).
            w.folded = match inst.kind {
                OpKind::Nop => true,
                OpKind::Mov => self.cfg.move_zero_elimination,
                OpKind::MovImm => self.cfg.constant_folding,
                OpKind::Branch(BranchKind::Jump { .. }) => self.cfg.branch_folding,
                OpKind::Branch(BranchKind::Call { .. }) | OpKind::Branch(BranchKind::Ret) => {
                    self.cfg.branch_folding
                }
                OpKind::Alu(AluOp::Xor) if inst.is_zero_idiom() => self.cfg.move_zero_elimination,
                _ => false,
            };
        }

        if self.tracer.is_some() {
            self.stamps[tag] = UopStamps {
                fetched_at: f.fetched_at,
                renamed_at: self.now,
                ..UopStamps::default()
            };
        }

        // ---------------- load-side speculation decisions -----------------
        if is_load {
            let mem = *inst.mem_ref().expect("loads have a memory operand");
            // Constable (steps 1–3 of Fig 8).
            let wp_ok = self
                .cfg
                .constable
                .as_ref()
                .map(|c| c.wrong_path_updates)
                .unwrap_or(false);
            if let Some(c) = &mut self.cons {
                if !f.wrong_path || wp_ok {
                    match c.rename_load(ppc, &mem, stack_before) {
                        LoadRename::Eliminated { addr, value, slot } => {
                            // Guard against the §6.5 race: if the store-set
                            // predictor links this load to an in-flight store
                            // whose address is still unresolved (a previous
                            // ordering violation trained the pair), execute
                            // it normally instead of risking another flush.
                            let my_set = self.storesets.set_of(ppc);
                            let conflict = my_set.is_some()
                                && self.threads[tid].stores.iter().any(|&t| {
                                    let s = &self.window[t];
                                    s.valid
                                        && s.is_store
                                        && !s.wrong_path
                                        && !s.addr_known
                                        && self.storesets.set_of(s.pc) == my_set
                                });
                            if conflict {
                                c.free_xprf(slot);
                            } else {
                                let w = &mut self.window[tag];
                                w.eliminated = true;
                                w.folded = true;
                                w.xprf = Some(slot);
                                w.addr = addr;
                                w.addr_known = true;
                                w.result = value;
                            }
                        }
                        LoadRename::LikelyStable => self.window[tag].likely_stable = true,
                        LoadRename::Normal => {}
                    }
                }
            }
            // Ideal oracle configurations (Fig 7).
            if let Some(ideal) = self.cfg.ideal {
                if !f.wrong_path && self.cfg.oracle.is_stable(raw_pc) {
                    if let Some(acc) = self.threads[tid].rec(seq).mem {
                        let paddr = self.threads[tid].tag_addr(acc.addr);
                        let w = &mut self.window[tag];
                        match ideal {
                            IdealConfig::IdealConstable => {
                                w.eliminated = true;
                                w.ideal_eliminated = true;
                                w.folded = true;
                                w.addr = paddr;
                                w.addr_known = true;
                                w.result = acc.value;
                            }
                            IdealConfig::IdealStableLvp => {
                                w.value_predicted = true;
                                w.vp_value = acc.value;
                            }
                            IdealConfig::IdealStableLvpNoFetch => {
                                w.value_predicted = true;
                                w.vp_value = acc.value;
                                w.no_data_fetch = true;
                            }
                        }
                    }
                }
            }
            // EVES value prediction.
            if !f.wrong_path && {
                let w = &self.window[tag];
                !w.eliminated && !w.value_predicted
            } {
                if let Some(e) = &mut self.eves {
                    self.stats.eves_lookups += 1;
                    let inflight = self.inflight_loads.get(ppc);
                    let hist = self.threads[tid].vp_history;
                    let pred = e.predict(ppc, hist, inflight);
                    let w = &mut self.window[tag];
                    w.vp_history = hist;
                    if let Some(p) = pred {
                        w.value_predicted = true;
                        w.vp_value = p.value;
                    }
                }
            }
            // Memory Renaming: forward from the predicted producer store.
            if !f.wrong_path {
                let blocked = {
                    let w = &self.window[tag];
                    w.eliminated || w.value_predicted
                };
                if !blocked {
                    if let Some(m) = &self.mrn {
                        if let Some(pred) = m.predict(ppc) {
                            // Youngest in-flight correct-path store with that PC.
                            let th = &self.threads[tid];
                            let hit = th.stores.iter().rev().find_map(|&t| {
                                let s = &self.window[t];
                                (s.valid && s.is_store && !s.wrong_path && s.pc == pred.store_pc)
                                    .then(|| th.rec(s.seq).mem.map(|a| a.value))
                                    .flatten()
                            });
                            if let Some(v) = hit {
                                let w = &mut self.window[tag];
                                w.mrn_forwarded = true;
                                w.mrn_value = v;
                            }
                        }
                    }
                }
            }
            // ELAR: stack loads resolve their address before rename.
            if !self.window[tag].eliminated {
                if let Some(el) = &mut self.elar {
                    if el.can_resolve(&mem) {
                        self.window[tag].elar_resolved = true;
                        self.stats.elar_resolved += 1;
                    }
                }
            }
            // RFP: predict the address and stage the data early.
            if !f.wrong_path && !self.window[tag].eliminated {
                if let Some(r) = &mut self.rfp {
                    if let Some(addr) = r.predict(ppc) {
                        let paddr = self.threads[tid].tag_addr(addr);
                        let out = self.mem.load(ppc, paddr, self.now, &mut self.evict);
                        let w = &mut self.window[tag];
                        w.rfp_addr = Some(addr);
                        w.rfp_ready_at = Some(self.now + out.latency);
                        self.drain_evictions();
                    }
                }
            }
        }

        // ---------------- dependences ------------------------------------
        {
            // Data sources (registered straight off the operand lists — no
            // temporary collection).
            match inst.kind {
                OpKind::Load { mem, .. } => {
                    let w = &self.window[tag];
                    if !w.eliminated && !w.elar_resolved {
                        for reg in mem.addr_regs() {
                            self.add_reg_dep(tid, reg, tag);
                        }
                    }
                }
                OpKind::Store { mem, .. } => {
                    if let Some(reg) = inst.srcs[0] {
                        self.add_reg_dep(tid, reg, tag);
                    }
                    for reg in mem.addr_regs() {
                        self.add_reg_dep(tid, reg, tag);
                    }
                }
                OpKind::Lea(mem) => {
                    for reg in mem.addr_regs() {
                        self.add_reg_dep(tid, reg, tag);
                    }
                }
                OpKind::Alu(_) | OpKind::Mov | OpKind::Branch(_) => {
                    for reg in inst.srcs.iter().flatten() {
                        self.add_reg_dep(tid, *reg, tag);
                    }
                }
                OpKind::MovImm | OpKind::Nop => {}
            }
        }

        // ---------------- destination write hooks ------------------------
        let folded_rsp = inst.dst == Some(ArchReg::RSP)
            && matches!(inst.kind, OpKind::Alu(AluOp::Add) | OpKind::Alu(AluOp::Sub))
            && inst.srcs[0] == Some(ArchReg::RSP)
            && inst.srcs[1].is_none();
        if let Some(dst) = inst.dst {
            let wp_ok = self
                .cfg
                .constable
                .as_ref()
                .map(|c| c.wrong_path_updates)
                .unwrap_or(false);
            if let Some(c) = &mut self.cons {
                if !f.wrong_path || wp_ok {
                    c.on_dest_write(dst, folded_rsp);
                }
            }
            if let Some(el) = &mut self.elar {
                let folded_for_elar = folded_rsp
                    || (dst == ArchReg::RBP
                        && matches!(inst.kind, OpKind::Mov)
                        && inst.srcs[0] == Some(ArchReg::RSP));
                el.on_reg_write(dst, folded_for_elar);
            }
            // Rename-side stack-delta tracker.
            if dst == ArchReg::RSP {
                let th = &mut self.threads[tid];
                if folded_rsp {
                    let delta = match inst.kind {
                        OpKind::Alu(AluOp::Add) => inst.imm,
                        _ => -inst.imm,
                    };
                    th.stack_rename.delta += delta;
                } else {
                    th.stack_rename.epoch += 1;
                    th.stack_rename.delta = 0;
                }
            }
            // Scoreboard: bit set while the new writer's value is pending.
            // (All rename-time availability flags — folded, eliminated,
            // value-predicted, MRN-forwarded — are final by this point.)
            let pending = !self.window[tag].value_available();
            let th = &mut self.threads[tid];
            th.last_writer[dst.index()] = Some((tag, uid));
            if !f.wrong_path {
                th.last_write_seq[dst.index()] = seq + 1;
            }
            let bit = 1u32 << dst.index();
            if pending {
                th.writer_pending |= bit;
            } else {
                th.writer_pending &= !bit;
            }
        }
        self.window[tag].stack_after = self.threads[tid].stack_rename;

        // ---------------- allocation -------------------------------------
        // Folded correct-path non-loads produce their architectural result
        // right here at rename (folded branches also resolve here; a folded
        // mispredict — RAS underflow on Ret — redirects below).
        let folded_result = {
            let u = &self.window[tag];
            (u.folded && !u.wrong_path && !u.is_load).then(|| self.threads[tid].rec(seq).dst_value)
        };
        let u = &mut self.window[tag];
        if u.folded {
            u.state = UopState::Done;
            u.complete_at = self.now;
            if let Some(v) = folded_result {
                u.result = v;
            }
        } else {
            u.in_rs = true;
            self.rs_used += 1;
            self.stats.rs_allocs += 1;
            u.state = if u.pending_deps == 0 {
                UopState::Ready
            } else {
                UopState::Waiting
            };
        }
        if u.is_load {
            u.in_lb = true;
            self.lb_used += 1;
            self.stats.lb_allocs += 1;
            // The in-flight count table has exactly one consumer — the
            // EVES stride component's run-ahead distance — so the hash
            // traffic (rename/retire/squash of every correct-path load)
            // is skipped entirely on machines without EVES.
            if !u.wrong_path && self.eves.is_some() {
                self.inflight_loads.inc(u.pc);
            }
        }
        if u.is_store {
            u.in_sb = true;
            self.sb_used += 1;
            self.stats.sb_allocs += 1;
        }
        self.stats.rob_allocs += 1;
        self.stats.renamed += 1;
        self.stats.decoded += 1;
        {
            let ready_now = self.window[tag].state == UopState::Ready;
            let (is_load, is_store, pos) = {
                let u = &self.window[tag];
                (u.is_load, u.is_store, u.rob_pos)
            };
            let th = &mut self.threads[tid];
            th.rob.push_back(tag);
            th.rob_pushed += 1;
            if is_load {
                th.loads.push_back(tag);
            }
            if is_store {
                th.stores.push_back(tag);
            }
            if ready_now {
                th.ready.insert((pos, tag));
            }
        }

        // Advance the speculative value-predictor history on conditional
        // branches (outcome known from the trace).
        if matches!(inst.kind, OpKind::Branch(BranchKind::Cond { .. })) && !f.wrong_path {
            let taken = self.threads[tid].rec(seq).taken;
            let th = &mut self.threads[tid];
            th.vp_history = (th.vp_history << 1) | u64::from(taken);
        }

        // A folded mispredicted branch (e.g. polluted RAS return) resolves
        // right here at rename.
        if self.window[tag].folded && self.window[tag].is_branch && self.window[tag].mispredicted {
            self.resolve_mispredict(tag);
        }
    }

    // ----------------------------------------------------------------- issue

    /// Fills `self.cands` with this cycle's issue candidates — the ready
    /// queues merged oldest first across threads, measured by ROB depth
    /// (position-interleaved, thread 0 breaking ties). Every element is
    /// issue-eligible; no window scan happens here.
    fn gather_candidates(&mut self) {
        let mut cands = std::mem::take(&mut self.cands);
        cands.clear();
        match &self.threads[..] {
            [t] => cands.extend(t.ready.iter().map(|&(_, tag)| tag)),
            [t0, t1] => {
                let mut a = t0.ready.iter().peekable();
                let mut b = t1.ready.iter().peekable();
                loop {
                    match (a.peek(), b.peek()) {
                        (Some(&&(pa, ta)), Some(&&(pb, tb))) => {
                            if pa - t0.rob_head <= pb - t1.rob_head {
                                cands.push(ta);
                                a.next();
                            } else {
                                cands.push(tb);
                                b.next();
                            }
                        }
                        (Some(&&(_, ta)), None) => {
                            cands.push(ta);
                            a.next();
                        }
                        (None, Some(&&(_, tb))) => {
                            cands.push(tb);
                            b.next();
                        }
                        (None, None) => break,
                    }
                }
            }
            _ => unreachable!("1 or 2 threads"),
        }
        self.cands = cands;
    }

    fn issue_phase(&mut self) {
        if self.issue_quiescent {
            return;
        }
        let mut alu_used = 0u32;
        let mut load_used = 0u32;
        let mut sta_used = 0u32;
        let mut std_used = 0u32;
        let mut budget = self.cfg.issue_width;
        let mut any_load_issued = false;
        let mut stable_issued = false;
        let mut nonstable_waiting = false;

        self.gather_candidates();
        let cands = std::mem::take(&mut self.cands);

        for &tag in &cands {
            if budget == 0 {
                break;
            }
            let u = &self.window[tag];
            if !u.valid || !u.in_rs || u.state != UopState::Ready {
                continue;
            }
            let cls = u.cls;
            match cls {
                InstClass::Load => {
                    let raw_pc = u.pc & ((1 << THREAD_TAG_SHIFT) - 1);
                    let is_stable = self.cfg.oracle.is_stable(raw_pc);
                    if load_used >= self.cfg.load_ports {
                        nonstable_waiting |= !is_stable;
                        continue;
                    }
                    if self.try_issue_load(tag) {
                        self.ready_remove(tag);
                        load_used += 1;
                        budget -= 1;
                        any_load_issued = true;
                        stable_issued |= is_stable;
                        self.stats.loads_issued += 1;
                    }
                }
                InstClass::Store => {
                    if sta_used >= self.cfg.sta_ports || std_used >= self.cfg.std_ports {
                        continue;
                    }
                    let complete_at = self.now + self.cfg.agu_latency;
                    self.stamp_issue(tag);
                    let u = &mut self.window[tag];
                    u.state = UopState::Issued;
                    u.in_rs = false;
                    u.complete_at = complete_at;
                    let (seq, uid, tid, pos) = (u.seq, u.uid, u.thread, u.rob_pos);
                    self.issue_seq += 1;
                    self.rs_used -= 1;
                    self.push_completion(complete_at, seq, uid, tag);
                    self.threads[tid].ready.remove(&(pos, tag));
                    sta_used += 1;
                    std_used += 1;
                    budget -= 1;
                    self.stats.agu_uses += 1;
                }
                InstClass::Alu
                | InstClass::Mul
                | InstClass::Div
                | InstClass::Branch
                | InstClass::Move
                | InstClass::Nop => {
                    if alu_used >= self.cfg.alu_ports {
                        continue;
                    }
                    let lat = match cls {
                        InstClass::Mul => self.cfg.mul_latency,
                        InstClass::Div => self.cfg.div_latency,
                        _ => self.cfg.alu_latency,
                    };
                    let complete_at = self.now + lat;
                    self.stamp_issue(tag);
                    let u = &mut self.window[tag];
                    u.state = UopState::Issued;
                    u.in_rs = false;
                    u.complete_at = complete_at;
                    let (seq, uid, tid, pos) = (u.seq, u.uid, u.thread, u.rob_pos);
                    self.issue_seq += 1;
                    self.rs_used -= 1;
                    self.push_completion(complete_at, seq, uid, tag);
                    self.threads[tid].ready.remove(&(pos, tag));
                    alu_used += 1;
                    budget -= 1;
                    self.stats.alu_execs += 1;
                }
            }
        }
        self.cands = cands;

        if any_load_issued {
            self.stats.load_utilized_cycles += 1;
            if stable_issued && nonstable_waiting {
                self.stats.load_cycles_stable_blocking += 1;
            } else if stable_issued {
                self.stats.load_cycles_stable_free += 1;
            }
        }
        // A cycle that issued nothing left no trace (no stats, no events,
        // no window changes), so the attempt need not repeat until some
        // backend state changes.
        if budget == self.cfg.issue_width {
            if self.cfg.event_shortcuts {
                self.issue_quiescent = true;
            }
        } else {
            self.cycle_work = true;
        }
    }

    /// Classifies an idle cycle (no phase did work) by its frozen state.
    ///
    /// Every predicate is constant over a fast-forward span: the span ends
    /// at the *earliest* time-gated event, so `rename_block_until` /
    /// `fetch_stall_until` comparisons and the ROB fronts cannot change
    /// mid-span. That makes bulk-recording the span under one class
    /// bit-identical to classifying each cycle in turn.
    ///
    /// SMT attribution: classes describe the *core*, not one thread, and
    /// the dominant blocker wins. A cycle counts as [`StallClass::Memory`]
    /// if **any** thread's oldest µop is an issued load still in the
    /// hierarchy (a DRAM-bound sibling dominates — it gates the span's
    /// length even when the other thread is merely execution-stalled);
    /// the window counts as empty only when **every** thread's ROB is, and
    /// an empty core is a [`StallClass::FetchRedirect`] if any thread is
    /// still riding out a redirect. These predicates are per-thread
    /// disjunctions of frozen state, so they too are span-constant.
    fn classify_idle(&self) -> StallClass {
        if self.now < self.rename_block_until {
            return StallClass::RenameBlocked;
        }
        let mut window_empty = true;
        let mut oldest_is_issued_load = false;
        for th in &self.threads {
            if let Some(&tag) = th.rob.front() {
                window_empty = false;
                let u = &self.window[tag];
                oldest_is_issued_load |= u.is_load && u.state == UopState::Issued;
            }
        }
        if !window_empty {
            if oldest_is_issued_load {
                StallClass::Memory
            } else {
                StallClass::Execution
            }
        } else if self.threads.iter().any(|t| t.fetch_stall_until > self.now) {
            StallClass::FetchRedirect
        } else {
            StallClass::FrontEnd
        }
    }

    /// Earliest future time at which a fully idle core's state can change:
    /// the next completion event, the end of a rename-port stall, or the
    /// end of a fetch redirect. `None` when nothing is pending (the cycle
    /// guard covers that pathological case).
    fn next_event_time(&self) -> Option<u64> {
        let mut next = self.events.next_time(self.now).unwrap_or(u64::MAX);
        if self.rename_block_until > self.now {
            next = next.min(self.rename_block_until);
        }
        for th in &self.threads {
            // u64::MAX marks a stall resolved by a branch completion (an
            // event already in the heap), not by time.
            if th.fetch_stall_until > self.now && th.fetch_stall_until != u64::MAX {
                next = next.min(th.fetch_stall_until);
            }
        }
        (next != u64::MAX && next > self.now).then_some(next)
    }

    /// Delivers collected L1-D eviction lines to the Constable-AMT-I
    /// consumer and resets the sink. The sink only fills when that variant
    /// is configured (see `wants_l1_evictions`), so this is a single
    /// is-empty check on every other machine.
    #[inline]
    fn drain_evictions(&mut self) {
        if self.evict.is_empty() {
            return;
        }
        if let Some(c) = &mut self.cons {
            debug_assert!(c.wants_l1_evictions(), "sink enabled without consumer");
            self.evict.drain_with(|lines| c.on_l1_evictions(lines));
        } else {
            self.evict.clear();
        }
    }

    /// Queues a completion event on the calendar wheel.
    fn push_completion(&mut self, complete_at: u64, seq: u64, uid: u64, tag: Tag) {
        self.events.push(complete_at, seq, uid, tag, self.now);
    }

    /// Records issue-time trace stamps (no-op unless a tracer is
    /// attached; `issue_seq` itself always advances — it is the modeled
    /// global issue order, the stamp is just its observation).
    #[inline]
    fn stamp_issue(&mut self, tag: Tag) {
        if self.tracer.is_some() {
            let s = &mut self.stamps[tag];
            s.issued_at = self.now;
            s.issue_order = self.issue_seq;
        }
    }

    /// Drops `tag` from its thread's ready queue.
    fn ready_remove(&mut self, tag: Tag) {
        let (tid, pos) = {
            let u = &self.window[tag];
            (u.thread, u.rob_pos)
        };
        self.threads[tid].ready.remove(&(pos, tag));
    }

    /// Attempts to issue a load; returns false if blocked on memory
    /// dependence (it stays Ready and retries next cycle).
    fn try_issue_load(&mut self, tag: Tag) -> bool {
        let (tid, seq, wrong_path, pc) = {
            let u = &self.window[tag];
            (u.thread, u.seq, u.wrong_path, u.pc)
        };
        let (vaddr, value, size) = if wrong_path {
            (0, 0, 8u8)
        } else {
            let acc = self.threads[tid]
                .rec(seq)
                .mem
                .expect("correct-path load has an access");
            (acc.addr, acc.value, acc.size)
        };
        let paddr = self.threads[tid].tag_addr(vaddr);

        // Memory dependence: scan older in-flight stores (youngest first)
        // via the store ring — not the whole ROB, and no copies.
        let mut forward = false;
        if !wrong_path {
            let my_set = self.storesets.set_of(pc);
            let th = &self.threads[tid];
            for &stag in th.stores.iter().rev() {
                let s = &self.window[stag];
                if !s.valid || !s.is_store || s.wrong_path || s.seq >= seq {
                    continue;
                }
                if s.addr_known {
                    if s.mem_overlaps(paddr, size) {
                        forward = true; // store-to-load forwarding
                        break;
                    }
                } else {
                    // Unknown older store address: speculate unless the
                    // store-set predictor says this pair conflicts.
                    if my_set.is_some() && self.storesets.set_of(s.pc) == my_set {
                        return false; // wait for the store
                    }
                }
            }
        }

        let u = &self.window[tag];
        let (elar_resolved, no_fetch, rfp_addr, rfp_ready) =
            (u.elar_resolved, u.no_data_fetch, u.rfp_addr, u.rfp_ready_at);

        let agu = if elar_resolved {
            0
        } else {
            self.cfg.agu_latency
        };
        if !elar_resolved {
            self.stats.agu_uses += 1;
        }
        let latency = if wrong_path {
            agu + 6
        } else if forward {
            agu + 4 // SB forward ≈ L1-hit latency without the cache access
        } else if no_fetch {
            agu // address generation only (Fig 7 config 2)
        } else if rfp_addr == Some(vaddr) {
            // RFP staged the data at rename; the load verifies the address.
            self.stats.rfp_address_hits += 1;
            let ready = rfp_ready.unwrap_or(self.now);
            agu.max(ready.saturating_sub(self.now)) + 1
        } else {
            let out = self.mem.load(pc, paddr, self.now + agu, &mut self.evict);
            self.drain_evictions();
            self.injector.observe(line_addr(paddr));
            agu + out.latency
        };
        if let Some(r) = &mut self.rfp {
            if !wrong_path {
                r.train(pc, vaddr);
            }
        }

        let complete_at = self.now + latency.max(1);
        self.stamp_issue(tag);
        let u = &mut self.window[tag];
        u.state = UopState::Issued;
        u.in_rs = false;
        u.complete_at = complete_at;
        u.addr = paddr;
        u.addr_known = !wrong_path;
        u.result = value;
        let uid = u.uid;
        self.issue_seq += 1;
        self.rs_used -= 1;
        self.push_completion(complete_at, seq, uid, tag);
        true
    }

    // -------------------------------------------------------------- complete

    fn complete_phase(&mut self) {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        // Pop everything due this cycle off the event heap; stale entries
        // (squashed slots) are filtered below by the uid revalidation.
        self.events.drain_due(self.now, &mut due);
        due.sort_unstable();
        for &(_, uid, tag) in due.iter() {
            let u = &self.window[tag];
            if !u.valid || u.uid != uid || u.state != UopState::Issued {
                continue; // squashed by an earlier completion this cycle
            }
            self.complete_one(tag);
        }
        self.due = due;
    }

    /// Detects the Fig 8 *monitoring gap* at an arming load's writeback:
    /// the RMT/AMT are populated here, out of order, so a younger µop that
    /// renamed a write to one of the load's address registers — or a
    /// younger store whose resolved address overlaps the load's bytes —
    /// escaped the monitors entirely. Arming anyway would let the entry
    /// serve this instance's (addr, value) after its inputs moved, which is
    /// exactly the §8.5 divergence seen under ELAR and very deep windows.
    /// RSP is exempt from the register check: eliminations re-validate the
    /// rename-time stack view (`StackState`) on every lookup. Cold path —
    /// runs only on arming attempts, never on plain trains or eliminations.
    fn arm_monitor_gap(&self, tid: usize, tag: Tag, seq: u64) -> bool {
        let th = &self.threads[tid];
        let u = &self.window[tag];
        let Some(mem) = th.program.inst(u.sidx).mem_ref() else {
            return false;
        };
        for reg in mem.addr_regs() {
            if reg != ArchReg::RSP && th.last_write_seq[reg.index()] > seq + 1 {
                return true;
            }
        }
        // In-order retirement keeps every younger store in the ring while
        // this load is still in flight, so the scan is complete.
        for &stag in &th.stores {
            let s = &self.window[stag];
            if s.valid
                && s.is_store
                && !s.wrong_path
                && s.seq > seq
                && s.addr_known
                && u.mem_overlaps(s.addr, s.size)
            {
                return true;
            }
        }
        false
    }

    fn complete_one(&mut self, tag: Tag) {
        self.issue_quiescent = false;
        self.cycle_work = true;
        // Mark done and wake consumers. The wakeup list is swapped into a
        // reusable scratch buffer (capacities circulate; no allocation);
        // µops nobody waits on — stores, branches, dead values — skip the
        // swap dance entirely.
        debug_assert!(self.wake.is_empty());
        let has_consumers = {
            let u = &mut self.window[tag];
            u.state = UopState::Done;
            !u.consumers.is_empty()
        };
        if has_consumers {
            {
                let u = &mut self.window[tag];
                std::mem::swap(&mut self.wake, &mut u.consumers);
            }
            for &(ctag, cuid) in &self.wake {
                let c = &mut self.window[ctag];
                if c.valid && c.uid == cuid {
                    c.pending_deps = c.pending_deps.saturating_sub(1);
                    if c.pending_deps == 0 && c.state == UopState::Waiting {
                        c.state = UopState::Ready;
                        let (ctid, cpos) = (c.thread, c.rob_pos);
                        self.threads[ctid].ready.insert((cpos, ctag));
                    }
                }
            }
            self.wake.clear();
        }

        let (tid, seq, wrong_path, is_store, is_load, is_branch, pc) = {
            let u = &self.window[tag];
            (
                u.thread,
                u.seq,
                u.wrong_path,
                u.is_store,
                u.is_load,
                u.is_branch,
                u.pc,
            )
        };

        // Scoreboard: this value is available now; clear the pending bit if
        // this µop is still the architecturally last writer.
        if let Some(dst) = self.window[tag].dst {
            let uid = self.window[tag].uid;
            let th = &mut self.threads[tid];
            if th.last_writer[dst.index()] == Some((tag, uid)) {
                th.writer_pending &= !(1u32 << dst.index());
            }
        }

        // Store address generation (Fig 8 step 9 + §6.5 disambiguation).
        if is_store && !wrong_path {
            let acc = *self.threads[tid]
                .rec(seq)
                .mem
                .as_ref()
                .expect("store access");
            let paddr = self.threads[tid].tag_addr(acc.addr);
            let size = acc.size;
            {
                let u = &mut self.window[tag];
                u.addr = paddr;
                u.addr_known = true;
                u.result = acc.value;
            }
            if let Some(c) = &mut self.cons {
                c.on_store_addr(paddr);
            }
            // Disambiguation probe: any younger load that already produced
            // a value from this address was wrong (eliminated or
            // speculatively issued past this store). The load ring holds
            // exactly the in-flight loads, in ROB order.
            let mut victim: Option<(u64, u64, bool)> = None;
            for &ltag in &self.threads[tid].loads {
                let l = &self.window[ltag];
                if l.valid
                    && l.is_load
                    && !l.wrong_path
                    && !l.ideal_eliminated
                    && l.seq > seq
                    && l.addr_known
                    && matches!(l.state, UopState::Done | UopState::Issued)
                    && l.mem_overlaps(paddr, size)
                {
                    let cand = (l.seq, l.pc, l.eliminated);
                    if victim.is_none_or(|v| cand.0 < v.0) {
                        victim = Some(cand);
                    }
                }
            }
            if let Some((lseq, lpc, was_eliminated)) = victim {
                self.stats.ordering_violations += 1;
                if was_eliminated {
                    self.stats.elim_violations += 1;
                    if let Some(c) = &mut self.cons {
                        c.on_ordering_violation(lpc);
                    }
                }
                self.storesets.on_violation(lpc, pc);
                self.flush_from(tid, lseq);
                return;
            }
        }

        if is_load && !wrong_path {
            let (result, vp_wrong, mrn_wrong, likely_stable, eliminated) = {
                let u = &self.window[tag];
                (
                    u.result,
                    u.value_predicted && u.vp_value != u.result,
                    u.mrn_forwarded && u.mrn_value != u.result,
                    u.likely_stable,
                    u.eliminated,
                )
            };
            // Constable writeback: train confidence; arm likely-stable loads
            // (Fig 8 steps 4–6). Arming installs the RMT/AMT monitors *now*,
            // so anything younger that already renamed (register writers) or
            // resolved an address (stores) slipped past them: train but do
            // not arm when such a µop exists, or the entry would serve this
            // instance's (addr, value) after state it never monitored moved.
            if !eliminated {
                let arm_ok = !likely_stable || !self.arm_monitor_gap(tid, tag, seq);
                if !arm_ok {
                    self.stats.arm_guard_blocked += 1;
                }
                if let Some(c) = &mut self.cons {
                    let u = &self.window[tag];
                    let inst = self.threads[tid].program.inst(u.sidx);
                    if let Some(mem) = inst.mem_ref() {
                        let stack = u.stack_after;
                        let (paddr, pc_t) = (u.addr, u.pc);
                        // The engine counts CV pins (`cv_pins_requested`);
                        // `seal_result` copies them into `cv_pins`.
                        c.on_load_writeback(
                            pc_t,
                            mem,
                            paddr,
                            result,
                            likely_stable && arm_ok,
                            stack,
                        );
                    }
                }
            }
            // Value-speculation verification: wrong data was forwarded to
            // dependents; squash everything younger and refetch.
            if vp_wrong || mrn_wrong {
                if vp_wrong {
                    self.stats.vp_wrong += 1;
                    let hist = self.window[tag].vp_history;
                    if let Some(e) = &mut self.eves {
                        e.on_wrong(pc, hist);
                    }
                    if self.cfg.track_per_pc {
                        *self.stats.vp_wrong_pcs.entry(pc).or_insert(0) += 1;
                    }
                    self.window[tag].value_predicted = false;
                } else {
                    self.stats.mrn_wrong += 1;
                    self.window[tag].mrn_forwarded = false;
                }
                self.flush_from(tid, seq + 1);
            }
        }

        // Branch resolution: squash the wrong path and redirect.
        if is_branch && !wrong_path && self.window[tag].valid && self.window[tag].mispredicted {
            self.resolve_mispredict(tag);
        }
    }

    fn resolve_mispredict(&mut self, tag: Tag) {
        let (tid, seq) = {
            let u = &self.window[tag];
            (u.thread, u.seq)
        };
        self.window[tag].mispredicted = false;
        self.flush_from(tid, seq + 1);
        // flush_from only clears a wrong path caused by squashed branches;
        // this branch (cause_seq == seq) survives, so clear it explicitly.
        let th = &mut self.threads[tid];
        if th.wrong_path.as_ref().is_some_and(|wp| wp.cause_seq >= seq) {
            th.wrong_path = None;
        }
    }

    // ----------------------------------------------------------------- flush

    /// Squashes every µop of `tid` with `seq >= first_bad_seq` (wrong-path
    /// µops always), rewinds fetch, and repairs rename state.
    fn flush_from(&mut self, tid: usize, first_bad_seq: u64) {
        self.issue_quiescent = false;
        self.cycle_work = true;
        // Squash from the ROB tail, unwinding the store/load rings and the
        // ready queue in lockstep (they are subsequences of the ROB).
        while let Some(&tag) = self.threads[tid].rob.back() {
            let (squash, pos, is_load, is_store) = {
                let u = &self.window[tag];
                (
                    u.wrong_path || u.seq >= first_bad_seq,
                    u.rob_pos,
                    u.is_load,
                    u.is_store,
                )
            };
            if !squash {
                break;
            }
            self.squash(tag);
            let th = &mut self.threads[tid];
            th.rob.pop_back();
            th.rob_pushed = pos;
            th.ready.remove(&(pos, tag));
            if is_load {
                let popped = th.loads.pop_back();
                debug_assert_eq!(popped, Some(tag), "load ring out of sync");
            }
            if is_store {
                let popped = th.stores.pop_back();
                debug_assert_eq!(popped, Some(tag), "store ring out of sync");
            }
        }
        let th = &mut self.threads[tid];
        th.idq.clear();
        // Rewind the fetch cursor to the first squashed correct-path record.
        if let Some(front) = th.pending.front() {
            let base = front.seq;
            th.cursor = (first_bad_seq.saturating_sub(base) as usize).min(th.pending.len());
        } else {
            th.cursor = 0;
        }
        if th
            .wrong_path
            .as_ref()
            .is_some_and(|wp| wp.cause_seq >= first_bad_seq)
        {
            th.wrong_path = None;
        }
        th.fetch_stall_until = self.now + self.cfg.redirect_bubbles;
        // Repair rename-side state from the surviving tail.
        th.stack_rename = th
            .rob
            .back()
            .map(|&t| self.window[t].stack_after)
            .unwrap_or(th.stack_retired);
        th.last_writer = [None; 32];
        th.last_write_seq = [0; 32];
        th.writer_pending = 0;
        for i in 0..self.threads[tid].rob.len() {
            let t = self.threads[tid].rob[i];
            let u = &self.window[t];
            if let Some(dst) = u.dst {
                let pending = !u.value_available();
                let (uid, bit, wseq) = (u.uid, 1u32 << dst.index(), u.seq + 1);
                let th = &mut self.threads[tid];
                th.last_writer[dst.index()] = Some((t, uid));
                th.last_write_seq[dst.index()] = wseq;
                if pending {
                    th.writer_pending |= bit;
                } else {
                    th.writer_pending &= !bit;
                }
            }
        }
    }

    fn squash(&mut self, tag: Tag) {
        let u = &mut self.window[tag];
        debug_assert!(u.valid);
        if u.is_load && !u.wrong_path && self.eves.is_some() {
            let pc = u.pc;
            self.inflight_loads.dec_saturating(pc);
        }
        if u.in_rs {
            self.rs_used -= 1;
        }
        if u.in_lb {
            self.lb_used -= 1;
        }
        if u.in_sb {
            self.sb_used -= 1;
        }
        let xprf = u.xprf.take();
        u.reset();
        if let (Some(slot), Some(c)) = (xprf, self.cons.as_mut()) {
            c.free_xprf(slot);
        }
        self.free_slots.push(tag);
    }

    // ---------------------------------------------------------------- retire

    fn retire_phase(&mut self) {
        // Test-only watchdog knob: stop retiring once the wedge point is
        // reached — the frontend and backend keep running until they starve
        // behind the frozen ROB head, deterministically wedging the run.
        if self
            .cfg
            .wedge_after_retire
            .is_some_and(|w| self.stats.retired >= w)
        {
            return;
        }
        let mut budget = self.cfg.retire_width;
        let nthreads = self.threads.len();
        let tmask = nthreads - 1;
        let mut made_progress = true;
        while budget > 0 && made_progress {
            made_progress = false;
            for off in 0..nthreads {
                if budget == 0 {
                    break;
                }
                let tid = (self.now as usize + off) & tmask;
                let Some(&tag) = self.threads[tid].rob.front() else {
                    continue;
                };
                if self.window[tag].state != UopState::Done {
                    continue;
                }
                self.retire_one(tid, tag);
                budget -= 1;
                made_progress = true;
            }
        }
    }

    fn retire_one(&mut self, tid: usize, tag: Tag) {
        self.issue_quiescent = false;
        self.cycle_work = true;
        self.last_retire_cycle = self.now;
        let u = {
            let w = &self.window[tag];
            debug_assert!(!w.wrong_path, "wrong-path µop reached retirement");
            debug_assert!(w.consumers.is_empty(), "consumers drained at complete");
            RetiredUop {
                is_load: w.is_load,
                is_store: w.is_store,
                is_branch: w.is_branch,
                in_lb: w.in_lb,
                in_sb: w.in_sb,
                folded: w.folded,
                eliminated: w.eliminated,
                value_predicted: w.value_predicted,
                mrn_forwarded: w.mrn_forwarded,
                seq: w.seq,
                pc: w.pc,
                addr: w.addr,
                result: w.result,
                vp_history: w.vp_history,
                complete_at: w.complete_at,
                xprf: w.xprf,
                stack_after: w.stack_after,
            }
        };
        if let Some(tr) = self.tracer.as_mut() {
            let mut flags = 0u64;
            for (set, bit) in [
                (u.is_load, trace::FLAG_LOAD),
                (u.is_store, trace::FLAG_STORE),
                (u.is_branch, trace::FLAG_BRANCH),
                (u.folded, trace::FLAG_FOLDED),
                (u.eliminated, trace::FLAG_ELIMINATED),
                (u.value_predicted, trace::FLAG_VALUE_PREDICTED),
                (u.mrn_forwarded, trace::FLAG_MRN_FORWARDED),
            ] {
                if set {
                    flags |= bit;
                }
            }
            let st = self.stamps[tag];
            tr.record_retire(UopTrace {
                thread: tid as u8,
                seq: u.seq,
                pc: u.pc,
                flags,
                fetched_at: st.fetched_at,
                renamed_at: st.renamed_at,
                issued_at: st.issued_at,
                issue_order: st.issue_order,
                completed_at: u.complete_at,
                retired_at: self.now,
                addr: u.addr,
                result: u.result,
            });
        }
        {
            let th = &mut self.threads[tid];
            th.rob.pop_front();
            th.rob_head += 1;
            if u.is_load {
                let popped = th.loads.pop_front();
                debug_assert_eq!(popped, Some(tag), "load ring out of sync");
            }
            if u.is_store {
                let popped = th.stores.pop_front();
                debug_assert_eq!(popped, Some(tag), "store ring out of sync");
            }
        }

        // The retiring µop is its thread's oldest unretired instruction, so
        // its functional record is the front of the fetched-ahead ring (it
        // pops below, after the golden check and trainers are done with it).
        let rec = *self.threads[tid]
            .pending
            .front()
            .expect("correct-path µop has a functional record");
        debug_assert_eq!(rec.seq, u.seq, "pending ring out of sync at retire");

        // Golden functional check (§8.5): every load's address and value —
        // including Constable-eliminated loads — must match the functional
        // execution.
        if u.is_load {
            let acc = rec.mem.expect("load access");
            let expect_addr = self.threads[tid].tag_addr(acc.addr);
            if u.addr != expect_addr || u.result != acc.value {
                self.stats.golden_mismatches += 1;
                // Cold path: forensics of the first divergence only; the
                // harness surfaces it through `SimResult::verify`.
                if self.first_mismatch.is_none() {
                    self.first_mismatch = Some(crate::fault::GoldenMismatch {
                        thread: tid,
                        seq: u.seq,
                        pc: u.pc,
                        addr: u.addr,
                        expect_addr,
                        value: u.result,
                        expect_value: acc.value,
                        eliminated: u.eliminated,
                        cycle: self.now,
                    });
                }
            }
            self.stats.retired_loads += 1;
            if u.eliminated {
                self.stats.loads_eliminated += 1;
            }
            if self.cfg.track_per_pc {
                let raw_pc = u.pc & ((1u64 << THREAD_TAG_SHIFT) - 1);
                let e = self.stats.per_pc_loads.entry(raw_pc).or_insert((0, 0));
                e.0 += u64::from(u.eliminated);
                e.1 += 1;
            }
            if u.value_predicted {
                self.stats.vp_used += 1;
            }
            if u.mrn_forwarded {
                self.stats.mrn_forwarded += 1;
            }
            if let Some(e) = &mut self.eves {
                self.inflight_loads.dec_saturating(u.pc);
                e.train(u.pc, u.vp_history, acc.value);
            }
            if let Some(m) = &mut self.mrn {
                m.on_load(u.pc, u.addr);
            }
        }
        if u.is_store {
            let acc = rec.mem.expect("store access");
            let paddr = self.threads[tid].tag_addr(acc.addr);
            let _ = self.mem.store_commit(paddr, self.now, &mut self.evict);
            self.drain_evictions();
            if let Some(m) = &mut self.mrn {
                m.on_store(u.pc, paddr);
            }
            self.stats.retired_stores += 1;
        }
        if u.is_branch {
            self.stats.retired_branches += 1;
        }

        // Free resources.
        if u.in_lb {
            self.lb_used -= 1;
        }
        if u.in_sb {
            self.sb_used -= 1;
        }
        if let (Some(slot), Some(c)) = (u.xprf, self.cons.as_mut()) {
            c.free_xprf(slot);
        }
        self.window[tag].reset();
        self.free_slots.push(tag);

        let th = &mut self.threads[tid];
        th.stack_retired = u.stack_after;
        th.pending.pop_front();
        th.cursor = th.cursor.saturating_sub(1);
        th.retired += 1;
        self.stats.retired += 1;

        // Synthetic cross-core snoop traffic (per retired instruction).
        if let Some(line) = self.injector.tick() {
            self.mem.snoop_invalidate(line);
            if let Some(c) = &mut self.cons {
                c.on_snoop(line);
            }
            // Consistency: in-flight completed loads from the snooped line
            // must be squashed (their value may be stale in a real system).
            let mut victim: Option<(usize, u64)> = None;
            for th in &self.threads {
                for &ltag in &th.loads {
                    let l = &self.window[ltag];
                    if l.valid
                        && l.is_load
                        && !l.wrong_path
                        && l.addr_known
                        && matches!(l.state, UopState::Done)
                        && line_addr(l.addr) == line
                    {
                        victim = Some(match victim {
                            Some((vt, v)) if v <= l.seq => (vt, v),
                            _ => (th.id, l.seq),
                        });
                    }
                }
            }
            if let Some((vtid, v)) = victim {
                self.flush_from(vtid, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreConfig;

    #[test]
    fn cycle_guard_saturates_instead_of_wrapping() {
        assert_eq!(cycle_guard(0), 2_000_000);
        assert_eq!(cycle_guard(40_000), 18_000_000);
        assert_eq!(cycle_guard(u64::MAX), u64::MAX);
        // A target whose unchecked guard wrapped to about 2 M cycles.
        assert_eq!(cycle_guard(46_116_860_184_273_880), u64::MAX);
    }

    #[test]
    fn unchanged_mem_config_reuses_the_hierarchy_allocation() {
        let program = sim_workload::suite_subset(2)[0].build();
        let run = |scratch: SimScratch| {
            let mut core =
                Core::new_multi_with_scratch(vec![&program], CoreConfig::default(), scratch);
            core.run(2_000);
            core.into_scratch()
        };
        let scratch = run(SimScratch::new());
        let first = scratch.mem.as_ref().expect("banked").tag_buffer_addr();
        let scratch = run(scratch);
        let second = scratch.mem.as_ref().expect("banked").tag_buffer_addr();
        assert_eq!(first, second, "an equal MemConfig must reuse the tag array");
    }
}
