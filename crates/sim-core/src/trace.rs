//! The scheduling trace oracle: opt-in per-µop timing capture.
//!
//! A [`TraceRecorder`] attached to a [`crate::Core`] observes every retired
//! µop's pipeline timestamps (fetch, rename, issue, complete, retire
//! cycles), its global issue order, and the run-length-encoded stream of
//! per-cycle stall classes. The observations fold into:
//!
//! * a **full trace** ([`UopTrace`] records, kept only when requested) for
//!   test-time diffing — the first diverging µop pinpoints a scheduling
//!   regression to one instruction;
//! * a **compact digest**: one 64-bit content hash (the shared
//!   [`TraceDigest`] stream format) plus a retire-latency histogram and
//!   the run's stall stack, cheap enough to commit as golden files across
//!   a workload × configuration matrix.
//!
//! The stall stack itself is not the recorder's: the core classifies every
//! cycle with or without a tracer and counts it in
//! [`crate::CoreStats::stall_cycles`]; the recorder only keeps the order
//! of the classes, and [`crate::Core::take_trace`] folds the stack in.
//!
//! This is the correctness lock the scheduler refactors bank on: instead of
//! maintaining a second live scheduler implementation as a reference, the
//! event-driven scheduler's exact per-µop timing is committed as data
//! (gem5/ChampSim-style trace regression). Any change that alters *when*
//! any µop fetches, issues, completes, or retires — or how idle cycles are
//! spent — changes the digest and fails the oracle suite.
//!
//! Tracing is opt-in and zero-cost when off: the core stamps cycle numbers
//! it already knows into the µop slab (plain stores on paths that already
//! write the slot), and every recorder call site is behind an
//! `Option<TraceRecorder>` that is `None` by default.

use crate::stats::StallClass;
use sim_mem::TraceDigest;
use sim_stats::Histogram;

/// Retire-latency histogram bucket bounds (cycles from fetch to retire).
const RETIRE_LATENCY_BOUNDS: [u64; 9] = [4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Cycle-number sentinel for "never happened" (e.g. issue of a folded µop).
pub const NO_CYCLE: u64 = u64::MAX;

/// One retired µop's scheduling observation. `NO_CYCLE` marks stages the
/// µop never passed through (folded/eliminated µops never issue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopTrace {
    /// Hardware thread.
    pub thread: u8,
    /// Per-thread dynamic sequence number.
    pub seq: u64,
    /// Predictor-visible PC (thread-tagged under SMT).
    pub pc: u64,
    /// Packed event flags (see `FLAG_*` in this module's source).
    pub flags: u64,
    /// Cycle fetched into the IDQ.
    pub fetched_at: u64,
    /// Cycle renamed/allocated into the window.
    pub renamed_at: u64,
    /// Cycle issued to an execution port (`NO_CYCLE` if folded).
    pub issued_at: u64,
    /// Global issue sequence number (`NO_CYCLE` if never issued).
    pub issue_order: u64,
    /// Cycle the value/result became final.
    pub completed_at: u64,
    /// Retirement cycle.
    pub retired_at: u64,
    /// Final (thread-tagged) memory address, 0 for non-memory µops.
    pub addr: u64,
    /// Architectural result value.
    pub result: u64,
}

pub(crate) const FLAG_LOAD: u64 = 1 << 0;
pub(crate) const FLAG_STORE: u64 = 1 << 1;
pub(crate) const FLAG_BRANCH: u64 = 1 << 2;
pub(crate) const FLAG_FOLDED: u64 = 1 << 3;
pub(crate) const FLAG_ELIMINATED: u64 = 1 << 4;
pub(crate) const FLAG_VALUE_PREDICTED: u64 = 1 << 5;
pub(crate) const FLAG_MRN_FORWARDED: u64 = 1 << 6;

impl UopTrace {
    /// Folds this record into `d` in the committed word order.
    fn fold_into(&self, d: &mut TraceDigest) {
        d.update_all([
            u64::from(self.thread),
            self.seq,
            self.pc,
            self.flags,
            self.fetched_at,
            self.renamed_at,
            self.issued_at,
            self.issue_order,
            self.completed_at,
            self.retired_at,
            self.addr,
            self.result,
        ]);
    }
}

/// Collects the trace during a run. Attach with
/// [`crate::Core::attach_tracer`], recover with
/// [`crate::Core::take_trace`].
#[derive(Debug)]
pub struct TraceRecorder {
    keep_full: bool,
    records: Vec<UopTrace>,
    digest: TraceDigest,
    retire_latency: Histogram,
    /// Run-length state for the per-cycle class stream: (class, count).
    pending: Option<(StallClass, u64)>,
    uops: u64,
}

impl TraceRecorder {
    /// A digest-only recorder (the cheap mode golden tests run in).
    #[must_use]
    pub fn new() -> Self {
        Self::with_full_trace(false)
    }

    /// A recorder that additionally keeps every [`UopTrace`] record so a
    /// failure can be diffed µop by µop.
    #[must_use]
    pub fn with_full_trace(keep_full: bool) -> Self {
        TraceRecorder {
            keep_full,
            records: Vec::new(),
            digest: TraceDigest::new(),
            retire_latency: Histogram::new(&RETIRE_LATENCY_BOUNDS),
            pending: None,
            uops: 0,
        }
    }

    /// Records one retired µop (called by the core on the retire path).
    pub(crate) fn record_retire(&mut self, rec: UopTrace) {
        rec.fold_into(&mut self.digest);
        self.retire_latency
            .record(rec.retired_at.saturating_sub(rec.fetched_at));
        self.uops += 1;
        if self.keep_full {
            self.records.push(rec);
        }
    }

    /// Records `n` consecutive cycles of class `cls`. Run-length compressed
    /// before digesting, so a fast-forwarded span folds identically to the
    /// same cycles recorded one at a time.
    pub(crate) fn record_cycles(&mut self, cls: StallClass, n: u64) {
        match &mut self.pending {
            Some((p, count)) if *p == cls => *count += n,
            _ => {
                self.flush_run();
                self.pending = Some((cls, n));
            }
        }
    }

    fn flush_run(&mut self) {
        if let Some((cls, n)) = self.pending.take() {
            self.digest.update(cls as u64);
            self.digest.update(n);
        }
    }

    /// Seals the trace into a summary with the run's stall stack
    /// (`CoreStats::stall_cycles`). Called by [`crate::Core::take_trace`]
    /// after the run.
    pub(crate) fn into_summary(mut self, stall_cycles: [u64; StallClass::COUNT]) -> TraceSummary {
        self.flush_run();
        // Fold the aggregates so the single digest word also locks the
        // histogram and the stall distribution.
        self.digest.update(self.uops);
        self.digest
            .update_all(self.retire_latency.bucket_counts().iter().copied());
        self.digest.update_all(stall_cycles);
        TraceSummary {
            digest: self.digest.finish(),
            uops: self.uops,
            retire_latency: self.retire_latency,
            stall_cycles,
            records: self.records,
        }
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The sealed result of a traced run.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Content hash over every retired µop record, the run-length-encoded
    /// per-cycle stall stream, and the aggregates below.
    pub digest: u64,
    /// Retired µops recorded.
    pub uops: u64,
    /// Fetch-to-retire latency distribution of retired µops.
    pub retire_latency: Histogram,
    /// Cycles spent per [`StallClass`] (index = discriminant).
    pub stall_cycles: [u64; StallClass::COUNT],
    /// Per-µop records, oldest first (empty unless the recorder was built
    /// with [`TraceRecorder::with_full_trace`]).
    pub records: Vec<UopTrace>,
}

impl TraceSummary {
    /// Renders the committed golden-file row for this trace:
    ///
    /// ```text
    /// <name> <digest-hex> <uops> <hist:b0,b1,...> <stalls:s0,...,s5>
    /// ```
    ///
    /// One whitespace-free field per column so rows diff cleanly. The
    /// digest alone decides equality (it folds in the aggregates); the
    /// plaintext histogram and stall counts exist so a golden diff shows
    /// *what kind* of timing moved, not just that something did.
    #[must_use]
    pub fn golden_line(&self, name: &str) -> String {
        debug_assert!(
            !name.contains(char::is_whitespace),
            "golden row names are whitespace-free"
        );
        let hist = self
            .retire_latency
            .bucket_counts()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let stalls = self
            .stall_cycles
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{name} {digest:#018x} {uops} hist:{hist} stalls:{stalls}",
            digest = self.digest,
            uops = self.uops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_length_batching_is_transparent() {
        // 1+1+1 cycles of the same class must digest exactly like one
        // batched record of 3 — the fast-forward equivalence in miniature.
        let mut one_by_one = TraceRecorder::new();
        for _ in 0..3 {
            one_by_one.record_cycles(StallClass::Memory, 1);
        }
        one_by_one.record_cycles(StallClass::Active, 1);
        let mut batched = TraceRecorder::new();
        batched.record_cycles(StallClass::Memory, 3);
        batched.record_cycles(StallClass::Active, 1);
        let stack = [1, 0, 3, 0, 0, 0];
        let (a, b) = (one_by_one.into_summary(stack), batched.into_summary(stack));
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn digest_covers_record_fields_and_class_splits() {
        let rec = UopTrace {
            thread: 0,
            seq: 1,
            pc: 0x400,
            flags: FLAG_LOAD,
            fetched_at: 1,
            renamed_at: 2,
            issued_at: 3,
            issue_order: 0,
            completed_at: 9,
            retired_at: 10,
            addr: 0x1000,
            result: 7,
        };
        let summary = |r: UopTrace, cls: StallClass| {
            let mut t = TraceRecorder::new();
            t.record_retire(r);
            t.record_cycles(cls, 2);
            let mut stack = [0; StallClass::COUNT];
            stack[cls as usize] = 2;
            t.into_summary(stack)
        };
        let base = summary(rec, StallClass::Memory);
        assert_eq!(base.uops, 1);
        let mut moved = rec;
        moved.issued_at = 4;
        assert_ne!(base.digest, summary(moved, StallClass::Memory).digest);
        assert_ne!(base.digest, summary(rec, StallClass::Execution).digest);
    }

    #[test]
    fn golden_line_shape() {
        let mut t = TraceRecorder::new();
        t.record_cycles(StallClass::Active, 5);
        let line = t
            .into_summary([5, 0, 0, 0, 0, 0])
            .golden_line("baseline/w0");
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols.len(), 5);
        assert_eq!(cols[0], "baseline/w0");
        assert!(cols[1].starts_with("0x") && cols[1].len() == 18);
        assert_eq!(cols[2], "0");
        assert!(cols[3].starts_with("hist:"));
        assert!(cols[4].starts_with("stalls:"));
        assert!(cols[4].ends_with("5,0,0,0,0,0"));
    }

    #[test]
    fn full_trace_keeps_records_in_retire_order() {
        let mut t = TraceRecorder::with_full_trace(true);
        for seq in 0..4u64 {
            let mut r = UopTrace {
                thread: 0,
                seq,
                pc: 0x400 + 4 * seq,
                flags: 0,
                fetched_at: seq,
                renamed_at: seq + 1,
                issued_at: seq + 2,
                issue_order: seq,
                completed_at: seq + 3,
                retired_at: seq + 4,
                addr: 0,
                result: 0,
            };
            if seq == 2 {
                r.flags = FLAG_FOLDED;
                r.issued_at = NO_CYCLE;
                r.issue_order = NO_CYCLE;
            }
            t.record_retire(r);
        }
        let s = t.into_summary([0; StallClass::COUNT]);
        assert_eq!(s.records.len(), 4);
        assert!(s.records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(s.records[2].issued_at, NO_CYCLE);
        assert_eq!(s.retire_latency.total(), 4);
    }
}
