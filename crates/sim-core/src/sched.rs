//! Event-driven scheduling machinery for the out-of-order core.
//!
//! The original model paid O(window) every cycle: completion rescanned the
//! whole in-flight window, issue rebuilt an oldest-first candidate vector
//! from the full ROBs, and store-search/flush paths copied ROB contents into
//! fresh `Vec`s. This module holds the structures that replace those scans:
//!
//! * [`CompletionQueue`] — completion events in a calendar wheel keyed by
//!   absolute cycle (O(1) push and drain; a min-heap overflow catches
//!   beyond-horizon latencies), pushed at issue time and drained at their
//!   completion cycle. Entries for squashed µops are filtered lazily by
//!   uid.
//! * [`ReadyQueue`] — per-thread ready queues ordered by ROB position, fed
//!   by dependency wakeup: producers push consumers when they complete, so
//!   issue touches ready µops only. Sorted-`Vec` backed: unlike the B-tree
//!   it replaced, inserts allocate nothing at steady state.
//! * [`SimScratch`] — every core-lifetime allocation (the µop slab, free
//!   list, event heap, scratch buffers, the L1-eviction sink, the
//!   in-flight-load count table, and the memory hierarchy's cache, DRAM
//!   and prefetcher tables) bundled so a suite runner can hand the same
//!   memory to consecutive simulations (zero steady-state allocation
//!   across runs; the hierarchy is reset in proportion to what the last
//!   run filled instead of being rebuilt).
//!
//! On top of these, the core memoizes backend idleness: an issue attempt
//! that finds nothing to do is not repeated until a completion, rename,
//! retirement, or flush changes the backend (`issue_quiescent`), and a
//! whole cycle in which *no* phase did work fast-forwards the clock to the
//! next time-gated event. Both shortcuts apply to single-thread and SMT2
//! runs alike: frontend thread selection is a [`FrontendRotor`] —
//! explicit round-robin pointers that advance only when the selected
//! thread makes progress — rather than a function of the cycle number, so
//! an idle cycle proves the next one is idle too (idleness is monotonic
//! until the next time-gated event). Both shortcuts skip provably
//! side-effect-free work, so cycle counts and statistics are untouched.
//! The scheduling trace oracle (`tests/trace_oracle.rs` and the committed
//! digests under `tests/golden/`) locks this: the single-thread golden
//! rows were captured while the original full-scan scheduler still
//! existed and cross-checked bit-identical against it (and have not
//! moved since); the `smt2/*` rows were re-blessed under the rotor model
//! — see `tests/README.md` — and the shortcut-validation tests re-derive
//! every row with the shortcuts force-disabled
//! (`CoreConfig::event_shortcuts = false`).

use crate::pctab::PcCountTable;
use crate::uop::{Fetched, Tag, Uop, UopStamps};
use sim_isa::DynInst;
use sim_mem::{EvictionSink, MemConfig, MemoryHierarchy};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Parity-free frontend thread selection: one round-robin pointer per
/// frontend phase (fetch, rename), each naming the hardware thread with
/// first claim on that phase's slot this cycle.
///
/// A pointer advances **only when the thread it selected actually made
/// progress** (fetched or renamed at least one µop); hazard-blocked
/// threads are skipped within the same cycle — the other thread gets the
/// slot — instead of burning it, and a blocked thread keeps its priority
/// for the next cycle. Selection is therefore a pure function of
/// architectural state: unlike the `now`-parity rotation this replaced,
/// a cycle in which no phase does work leaves the rotor (and so the next
/// cycle's selection) unchanged, which is what lets the idle-cycle
/// fast-forward apply to SMT2 runs. The pointers are modelled state (they
/// decide the SMT interleaving), not scratch: they reset with the run,
/// never recycle across runs.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FrontendRotor {
    /// Thread with first claim on the fetch slot.
    pub(crate) fetch: usize,
    /// Thread with first claim on the rename slot.
    pub(crate) rename: usize,
}

impl FrontendRotor {
    /// Advances the fetch pointer past `tid`, the thread that fetched.
    /// `mask` = thread count − 1 (the count is 1 or 2, always a power of
    /// two, so rotation is an AND — hardware division is ~20 cycles and
    /// these run on every frontend slot grant).
    #[inline]
    pub(crate) fn fetch_progressed(&mut self, tid: usize, mask: usize) {
        self.fetch = (tid + 1) & mask;
    }

    /// Advances the rename pointer past `tid`, the thread that renamed.
    #[inline]
    pub(crate) fn rename_progressed(&mut self, tid: usize, mask: usize) {
        self.rename = (tid + 1) & mask;
    }
}

/// A ready queue ordered by ROB position: a sorted `Vec` of
/// `(rob_pos, tag)` keys. The occupancy is small (issue drains it every
/// cycle), so binary-search insert/remove with a memmove beats a B-tree —
/// and unlike one, the backing allocation is recycled across runs, keeping
/// the wakeup path allocation-free at steady state.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueue {
    keys: Vec<(u64, Tag)>,
}

impl ReadyQueue {
    /// Inserts a key (no-op if already present).
    #[inline]
    pub(crate) fn insert(&mut self, key: (u64, Tag)) {
        if let Err(i) = self.keys.binary_search(&key) {
            self.keys.insert(i, key);
        }
    }

    /// Removes a key (no-op if absent).
    #[inline]
    pub(crate) fn remove(&mut self, key: &(u64, Tag)) {
        if let Ok(i) = self.keys.binary_search(key) {
            self.keys.remove(i);
        }
    }

    /// Keys in ascending (rob_pos, tag) order.
    #[inline]
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (u64, Tag)> {
        self.keys.iter()
    }

    pub(crate) fn clear(&mut self) {
        self.keys.clear();
    }
}

/// One pending completion: a µop issued at some cycle finishes at
/// `complete_at`. `seq` orders same-cycle completions in program order;
/// `uid` filters entries whose slot was squashed and reused.
pub(crate) type CompletionEvent = Reverse<(u64, u64, u64, Tag)>;

/// Calendar-wheel slot count. Power of two; must exceed every common
/// completion latency (the deepest is a queued DRAM access at a few
/// hundred cycles). Events farther out than the horizon spill into a
/// min-heap overflow — correct at any latency, just slower, and in
/// practice never hit by the shipped configurations.
const WHEEL_SLOTS: usize = 1024;

/// Completion events in a calendar wheel keyed by absolute cycle.
///
/// The binary heap this replaces paid an O(log n) sift per pop with
/// 32-byte keys — at one push *and* one pop per issued µop, the pops
/// alone were among the hottest scheduler operations. The wheel makes
/// both O(1): slot `at & (WHEEL_SLOTS-1)` holds the events due at cycle
/// `at`, pushes append, and the per-cycle drain empties exactly one slot.
/// Same-cycle ordering is free: the core sorts its due list into program
/// order anyway, so slots need no internal order. Slot aliasing cannot
/// happen — an event more than the horizon away goes to the overflow
/// heap, so a slot only ever holds events for one absolute cycle.
#[derive(Debug)]
pub(crate) struct CompletionQueue {
    /// `slots[at & mask]` = events due at cycle `at`, unordered.
    slots: Vec<Vec<(u64, u64, Tag)>>,
    /// Occupancy bitmap, bit `i` set ⇔ `slots[i]` is non-empty: lets
    /// [`CompletionQueue::next_time`] find the next occupied slot with a
    /// few word scans instead of probing up to `WHEEL_SLOTS` slot headers.
    occupied: [u64; WHEEL_SLOTS / 64],
    /// Total events currently in `slots` (fast emptiness check).
    len: usize,
    /// Events beyond the wheel horizon, keyed (complete_at, seq, uid, tag).
    overflow: BinaryHeap<CompletionEvent>,
}

impl Default for CompletionQueue {
    fn default() -> Self {
        CompletionQueue {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_SLOTS / 64],
            len: 0,
            overflow: BinaryHeap::new(),
        }
    }
}

impl CompletionQueue {
    /// Queues an event. `now` anchors the wheel horizon; an event due at
    /// or before `now` lands in the next cycle's slot (matching the heap
    /// semantics this replaced: a late event completes on the next drain).
    pub(crate) fn push(&mut self, complete_at: u64, seq: u64, uid: u64, tag: Tag, now: u64) {
        let at = complete_at.max(now + 1);
        if at - now >= WHEEL_SLOTS as u64 {
            self.overflow.push(Reverse((complete_at, seq, uid, tag)));
            return;
        }
        let idx = at as usize & (WHEEL_SLOTS - 1);
        self.slots[idx].push((seq, uid, tag));
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
        self.len += 1;
    }

    /// Pops every event due at or before `now` into `due` as
    /// (seq, uid, tag) triples, in unspecified order (the core sorts the
    /// due list into program order). Stale entries are popped too; the
    /// caller re-validates them against the window.
    pub(crate) fn drain_due(&mut self, now: u64, due: &mut Vec<(u64, u64, Tag)>) {
        if self.len > 0 {
            let idx = now as usize & (WHEEL_SLOTS - 1);
            let slot = &mut self.slots[idx];
            self.len -= slot.len();
            due.append(slot);
            self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
        }
        while let Some(&Reverse((at, seq, uid, tag))) = self.overflow.peek() {
            if at > now {
                break;
            }
            self.overflow.pop();
            due.push((seq, uid, tag));
        }
    }

    /// Completion time of the earliest pending event at or after
    /// `now + 1`, if any. (Events are only ever pending for future
    /// cycles: the wheel files late pushes under `now + 1`, and every
    /// due slot is drained when its cycle executes.)
    pub(crate) fn next_time(&self, now: u64) -> Option<u64> {
        const WORDS: usize = WHEEL_SLOTS / 64;
        let mut next = u64::MAX;
        if self.len > 0 {
            // Circular scan of the occupancy bitmap starting just past
            // `now`: the first word is masked below the start bit, and the
            // start word is revisited last with the complementary mask.
            let start = (now as usize + 1) & (WHEEL_SLOTS - 1);
            'scan: for w in 0..=WORDS {
                let widx = ((start >> 6) + w) % WORDS;
                let mut word = self.occupied[widx];
                if w == 0 {
                    word &= !0u64 << (start & 63);
                } else if w == WORDS {
                    word &= !(!0u64 << (start & 63));
                }
                if word != 0 {
                    let slot = (widx << 6) + word.trailing_zeros() as usize;
                    let dist = (slot + WHEEL_SLOTS - start) & (WHEEL_SLOTS - 1);
                    next = now + 1 + dist as u64;
                    break 'scan;
                }
            }
            debug_assert_ne!(next, u64::MAX, "len > 0 but no occupied slot");
        }
        if let Some(&Reverse((at, _, _, _))) = self.overflow.peek() {
            next = next.min(at.max(now + 1));
        }
        (next != u64::MAX).then_some(next)
    }

    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.occupied = [0; WHEEL_SLOTS / 64];
        self.len = 0;
        self.overflow.clear();
    }
}

/// Reusable core-lifetime allocations.
///
/// A [`crate::Core`] built with [`crate::Core::new_multi_with_scratch`]
/// takes ownership of these buffers and returns them via
/// [`crate::Core::into_scratch`]; a suite runner that keeps one
/// `SimScratch` per worker thread eliminates per-run window allocation
/// (the µop slab alone is ~hundreds of KiB) and lets consumer-list
/// capacities reach a steady state across the whole suite. It also keeps
/// the last run's [`MemoryHierarchy`] (~2 MB of L2/LLC tag and metadata
/// arrays at the Table 2 geometry): the next run with an equal
/// [`MemConfig`] resets it in time proportional to the cache slots the last
/// run filled, and only the first run or a changed config builds one.
#[derive(Debug, Default)]
pub struct SimScratch {
    pub(crate) window: Vec<Uop>,
    /// Trace-only pipeline stamps, parallel to `window` (cold slab; see
    /// [`crate::uop::UopStamps`]).
    pub(crate) stamps: Vec<UopStamps>,
    pub(crate) free_slots: Vec<Tag>,
    pub(crate) events: CompletionQueue,
    /// Completions due this cycle, sorted into program order before use.
    pub(crate) due: Vec<(u64, u64, Tag)>,
    /// Consumers of the µop currently completing (wakeup list in flight).
    pub(crate) wake: Vec<(Tag, u64)>,
    /// Issue candidates for the current cycle, oldest first.
    pub(crate) cands: Vec<Tag>,
    /// L1-D eviction lines collected per access for the Constable-AMT-I
    /// consumer; disabled (and therefore free) for every other machine.
    pub(crate) evictions: EvictionSink,
    /// In-flight correct-path load instances per load PC (EVES run-ahead
    /// distance input); open-addressed, cleared per run.
    pub(crate) inflight_loads: PcCountTable,
    /// Per-hardware-thread queue allocations (ROB, store/load rings, ready
    /// set, IDQ, fetched-ahead records), recycled across runs.
    pub(crate) threads: Vec<ThreadScratch>,
    /// The last run's memory hierarchy, reset on reuse by
    /// [`SimScratch::take_mem`]; `None` before the first run.
    pub(crate) mem: Option<MemoryHierarchy>,
}

/// Reusable per-thread queue allocations: the structures every `Thread`
/// otherwise allocates fresh per run. Cleared (capacity-preserving) on
/// [`SimScratch::reset_for_run`] and handed to `Thread::new`.
#[derive(Debug, Default)]
pub(crate) struct ThreadScratch {
    pub(crate) pending: VecDeque<DynInst>,
    pub(crate) rob: VecDeque<Tag>,
    pub(crate) stores: VecDeque<Tag>,
    pub(crate) loads: VecDeque<Tag>,
    pub(crate) ready: ReadyQueue,
    pub(crate) idq: VecDeque<Fetched>,
}

impl ThreadScratch {
    fn clear(&mut self) {
        self.pending.clear();
        self.rob.clear();
        self.stores.clear();
        self.loads.clear();
        self.ready.clear();
        self.idq.clear();
    }
}

impl SimScratch {
    /// Fresh, empty scratch. Buffers grow to steady state over the first
    /// simulated run and are then reused verbatim.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the scratch for a new run with `window_cap` slab slots:
    /// every retained slot is reset in place (keeping its consumer-list
    /// capacity), the free list is rebuilt, and queues are emptied.
    pub(crate) fn reset_for_run(&mut self, window_cap: usize, nthreads: usize) {
        self.window.truncate(window_cap);
        for slot in &mut self.window {
            slot.reset();
        }
        self.window.resize_with(window_cap, Uop::empty);
        self.stamps.clear();
        self.stamps.resize_with(window_cap, UopStamps::default);
        self.free_slots.clear();
        self.free_slots.extend((0..window_cap).rev());
        self.events.clear();
        self.due.clear();
        self.wake.clear();
        self.cands.clear();
        self.evictions.clear();
        self.inflight_loads.clear();
        for ts in &mut self.threads {
            ts.clear();
        }
        self.threads
            .resize_with(self.threads.len().max(nthreads), ThreadScratch::default);
    }

    /// Hands out a memory hierarchy in its just-built state for `cfg`: the
    /// banked one reset when it was built for an equal config, else a new
    /// one (the banked hierarchy is dropped first, so two never coexist).
    pub(crate) fn take_mem(&mut self, cfg: MemConfig) -> MemoryHierarchy {
        match self.mem.take() {
            Some(mut mem) if *mem.config() == cfg => {
                mem.reset();
                mem
            }
            stale => {
                drop(stale);
                MemoryHierarchy::new(cfg)
            }
        }
    }

    /// Hands out one cleared per-thread scratch (empty if none banked).
    pub(crate) fn take_thread(&mut self) -> ThreadScratch {
        self.threads.pop().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_queue_delivers_each_event_at_its_cycle() {
        let mut q = CompletionQueue::default();
        q.push(10, 5, 105, 2, 8);
        q.push(9, 9, 109, 1, 8);
        q.push(10, 3, 103, 0, 8);
        q.push(11, 1, 101, 3, 8);
        assert_eq!(q.next_time(8), Some(9));
        let mut due = Vec::new();
        q.drain_due(9, &mut due);
        assert_eq!(due, vec![(9, 109, 1)]);
        due.clear();
        assert_eq!(q.next_time(9), Some(10));
        q.drain_due(10, &mut due);
        due.sort_unstable();
        assert_eq!(due, vec![(3, 103, 0), (5, 105, 2)]);
        due.clear();
        q.drain_due(11, &mut due);
        assert_eq!(due, vec![(1, 101, 3)]);
        assert_eq!(q.next_time(11), None);
    }

    #[test]
    fn completion_queue_handles_late_and_far_events() {
        let mut q = CompletionQueue::default();
        // An event at or before `now` completes on the next drain (the
        // heap-compatible late-push rule).
        q.push(5, 1, 101, 0, 5);
        assert_eq!(q.next_time(5), Some(6));
        let mut due = Vec::new();
        q.drain_due(6, &mut due);
        assert_eq!(due, vec![(1, 101, 0)]);
        due.clear();
        // An event beyond the wheel horizon spills to the overflow heap
        // and still arrives exactly at its cycle.
        let far = 5 + super::WHEEL_SLOTS as u64 + 3;
        q.push(far, 2, 102, 1, 5);
        assert_eq!(q.next_time(5), Some(far));
        q.drain_due(far - 1, &mut due);
        assert!(due.is_empty(), "not due yet");
        q.drain_due(far, &mut due);
        assert_eq!(due, vec![(2, 102, 1)]);
    }

    #[test]
    fn ready_queue_keeps_rob_order_and_dedups() {
        let mut q = ReadyQueue::default();
        q.insert((5, 2));
        q.insert((1, 7));
        q.insert((3, 0));
        q.insert((1, 7)); // duplicate: no-op
        let keys: Vec<_> = q.iter().copied().collect();
        assert_eq!(keys, vec![(1, 7), (3, 0), (5, 2)]);
        q.remove(&(3, 0));
        q.remove(&(9, 9)); // absent: no-op
        let keys: Vec<_> = q.iter().copied().collect();
        assert_eq!(keys, vec![(1, 7), (5, 2)]);
        q.clear();
        assert_eq!(q.iter().count(), 0);
    }

    #[test]
    fn scratch_reset_rebuilds_free_list_and_keeps_capacity() {
        let mut s = SimScratch::new();
        s.reset_for_run(4, 1);
        assert_eq!(s.free_slots, vec![3, 2, 1, 0]);
        s.window[1].consumers.reserve(64);
        let cap = s.window[1].consumers.capacity();
        s.window[1].valid = true;
        s.reset_for_run(4, 1);
        assert!(!s.window[1].valid, "slot must be reset");
        assert!(
            s.window[1].consumers.capacity() >= cap,
            "consumer capacity must survive the reset"
        );
        s.reset_for_run(2, 1);
        assert_eq!(s.window.len(), 2, "shrinking run length truncates");
        s.reset_for_run(6, 1);
        assert_eq!(s.window.len(), 6, "growing run length extends");
    }
}
