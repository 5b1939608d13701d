//! Set-associative cache model, laid out structure-of-arrays.
//!
//! The per-access scan — the simulator's hottest loop after the scheduler —
//! touches only a packed per-set `u64` tag slice; replacement metadata
//! (`meta`), fill timing (`ready_at`), and the dirty/prefetched flags live
//! in cold side arrays and bitsets that are read only on a hit or a victim
//! pick. A one-entry MRU memo (last line that hit or filled, plus its slot)
//! short-circuits the scan entirely for the repeat-access patterns that
//! dominate L1 traffic. None of this changes modelled behavior: the
//! golden-trace test locks the exact per-access outcome sequence against
//! the original array-of-structs implementation.
//!
//! A cache also remembers which slots it has filled since it was built or
//! last reset, so [`Cache::reset`] restores the just-built state by
//! rewriting only those slots: a short run fills a few thousand of the
//! tens of thousands of L2/LLC slots, and recycling the arrays spares it
//! rewriting all of them.

use sim_stats::Counter;

/// Cache line size in bytes (64B, as in the paper's baseline).
pub const LINE_BYTES: u64 = 64;

/// Converts a byte address to a cache-line address.
#[inline]
pub fn line_addr(addr: u64) -> u64 {
    addr / LINE_BYTES
}

/// Tag value marking an empty way. Real line addresses cannot reach it:
/// they are byte addresses divided by 64 (plus a small SMT tag), so the top
/// bits are always clear.
const INVALID_TAG: u64 = u64::MAX;

/// Replacement policy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// True LRU (the paper's L1/L2 policy).
    Lru,
    /// 2-bit SRRIP: a practical stand-in for the paper's dead-block-aware
    /// LLC replacement — both avoid caching lines with distant re-reference.
    Srrip,
}

/// One bit per (set, way) slot; cold flags kept out of the tag scan.
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize, v: bool) {
        let w = &mut self.words[i >> 6];
        let m = 1u64 << (i & 63);
        if v {
            *w |= m;
        } else {
            *w &= !m;
        }
    }
}

/// Cold per-slot metadata (replacement stamp and fill timing), paired in
/// one array entry so a hit or fill touches a single cache line of it.
#[derive(Debug, Clone, Copy, Default)]
struct Cold {
    /// LRU stamp or RRPV depending on policy.
    meta: u64,
    /// Cycle at which an in-flight fill becomes usable (prefetch timing).
    ready_at: u64,
}

/// Result of a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Extra cycles until an in-flight (prefetched) line is usable.
    pub fill_wait: u64,
    /// Whether this hit consumed a prefetched line for the first time.
    pub prefetch_useful: bool,
}

/// Result of inserting a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertResult {
    /// Line address of the evicted victim, if a valid line was displaced.
    pub evicted: Option<u64>,
    /// Whether the victim was dirty (writeback needed).
    pub evicted_dirty: bool,
}

/// Where a fill of a given line will land, computed by [`Cache::plan_fill`]
/// in a single scan of the line's set. A plan is valid only until the next
/// mutation of that set (or of the whole cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPlan {
    /// The line is already present at this slot; committing only refreshes
    /// its `ready_at` (earliest fill wins).
    Present(usize),
    /// The line is absent; committing fills this slot — the same way a
    /// plain [`Cache::insert`] would choose.
    At(usize),
    /// The line is absent and choosing a victim mutates replacement state
    /// (SRRIP aging); committing falls back to the full insert path.
    Rescan,
}

/// Per-cache statistics.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    pub accesses: Counter,
    pub hits: Counter,
    pub misses: Counter,
    pub evictions: Counter,
    pub writebacks: Counter,
    pub prefetch_fills: Counter,
    pub prefetch_useful: Counter,
}

/// A set-associative cache indexed by line address.
///
/// The cache stores no data — the functional model owns values — only tags
/// and replacement state, which is all the timing model needs.
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    sets: usize,
    ways: usize,
    policy: Replacement,
    /// Packed per-set tag slices ([`INVALID_TAG`] marks an empty way); the
    /// only array the hit/miss scan reads.
    tags: Vec<u64>,
    /// Cold per-slot metadata, touched only on a hit or a fill: replacement
    /// stamp/RRPV and fill-ready cycle, paired so one cache line serves
    /// both.
    cold: Vec<Cold>,
    dirty: BitSet,
    /// Filled by a prefetch and not yet demanded (for accuracy stats).
    prefetched: BitSet,
    /// Slots filled since the last build or reset: the ones
    /// [`Cache::reset`] must restore. Every slot mutation starts with a
    /// fill, so an unmarked slot still holds its just-built state.
    filled: BitSet,
    lru_clock: u64,
    /// MRU memo: the last line that hit or filled, and its slot index.
    /// Validated against `tags` on use, so staleness is harmless.
    mru_line: u64,
    mru_idx: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` ways.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole power-of-two sets.
    pub fn new(name: &'static str, size_bytes: u64, ways: usize, policy: Replacement) -> Self {
        let sets = (size_bytes / LINE_BYTES) as usize / ways;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "{name}: sets must be a power of two"
        );
        let slots = sets * ways;
        Cache {
            name,
            sets,
            ways,
            policy,
            tags: vec![INVALID_TAG; slots],
            cold: vec![Cold::default(); slots],
            dirty: BitSet::new(slots),
            prefetched: BitSet::new(slots),
            filled: BitSet::new(slots),
            lru_clock: 0,
            mru_line: INVALID_TAG,
            mru_idx: 0,
            stats: CacheStats::default(),
        }
    }

    /// Restores the state [`Cache::new`] builds — tags, replacement and
    /// fill metadata, dirty and prefetched bits, the LRU clock, the MRU
    /// memo and the statistics — at a cost proportional to the slots
    /// filled since the last build or reset (plus a scan of one bit per
    /// slot).
    pub fn reset(&mut self) {
        for (w, word) in self.filled.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            if bits == 0 {
                continue;
            }
            // Only filled slots ever carry a dirty or prefetched bit.
            self.dirty.words[w] = 0;
            self.prefetched.words[w] = 0;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                self.tags[i] = INVALID_TAG;
                self.cold[i] = Cold::default();
                bits &= bits - 1;
            }
        }
        debug_assert!(
            self.tags.iter().all(|&t| t == INVALID_TAG),
            "{}: a slot was filled without being recorded",
            self.name
        );
        self.lru_clock = 0;
        self.mru_line = INVALID_TAG;
        self.mru_idx = 0;
        self.stats = CacheStats::default();
    }

    /// Address of the tag array (identifies the allocation across moves).
    pub(crate) fn tag_buffer_addr(&self) -> usize {
        self.tags.as_ptr() as usize
    }

    /// Cache name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Slot index of `line`, if present. The MRU memo is checked first and
    /// revalidated against the tag array (a line lives only in its home
    /// set, so a tag match proves residence). The fallback scan reads every
    /// way without an early exit: the whole set is one or two cache lines
    /// of packed tags, and the branchless select beats an unpredictable
    /// loop-exit branch on mixed hit/miss streams.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        if self.mru_line == line && self.tags[self.mru_idx] == line {
            return Some(self.mru_idx);
        }
        let base = self.set_of(line) * self.ways;
        let mut found = usize::MAX;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            if t == line {
                found = w;
            }
        }
        if found == usize::MAX {
            None
        } else {
            Some(base + found)
        }
    }

    /// Looks up `line` (a line address), updating replacement state and
    /// statistics. Does not fill on miss — see [`Cache::insert`].
    pub fn access(&mut self, line: u64, now: u64, is_store: bool) -> LookupResult {
        self.stats.accesses.inc();
        self.lru_clock += 1;
        if let Some(idx) = self.find(line) {
            let fill_wait = self.cold[idx].ready_at.saturating_sub(now);
            let prefetch_useful = self.prefetched.get(idx);
            if prefetch_useful {
                self.prefetched.set(idx, false);
                self.stats.prefetch_useful.inc();
            }
            if is_store {
                self.dirty.set(idx, true);
            }
            self.cold[idx].meta = match self.policy {
                Replacement::Lru => self.lru_clock,
                Replacement::Srrip => 0, // near re-reference
            };
            self.mru_line = line;
            self.mru_idx = idx;
            self.stats.hits.inc();
            return LookupResult {
                hit: true,
                fill_wait,
                prefetch_useful,
            };
        }
        self.stats.misses.inc();
        LookupResult {
            hit: false,
            fill_wait: 0,
            prefetch_useful: false,
        }
    }

    /// Probes for `line` without disturbing replacement state or stats.
    pub fn probe(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Inserts `line`, evicting a victim if the set is full.
    ///
    /// `ready_at` models fill latency (prefetches land in the future);
    /// `prefetched` marks prefetch fills for accuracy accounting.
    pub fn insert(&mut self, line: u64, now: u64, ready_at: u64, prefetched: bool) -> InsertResult {
        let _ = now;
        debug_assert_ne!(line, INVALID_TAG, "line address collides with sentinel");
        // Already present (e.g. racing prefetch): just refresh readiness.
        if let Some(idx) = self.find(line) {
            self.cold[idx].ready_at = self.cold[idx].ready_at.min(ready_at);
            return InsertResult::default();
        }
        let victim = self.pick_victim(self.set_of(line));
        self.fill_slot(victim, line, ready_at, prefetched)
    }

    /// Fill for a line that just missed in [`Cache::access`]: skips the
    /// presence re-scan a plain [`Cache::insert`] would pay and goes
    /// straight to victim selection. Caller-proven absence is asserted in
    /// debug builds; behavior is otherwise identical to `insert`.
    pub fn fill_after_miss(&mut self, line: u64, ready_at: u64, prefetched: bool) -> InsertResult {
        debug_assert!(
            self.find(line).is_none(),
            "fill_after_miss on a resident line"
        );
        let victim = self.pick_victim(self.set_of(line));
        self.fill_slot(victim, line, ready_at, prefetched)
    }

    /// One-scan fill plan for `line`: presence, or the slot a subsequent
    /// [`Cache::commit_fill`] will occupy. Pure — no stats, no replacement
    /// updates — so a prefetch drain can decide *whether* and *where* to
    /// fill before it knows the fill latency, without rescanning the set.
    pub fn plan_fill(&self, line: u64) -> FillPlan {
        if self.mru_line == line && self.tags[self.mru_idx] == line {
            return FillPlan::Present(self.mru_idx);
        }
        // Presence scan reads only the packed tag slice; victim selection
        // (which may touch the cold metadata) is the same `peek_victim`
        // the commit-time `pick_victim` uses, so plan and insert can never
        // choose different slots.
        let base = self.set_of(line) * self.ways;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            if t == line {
                return FillPlan::Present(base + w);
            }
        }
        self.peek_victim(self.set_of(line))
            .map_or(FillPlan::Rescan, FillPlan::At)
    }

    /// Executes a [`FillPlan`] from [`Cache::plan_fill`]. The plan must have
    /// been computed for the same `line` with no intervening mutation of the
    /// cache; the outcome then matches a plain [`Cache::insert`] exactly.
    pub fn commit_fill(
        &mut self,
        plan: FillPlan,
        line: u64,
        now: u64,
        ready_at: u64,
        prefetched: bool,
    ) -> InsertResult {
        match plan {
            FillPlan::Present(idx) => {
                debug_assert_eq!(self.tags[idx], line, "stale fill plan");
                self.cold[idx].ready_at = self.cold[idx].ready_at.min(ready_at);
                InsertResult::default()
            }
            FillPlan::At(idx) => {
                // The check must not call `pick_victim`: its SRRIP arm ages
                // the set, and an assert may not mutate. Non-residence is
                // the property a stale plan would violate (a duplicate tag
                // in the set breaks probe/invalidate).
                debug_assert!(
                    self.find(line).is_none(),
                    "stale fill plan: line became resident after plan_fill"
                );
                self.fill_slot(idx, line, ready_at, prefetched)
            }
            FillPlan::Rescan => self.insert(line, now, ready_at, prefetched),
        }
    }

    /// Writes `line` into slot `idx`, reporting the displaced victim.
    fn fill_slot(
        &mut self,
        idx: usize,
        line: u64,
        ready_at: u64,
        prefetched: bool,
    ) -> InsertResult {
        let mut result = InsertResult::default();
        let old = self.tags[idx];
        if old != INVALID_TAG {
            result.evicted = Some(old);
            result.evicted_dirty = self.dirty.get(idx);
            self.stats.evictions.inc();
            if result.evicted_dirty {
                self.stats.writebacks.inc();
            }
        }
        self.tags[idx] = line;
        self.filled.set(idx, true);
        self.dirty.set(idx, false);
        self.prefetched.set(idx, prefetched);
        self.cold[idx] = Cold {
            meta: match self.policy {
                Replacement::Lru => self.lru_clock,
                // SRRIP: long re-reference prediction on insert (2 of 0..=3),
                // slightly longer for prefetches (dead-on-arrival bias).
                Replacement::Srrip => 2 + u64::from(prefetched),
            },
            ready_at,
        };
        self.mru_line = line;
        self.mru_idx = idx;
        if prefetched {
            self.stats.prefetch_fills.inc();
        }
        result
    }

    /// Invalidates `line` if present (snoop-invalidate); returns whether the
    /// line was present and whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> (bool, bool) {
        if let Some(idx) = self.find(line) {
            let dirty = self.dirty.get(idx);
            self.tags[idx] = INVALID_TAG;
            self.dirty.set(idx, false);
            self.prefetched.set(idx, false);
            self.cold[idx] = Cold::default();
            return (true, dirty);
        }
        (false, false)
    }

    /// The victim slot an insert into `set` would use, without mutating
    /// anything: first invalid way, else LRU minimum / first SRRIP slot at
    /// RRPV ≥ 3. `None` means SRRIP must age the set first. Shared by
    /// [`Cache::plan_fill`] and [`Cache::pick_victim`] so the planned and
    /// committed victim can never diverge.
    fn peek_victim(&self, set: usize) -> Option<usize> {
        let base = set * self.ways;
        // Prefer an invalid way.
        if let Some(w) = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == INVALID_TAG)
        {
            return Some(base + w);
        }
        match self.policy {
            Replacement::Lru => {
                let mut best = base;
                for i in base + 1..base + self.ways {
                    if self.cold[i].meta < self.cold[best].meta {
                        best = i;
                    }
                }
                Some(best)
            }
            Replacement::Srrip => (base..base + self.ways).find(|&i| self.cold[i].meta >= 3),
        }
    }

    fn pick_victim(&mut self, set: usize) -> usize {
        loop {
            if let Some(i) = self.peek_victim(set) {
                return i;
            }
            // SRRIP: no RRPV==3 candidate — age everyone and retry.
            let base = set * self.ways;
            for i in base..base + self.ways {
                self.cold[i].meta += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = Cache::new("t", 4096, 4, Replacement::Lru);
        assert!(!c.access(10, 0, false).hit);
        c.insert(10, 0, 0, false);
        assert!(c.access(10, 1, false).hit);
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 4-set cache, 2 ways: lines 0,4,8 map to set 0 (stride = sets).
        let mut c = Cache::new("t", 8 * 64, 2, Replacement::Lru);
        c.insert(0, 0, 0, false);
        c.insert(4, 0, 0, false);
        c.access(0, 1, false); // make line 0 most recent
        let r = c.insert(8, 2, 2, false);
        assert_eq!(r.evicted, Some(4), "line 4 was least recently used");
        assert!(c.probe(0));
        assert!(!c.probe(4));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = Cache::new("t", 2 * 64, 2, Replacement::Lru);
        c.insert(0, 0, 0, false);
        c.access(0, 1, true); // store → dirty
        c.insert(2, 2, 2, false);
        let r = c.insert(4, 3, 3, false);
        assert!(r.evicted.is_some());
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn prefetched_line_fill_wait_and_usefulness() {
        let mut c = Cache::new("t", 4096, 4, Replacement::Lru);
        c.insert(7, 100, 150, true); // prefetch arriving at cycle 150
        let r = c.access(7, 120, false);
        assert!(r.hit);
        assert_eq!(r.fill_wait, 30);
        assert!(r.prefetch_useful);
        // Second access: no longer counted useful, data now ready.
        let r2 = c.access(7, 200, false);
        assert!(!r2.prefetch_useful);
        assert_eq!(r2.fill_wait, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new("t", 4096, 4, Replacement::Lru);
        c.insert(3, 0, 0, false);
        c.access(3, 0, true);
        let (present, dirty) = c.invalidate(3);
        assert!(present && dirty);
        assert!(!c.probe(3));
        let (present, _) = c.invalidate(3);
        assert!(!present);
    }

    #[test]
    fn srrip_inserts_with_distant_prediction() {
        let mut c = Cache::new("t", 2 * 64, 2, Replacement::Srrip);
        c.insert(0, 0, 0, false);
        c.access(0, 1, false); // promote to RRPV 0
        c.insert(2, 1, 1, false); // RRPV 2
                                  // Next insert should evict the distant line (2), not the hot one (0).
        let r = c.insert(4, 2, 2, false);
        assert_eq!(r.evicted, Some(2));
        assert!(c.probe(0));
    }

    #[test]
    fn mru_memo_survives_eviction_of_the_memoized_line() {
        // 1-set, 2-way cache: the memo goes stale the moment its slot is
        // reused; a stale memo must fall back to the scan, never misreport.
        let mut c = Cache::new("t", 2 * 64, 2, Replacement::Lru);
        c.insert(0, 0, 0, false);
        c.access(0, 1, false); // memo → line 0
        c.insert(1, 1, 1, false);
        c.insert(2, 2, 2, false); // evicts line 0 (LRU), may reuse its slot
        assert!(!c.probe(0), "evicted line must not hit via the memo");
        assert!(c.probe(1) && c.probe(2));
        assert!(
            c.access(2, 3, false).hit,
            "fresh line hits after memo churn"
        );
    }

    #[test]
    fn plan_commit_matches_plain_insert() {
        // Two identical caches: one driven by probe+insert, the other by
        // plan_fill+commit_fill, must stay in lockstep (including SRRIP's
        // Rescan fallback path).
        for policy in [Replacement::Lru, Replacement::Srrip] {
            let mut a = Cache::new("a", 4 * 64, 2, policy);
            let mut b = Cache::new("b", 4 * 64, 2, policy);
            let mut x = 12345u64;
            for step in 0..400u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let line = x % 16;
                let ra = a.insert(line, step, step + 3, true);
                let plan = b.plan_fill(line);
                let rb = b.commit_fill(plan, line, step, step + 3, true);
                assert_eq!(ra, rb, "step {step}: fill outcome diverged");
                assert_eq!(
                    a.stats().evictions.get(),
                    b.stats().evictions.get(),
                    "step {step}: eviction counts diverged"
                );
            }
        }
    }

    #[test]
    fn reset_restores_the_just_built_state() {
        // Demand hits and misses, stores, prefetch fills, invalidations and
        // SRRIP aging over a few sets of a larger cache; after a reset the
        // cache must equal a fresh one field for field (the derived `Debug`
        // prints every field) and replay the same outcomes.
        for policy in [Replacement::Lru, Replacement::Srrip] {
            let script = |c: &mut Cache| {
                let mut x = 99u64;
                let mut out = Vec::new();
                for step in 0..300u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let line = (x >> 33) % 40 * 8;
                    out.push(format!("{:?}", c.access(line, step, x & 1 == 0)));
                    out.push(format!("{:?}", c.insert(line, step, step + 5, x & 2 == 0)));
                    if x.is_multiple_of(7) {
                        out.push(format!("{:?}", c.invalidate(line)));
                    }
                }
                out
            };
            let mut c = Cache::new("t", 64 * 64, 4, policy);
            let first = script(&mut c);
            c.reset();
            let fresh = Cache::new("t", 64 * 64, 4, policy);
            assert_eq!(format!("{c:?}"), format!("{fresh:?}"), "{policy:?}");
            assert_eq!(script(&mut c), first, "{policy:?}: replay diverged");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new("t", 3 * 64, 1, Replacement::Lru);
    }
}
