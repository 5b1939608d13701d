//! The per-core memory hierarchy: L1-D → L2 → LLC → DRAM with prefetchers.
//!
//! The access path is allocation-free: outcomes are plain `Copy` structs,
//! and L1-D eviction lines — consumed only by the Constable-AMT-I variant
//! (Appendix A.3) — flow into a caller-provided [`EvictionSink`] whose
//! storage is an inline fixed-capacity buffer (recycled by the core's
//! `SimScratch`). A disabled sink makes eviction tracking free for every
//! configuration that does not consume it.

use crate::cache::{line_addr, Cache, FillPlan, Replacement};
use crate::dram::{Dram, DramConfig};
use crate::prefetch::{PrefetchReq, SppLite, StreamPrefetcher, StridePrefetcher};
use sim_stats::Counter;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    L1,
    L2,
    Llc,
    Dram,
}

/// Outcome of a demand access. Plain value — copied, never allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Load-to-use latency in core cycles.
    pub latency: u64,
    /// Level that provided the data.
    pub level: HitLevel,
}

/// Collects the L1-D line addresses evicted while servicing accesses
/// (fills and prefetches), for the Constable-AMT-I consumer.
///
/// The common storage is an inline array sized for the worst single access
/// (one demand fill plus a full prefetch burst); a heap `spill` absorbs the
/// pathological overflow without losing lines. A **disabled** sink records
/// nothing, so configurations without an AMT-I consumer pay only one branch
/// per would-be eviction.
#[derive(Debug, Default)]
pub struct EvictionSink {
    enabled: bool,
    len: usize,
    inline: [u64; Self::INLINE],
    spill: Vec<u64>,
}

impl EvictionSink {
    /// Inline capacity: a demand fill evicts at most 1 line and the
    /// prefetch drain at most one per request (stride 2 + streamer 2 +
    /// SPP 4), so 12 leaves slack without growing `SimScratch`.
    pub const INLINE: usize = 12;

    /// Creates a sink; a disabled one discards every push.
    pub fn new(enabled: bool) -> Self {
        EvictionSink {
            enabled,
            ..Default::default()
        }
    }

    /// Enables or disables recording. Does not clear recorded lines.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether pushes are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records an evicted line (no-op when disabled).
    #[inline]
    pub fn push(&mut self, line: u64) {
        if !self.enabled {
            return;
        }
        if self.len < Self::INLINE {
            self.inline[self.len] = line;
            self.len += 1;
        } else {
            self.spill.push(line);
        }
    }

    /// Whether any lines are recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Recorded lines in the inline buffer, in push order.
    pub fn inline_lines(&self) -> &[u64] {
        &self.inline[..self.len]
    }

    /// Overflow lines (pushed after the inline buffer filled), in order.
    pub fn spill_lines(&self) -> &[u64] {
        &self.spill
    }

    /// Forgets all recorded lines (keeps the spill capacity).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Hands every recorded line to `consume` in push order — as one or
    /// two slices (inline buffer, then spill) — and clears the sink.
    /// Consumers should prefer this over reading `inline_lines` /
    /// `spill_lines` by hand: it makes dropping an overflowed spill
    /// impossible to write by accident.
    pub fn drain_with(&mut self, mut consume: impl FnMut(&[u64])) {
        if self.len > 0 {
            consume(&self.inline[..self.len]);
            if !self.spill.is_empty() {
                consume(&self.spill);
            }
        }
        self.clear();
    }
}

/// Cache geometry and latency configuration (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    pub l1_bytes: u64,
    pub l1_ways: usize,
    pub l1_latency: u64,
    pub l2_bytes: u64,
    pub l2_ways: usize,
    pub l2_latency: u64,
    pub llc_bytes: u64,
    pub llc_ways: usize,
    pub llc_latency: u64,
    pub dram: DramConfig,
    /// Enable the L1 PC-stride prefetcher.
    pub l1_prefetch: bool,
    /// Enable the L2 streamer + SPP prefetchers.
    pub l2_prefetch: bool,
}

impl MemConfig {
    /// Appends the stable on-disk key encoding of every field to `out`
    /// (little-endian, declaration order), for the result-store key format.
    /// Exhaustive destructuring: adding a field breaks this at compile
    /// time, forcing it into the encoding and a
    /// `result_store::KEY_FORMAT_VERSION` bump.
    pub fn stable_encode(&self, out: &mut Vec<u8>) {
        let MemConfig {
            l1_bytes,
            l1_ways,
            l1_latency,
            l2_bytes,
            l2_ways,
            l2_latency,
            llc_bytes,
            llc_ways,
            llc_latency,
            dram,
            l1_prefetch,
            l2_prefetch,
        } = self;
        for v in [
            *l1_bytes,
            *l1_ways as u64,
            *l1_latency,
            *l2_bytes,
            *l2_ways as u64,
            *l2_latency,
            *llc_bytes,
            *llc_ways as u64,
            *llc_latency,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        dram.stable_encode(out);
        out.push(u8::from(*l1_prefetch));
        out.push(u8::from(*l2_prefetch));
    }

    /// The baseline hierarchy of Table 2: 48 KB/12-way L1-D (5 cycles) with
    /// a PC-stride prefetcher; 2 MB/16-way L2 (12-cycle round trip) with
    /// stride + streamer + SPP; 3 MB/12-way LLC (50-cycle data round trip)
    /// with dead-block-aware replacement; DDR4.
    pub fn golden_cove_like() -> Self {
        MemConfig {
            l1_bytes: 48 * 1024,
            l1_ways: 12,
            l1_latency: 5,
            l2_bytes: 2 * 1024 * 1024,
            l2_ways: 16,
            l2_latency: 12,
            llc_bytes: 3 * 1024 * 1024,
            llc_ways: 12,
            llc_latency: 50,
            dram: DramConfig::default(),
            l1_prefetch: true,
            l2_prefetch: true,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::golden_cove_like()
    }
}

/// Hierarchy-level statistics.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    pub loads: Counter,
    pub stores: Counter,
    pub snoops: Counter,
    pub l1_hits: Counter,
    pub l2_hits: Counter,
    pub llc_hits: Counter,
    pub dram_accesses: Counter,
}

/// A single core's view of the memory system.
///
/// The L1 geometry is such that sets are indexed by line address; the cache
/// stores tags only (data values live in the functional model).
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: MemConfig,
    l1: Cache,
    l2: Cache,
    llc: Cache,
    dram: Dram,
    stride: StridePrefetcher,
    stream: StreamPrefetcher,
    spp: SppLite,
    pf_scratch: Vec<PrefetchReq>,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Creates a hierarchy from `cfg`.
    pub fn new(cfg: MemConfig) -> Self {
        MemoryHierarchy {
            cfg,
            l1: Cache::new("L1-D", cfg.l1_bytes, cfg.l1_ways, Replacement::Lru),
            l2: Cache::new("L2", cfg.l2_bytes, cfg.l2_ways, Replacement::Lru),
            llc: Cache::new("LLC", cfg.llc_bytes, cfg.llc_ways, Replacement::Srrip),
            dram: Dram::new(cfg.dram),
            stride: StridePrefetcher::new(256, 2),
            stream: StreamPrefetcher::new(16, 2),
            spp: SppLite::new(),
            pf_scratch: Vec::new(),
            stats: HierarchyStats::default(),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Per-level cache statistics: (L1, L2, LLC).
    pub fn cache_stats(
        &self,
    ) -> (
        &crate::cache::CacheStats,
        &crate::cache::CacheStats,
        &crate::cache::CacheStats,
    ) {
        (self.l1.stats(), self.l2.stats(), self.llc.stats())
    }

    fn fill_chain(&mut self, line: u64, now: u64, evictions: &mut EvictionSink) -> (u64, HitLevel) {
        // Every fill below follows a miss in the same cache this call (L1)
        // or this chain (L2/LLC) just observed, so the fills skip the
        // presence re-scan (`fill_after_miss`).
        // L2?
        let l2 = self.l2.access(line, now, false);
        if l2.hit {
            self.stats.l2_hits.inc();
            let r = self
                .l1
                .fill_after_miss(line, now + self.cfg.l2_latency, false);
            if let Some(e) = r.evicted {
                evictions.push(e);
            }
            return (self.cfg.l2_latency + l2.fill_wait, HitLevel::L2);
        }
        // LLC?
        let llc = self.llc.access(line, now, false);
        if llc.hit {
            self.stats.llc_hits.inc();
            let lat = self.cfg.llc_latency + llc.fill_wait;
            let r = self.l1.fill_after_miss(line, now + lat, false);
            if let Some(e) = r.evicted {
                evictions.push(e);
            }
            self.l2.fill_after_miss(line, now + lat, false);
            return (lat, HitLevel::Llc);
        }
        // DRAM.
        self.stats.dram_accesses.inc();
        let lat = self.cfg.llc_latency + self.dram.access(line * 64, now);
        let r = self.l1.fill_after_miss(line, now + lat, false);
        if let Some(e) = r.evicted {
            evictions.push(e);
        }
        self.l2.fill_after_miss(line, now + lat, false);
        self.llc.fill_after_miss(line, now + lat, false);
        (lat, HitLevel::Dram)
    }

    /// Drains pending prefetch requests. Each request costs one scan per
    /// cache level: the L1/L2 presence checks double as fill plans
    /// ([`Cache::plan_fill`]), so the subsequent fills commit straight into
    /// the planned slot instead of rescanning the set.
    fn run_prefetches(&mut self, now: u64, evictions: &mut EvictionSink) {
        for i in 0..self.pf_scratch.len() {
            let req = self.pf_scratch[i];
            let l1_plan = self.l1.plan_fill(req.line);
            if matches!(l1_plan, FillPlan::Present(_)) {
                continue;
            }
            // Determine fill latency from wherever the line currently lives.
            let l2_plan = self.l2.plan_fill(req.line);
            let lat = if matches!(l2_plan, FillPlan::Present(_)) {
                self.cfg.l2_latency
            } else if self.llc.probe(req.line) {
                self.cfg.llc_latency
            } else {
                self.cfg.llc_latency + self.dram.access(req.line * 64, now)
            };
            let r = self.l1.commit_fill(l1_plan, req.line, now, now + lat, true);
            if let Some(e) = r.evicted {
                evictions.push(e);
            }
            self.l2.commit_fill(l2_plan, req.line, now, now + lat, true);
        }
        self.pf_scratch.clear();
    }

    /// Performs a demand load at `addr` issued by the instruction at `pc`.
    /// L1 lines evicted while servicing it land in `evictions`.
    pub fn load(
        &mut self,
        pc: u64,
        addr: u64,
        now: u64,
        evictions: &mut EvictionSink,
    ) -> AccessOutcome {
        self.stats.loads.inc();
        let line = line_addr(addr);
        let l1 = self.l1.access(line, now, false);
        let (latency, level) = if l1.hit {
            self.stats.l1_hits.inc();
            (self.cfg.l1_latency + l1.fill_wait, HitLevel::L1)
        } else {
            let (lat, level) = self.fill_chain(line, now, evictions);
            (self.cfg.l1_latency + lat, level)
        };
        // Train prefetchers on the demand stream.
        if self.cfg.l1_prefetch {
            self.stride.train(pc, addr, &mut self.pf_scratch);
        }
        if self.cfg.l2_prefetch && level != HitLevel::L1 {
            self.stream.train(line, now, &mut self.pf_scratch);
            self.spp.train(line, now, &mut self.pf_scratch);
        }
        self.run_prefetches(now, evictions);
        AccessOutcome { latency, level }
    }

    /// Commits a retired store to `addr` (write-allocate, write-back).
    /// Store commit is off the critical path; the latency returned is the
    /// L1 write latency used for store-buffer drain pacing.
    pub fn store_commit(
        &mut self,
        addr: u64,
        now: u64,
        evictions: &mut EvictionSink,
    ) -> AccessOutcome {
        self.stats.stores.inc();
        let line = line_addr(addr);
        let l1 = self.l1.access(line, now, true);
        if !l1.hit {
            let _ = self.fill_chain(line, now, evictions);
            self.l1.access(line, now, true); // mark dirty after the fill
        } else {
            self.stats.l1_hits.inc();
        }
        AccessOutcome {
            latency: self.cfg.l1_latency,
            level: HitLevel::L1,
        }
    }

    /// Invalidates a line in response to a coherence snoop.
    pub fn snoop_invalidate(&mut self, line: u64) {
        self.stats.snoops.inc();
        self.l1.invalidate(line);
        self.l2.invalidate(line);
    }

    /// Whether the line currently resides in L1-D (used by tests/power model).
    pub fn l1_probe(&self, line: u64) -> bool {
        self.l1.probe(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MemConfig {
        MemConfig {
            l1_bytes: 4 * 1024,
            l1_ways: 4,
            l1_latency: 5,
            l2_bytes: 32 * 1024,
            l2_ways: 8,
            l2_latency: 12,
            llc_bytes: 128 * 1024,
            llc_ways: 8,
            llc_latency: 50,
            dram: DramConfig::default(),
            l1_prefetch: false,
            l2_prefetch: false,
        }
    }

    /// Load with a throwaway (disabled) sink.
    fn load(m: &mut MemoryHierarchy, pc: u64, addr: u64, now: u64) -> AccessOutcome {
        m.load(pc, addr, now, &mut EvictionSink::default())
    }

    #[test]
    fn first_access_misses_to_dram_then_hits_l1() {
        let mut m = MemoryHierarchy::new(small_cfg());
        let a = load(&mut m, 0x400, 0x10000, 0);
        assert_eq!(a.level, HitLevel::Dram);
        assert!(a.latency > 100);
        let b = load(&mut m, 0x400, 0x10008, a.latency);
        assert_eq!(b.level, HitLevel::L1, "same line must now hit L1");
        assert_eq!(b.latency, 5);
    }

    #[test]
    fn capacity_eviction_falls_back_to_l2() {
        let mut m = MemoryHierarchy::new(small_cfg());
        // Touch far more lines than L1 holds (64 lines), same set stride.
        for i in 0..256u64 {
            load(&mut m, 0x400, 0x10000 + i * 64, i * 10);
        }
        // Re-touch the first line: out of L1, should hit L2 or LLC.
        let r = load(&mut m, 0x400, 0x10000, 100_000);
        assert!(matches!(r.level, HitLevel::L2 | HitLevel::Llc));
        assert!(r.latency >= 12);
    }

    #[test]
    fn stride_prefetcher_hides_latency_for_streams() {
        let mut cfg = small_cfg();
        cfg.l1_prefetch = true;
        let mut with_pf = MemoryHierarchy::new(cfg);
        let mut without_pf = MemoryHierarchy::new(small_cfg());
        let mut lat_with = 0u64;
        let mut lat_without = 0u64;
        let mut now = 0;
        for i in 0..128u64 {
            let addr = 0x4_0000 + i * 64;
            lat_with += load(&mut with_pf, 0x400, addr, now).latency;
            lat_without += load(&mut without_pf, 0x400, addr, now).latency;
            now += 200;
        }
        assert!(
            lat_with < lat_without,
            "prefetching must reduce total stream latency ({lat_with} vs {lat_without})"
        );
    }

    #[test]
    fn snoop_invalidation_forces_refetch() {
        let mut m = MemoryHierarchy::new(small_cfg());
        load(&mut m, 0x400, 0x2000, 0);
        assert!(m.l1_probe(line_addr(0x2000)));
        m.snoop_invalidate(line_addr(0x2000));
        assert!(!m.l1_probe(line_addr(0x2000)));
        let r = load(&mut m, 0x400, 0x2000, 1000);
        assert!(r.level > HitLevel::L1, "invalidated line cannot hit L1");
    }

    #[test]
    fn store_commit_marks_line_dirty_and_hits_after_fill() {
        let mut m = MemoryHierarchy::new(small_cfg());
        let s = m.store_commit(0x3000, 0, &mut EvictionSink::default());
        assert_eq!(s.level, HitLevel::L1);
        let r = load(&mut m, 0x400, 0x3000, 10);
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn l1_evictions_are_reported_to_an_enabled_sink() {
        let mut m = MemoryHierarchy::new(small_cfg());
        // L1 = 4KB/4-way = 16 sets; fill one set (stride 16 lines = 1KB).
        let mut sink = EvictionSink::new(true);
        let mut evicted = Vec::new();
        for i in 0..8u64 {
            m.load(0x400, i * 16 * 64, i * 500, &mut sink);
            evicted.extend_from_slice(sink.inline_lines());
            evicted.extend_from_slice(sink.spill_lines());
            sink.clear();
        }
        assert!(!evicted.is_empty(), "overfilled set must evict");
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut m = MemoryHierarchy::new(small_cfg());
        let mut sink = EvictionSink::new(false);
        for i in 0..8u64 {
            m.load(0x400, i * 16 * 64, i * 500, &mut sink);
        }
        assert!(sink.is_empty(), "disabled sink must stay empty");
    }

    #[test]
    fn sink_spills_past_inline_capacity_without_losing_lines() {
        let mut sink = EvictionSink::new(true);
        for line in 0..20u64 {
            sink.push(line);
        }
        assert_eq!(sink.inline_lines().len(), EvictionSink::INLINE);
        assert_eq!(
            sink.inline_lines().len() + sink.spill_lines().len(),
            20,
            "spill must absorb overflow"
        );
        assert_eq!(sink.spill_lines()[0], EvictionSink::INLINE as u64);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn sink_drain_preserves_push_order_across_the_spill_and_clears() {
        let mut sink = EvictionSink::new(true);
        for line in 0..20u64 {
            sink.push(line);
        }
        let mut seen = Vec::new();
        sink.drain_with(|lines| seen.extend_from_slice(lines));
        assert_eq!(seen, (0..20u64).collect::<Vec<_>>());
        assert!(sink.is_empty(), "drain must clear the sink");
        let mut calls = 0;
        sink.drain_with(|_| calls += 1);
        assert_eq!(calls, 0, "an empty sink hands over nothing");
    }
}
