//! Directory-based coherence with core-valid (CV) bits and CV-bit pinning.
//!
//! Constable must observe every store *by another core* to an address it has
//! eliminated loads for (Condition 2, §5). In a directory protocol the
//! directory only snoops cores whose CV bit is set; a clean eviction clears
//! the CV bit and would silently hide later writes. The paper's fix (§6.6)
//! is to **pin** the evicting core's CV bit for cachelines accessed by
//! eliminated loads, so snoops keep flowing even after clean evictions.
//!
//! This module provides both the real multi-core [`Directory`] and a
//! calibrated [`SnoopInjector`] used by single-core experiment runs (the
//! paper's traces are per-core; cross-core traffic arrives as snoops).

use std::collections::HashMap;

/// A snoop delivered to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snoop {
    /// Destination core.
    pub core: usize,
    /// Cache-line address being invalidated.
    pub line: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Core-valid bit per core.
    cv: u32,
    /// Pinned CV bits (set by Constable for lines with eliminated loads).
    pinned: u32,
}

/// An invalidation-based directory (MESIF-style sharer tracking) for up to
/// 32 cores.
#[derive(Debug, Clone)]
pub struct Directory {
    entries: HashMap<u64, DirEntry>,
    num_cores: usize,
}

impl Directory {
    /// Creates a directory for `num_cores` cores.
    ///
    /// # Panics
    /// Panics if `num_cores` is 0 or exceeds 32.
    pub fn new(num_cores: usize) -> Self {
        assert!((1..=32).contains(&num_cores), "1..=32 cores supported");
        Directory {
            entries: HashMap::new(),
            num_cores,
        }
    }

    /// Number of cores this directory tracks.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Records a read of `line` by `core` (sets its CV bit).
    pub fn on_read(&mut self, core: usize, line: u64) {
        debug_assert!(core < self.num_cores);
        self.entries.entry(line).or_default().cv |= 1 << core;
    }

    /// Records a write of `line` by `core`. Returns the snoops to deliver:
    /// one per *other* core whose CV bit was set. Afterwards only the writer
    /// holds the line; all pins of other cores are cleared ("the CV-bit is
    /// reset as soon as a snoop request is delivered", §6.6).
    pub fn on_write(&mut self, core: usize, line: u64) -> Vec<Snoop> {
        debug_assert!(core < self.num_cores);
        let e = self.entries.entry(line).or_default();
        let me = 1u32 << core;
        let others = e.cv & !me;
        let mut snoops = Vec::new();
        for c in 0..self.num_cores {
            if others & (1 << c) != 0 {
                snoops.push(Snoop { core: c, line });
            }
        }
        e.cv = me;
        e.pinned &= me;
        snoops
    }

    /// Records an eviction of `line` from `core`'s private cache. The CV bit
    /// is cleared *unless pinned* — the mechanism that preserves Constable's
    /// elimination opportunity across clean evictions.
    pub fn on_evict(&mut self, core: usize, line: u64) {
        if let Some(e) = self.entries.get_mut(&line) {
            let me = 1u32 << core;
            if e.pinned & me == 0 {
                e.cv &= !me;
            }
        }
    }

    /// Pins `core`'s CV bit for `line` (called when the memory request of a
    /// likely-stable, not-yet-eliminated load returns from the hierarchy).
    pub fn pin(&mut self, core: usize, line: u64) {
        let e = self.entries.entry(line).or_default();
        let me = 1u32 << core;
        e.cv |= me;
        e.pinned |= me;
    }

    /// Whether `core`'s CV bit is currently set for `line`.
    pub fn cv_set(&self, core: usize, line: u64) -> bool {
        self.entries
            .get(&line)
            .is_some_and(|e| e.cv & (1 << core) != 0)
    }

    /// Whether `core`'s CV bit is pinned for `line`.
    pub fn pinned(&self, core: usize, line: u64) -> bool {
        self.entries
            .get(&line)
            .is_some_and(|e| e.pinned & (1 << core) != 0)
    }
}

/// Synthetic cross-core snoop traffic for single-core runs.
///
/// The injector samples recently loaded lines (so snoops actually intersect
/// the working set Constable is watching) and emits invalidation snoops at a
/// configurable per-instruction rate.
#[derive(Debug, Clone)]
pub struct SnoopInjector {
    /// Expected snoops per 10 000 retired instructions.
    rate_per_10k: u32,
    recent: Vec<u64>,
    cursor: usize,
    state: u64,
}

impl SnoopInjector {
    /// Creates an injector with the given rate (snoops per 10k instructions).
    pub fn new(rate_per_10k: u32, seed: u64) -> Self {
        SnoopInjector {
            rate_per_10k,
            recent: Vec::with_capacity(64),
            cursor: 0,
            state: seed | 1,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic, dependency-free.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Observes a demand-load line address (candidate snoop target).
    pub fn observe(&mut self, line: u64) {
        if self.recent.len() < 64 {
            self.recent.push(line);
        } else {
            self.recent[self.cursor] = line;
            self.cursor = (self.cursor + 1) % 64;
        }
    }

    /// Called once per retired instruction; occasionally returns a snoop line.
    pub fn tick(&mut self) -> Option<u64> {
        if self.rate_per_10k == 0 || self.recent.is_empty() {
            return None;
        }
        let roll = self.next_rand() % 10_000;
        if roll < u64::from(self.rate_per_10k) {
            let idx = (self.next_rand() as usize) % self.recent.len();
            Some(self.recent[idx])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_snoops_only_other_sharers() {
        let mut d = Directory::new(4);
        d.on_read(0, 100);
        d.on_read(1, 100);
        d.on_read(2, 100);
        let snoops = d.on_write(1, 100);
        let cores: Vec<usize> = snoops.iter().map(|s| s.core).collect();
        assert_eq!(cores, vec![0, 2]);
        assert!(d.cv_set(1, 100), "writer keeps the line");
        assert!(!d.cv_set(0, 100));
    }

    #[test]
    fn clean_eviction_clears_cv_unless_pinned() {
        let mut d = Directory::new(2);
        d.on_read(0, 7);
        d.on_evict(0, 7);
        assert!(!d.cv_set(0, 7), "unpinned eviction clears CV");

        d.on_read(0, 8);
        d.pin(0, 8);
        d.on_evict(0, 8);
        assert!(d.cv_set(0, 8), "pinned CV survives eviction");
        // The core must still receive the snoop on a remote write…
        let snoops = d.on_write(1, 8);
        assert_eq!(snoops, vec![Snoop { core: 0, line: 8 }]);
        // …after which the pin is gone, per the protocol.
        assert!(!d.pinned(0, 8));
        assert!(!d.cv_set(0, 8));
    }

    #[test]
    fn pin_without_prior_read_sets_cv() {
        let mut d = Directory::new(2);
        d.pin(1, 9);
        assert!(d.cv_set(1, 9));
        assert!(d.pinned(1, 9));
    }

    #[test]
    fn injector_rate_is_roughly_honored() {
        let mut inj = SnoopInjector::new(100, 42); // 1% of instructions
        for l in 0..32 {
            inj.observe(l);
        }
        let hits = (0..100_000).filter(|_| inj.tick().is_some()).count();
        assert!(
            (500..2000).contains(&hits),
            "expected ≈1000 snoops in 100k ticks, got {hits}"
        );
    }

    #[test]
    fn injector_only_targets_observed_lines() {
        let mut inj = SnoopInjector::new(10_000, 1); // always fire
        inj.observe(0xabc);
        for _ in 0..100 {
            assert_eq!(inj.tick(), Some(0xabc));
        }
    }

    #[test]
    fn zero_rate_injector_never_fires() {
        let mut inj = SnoopInjector::new(0, 3);
        inj.observe(1);
        assert!((0..10_000).all(|_| inj.tick().is_none()));
    }
}
