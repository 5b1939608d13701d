//! A flat open-addressed PC → count table for in-flight load tracking.
//!
//! Replaces the `FastHashMap<u64, u32>` the core previously kept: the map
//! was cleared and refilled every run (one probe per load rename, squash,
//! and retire), so its std-`HashMap` machinery — bucket metadata, growth
//! policy, per-run reallocation — bought nothing. This table is a single
//! `Vec<(pc, count)>` with linear probing and the same multiply-rotate hash
//! as [`crate::hash::FastHasher`]; it recycles through `SimScratch`, so the
//! steady state performs no allocation at all.
//!
//! Entries are never removed: counts saturate at zero on decrement and the
//! slot stays claimed until the next [`PcCountTable::clear`] (a run has a
//! bounded static-PC population, so occupancy plateaus quickly).

use std::hash::Hasher;

/// Sentinel key marking an empty slot. PCs are program addresses plus a
/// small SMT tag and can never reach it.
const EMPTY: u64 = u64::MAX;

/// Open-addressed (linear probing) PC → `u32` counter table.
#[derive(Debug)]
pub struct PcCountTable {
    slots: Vec<(u64, u32)>,
    /// `slots.len() - 1`; capacity is always a power of two.
    mask: usize,
    len: usize,
}

impl Default for PcCountTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PcCountTable {
    /// Creates a table with a small initial capacity (grows by rehash).
    pub fn new() -> Self {
        const CAP: usize = 1 << 10;
        PcCountTable {
            slots: vec![(EMPTY, 0); CAP],
            mask: CAP - 1,
            len: 0,
        }
    }

    #[inline]
    fn hash(pc: u64) -> usize {
        let mut h = crate::hash::FastHasher::default();
        h.write_u64(pc);
        h.finish() as usize
    }

    /// Index of `pc`'s slot, or of the empty slot where it would insert.
    #[inline]
    fn probe(&self, pc: u64) -> usize {
        let mut i = Self::hash(pc) & self.mask;
        loop {
            let key = self.slots[i].0;
            if key == pc || key == EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Current count for `pc` (zero when never incremented).
    #[inline]
    pub fn get(&self, pc: u64) -> u32 {
        let i = self.probe(pc);
        if self.slots[i].0 == pc {
            self.slots[i].1
        } else {
            0
        }
    }

    /// Increments `pc`'s count.
    #[inline]
    pub fn inc(&mut self, pc: u64) {
        debug_assert_ne!(pc, EMPTY, "pc collides with the empty sentinel");
        let i = self.probe(pc);
        if self.slots[i].0 == pc {
            self.slots[i].1 += 1;
            return;
        }
        self.slots[i] = (pc, 1);
        self.len += 1;
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
    }

    /// Decrements `pc`'s count, saturating at zero (no-op for unknown PCs).
    #[inline]
    pub fn dec_saturating(&mut self, pc: u64) {
        let i = self.probe(pc);
        if self.slots[i].0 == pc {
            self.slots[i].1 = self.slots[i].1.saturating_sub(1);
        }
    }

    /// Forgets every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.fill((EMPTY, 0));
        self.len = 0;
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![(EMPTY, 0); old.len() * 2];
        self.mask = self.slots.len() - 1;
        for (pc, count) in old {
            if pc != EMPTY {
                let i = self.probe(pc);
                self.slots[i] = (pc, count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_like_a_hashmap() {
        let mut t = PcCountTable::new();
        let mut reference = std::collections::HashMap::new();
        let mut x = 42u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = 0x40_0000 + (x % 3000) * 4;
            match x % 3 {
                0 => {
                    t.inc(pc);
                    *reference.entry(pc).or_insert(0u32) += 1;
                }
                1 => {
                    t.dec_saturating(pc);
                    if let Some(c) = reference.get_mut(&pc) {
                        *c = c.saturating_sub(1);
                    }
                }
                _ => {
                    assert_eq!(t.get(pc), reference.get(&pc).copied().unwrap_or(0));
                }
            }
        }
        for (&pc, &c) in &reference {
            assert_eq!(t.get(pc), c, "final count diverged for {pc:#x}");
        }
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = PcCountTable::new();
        for pc in 0..4000u64 {
            t.inc(pc * 4);
        }
        for pc in 0..4000u64 {
            assert_eq!(t.get(pc * 4), 1);
        }
    }

    #[test]
    fn clear_retains_capacity_and_forgets_counts() {
        let mut t = PcCountTable::new();
        for pc in 0..2000u64 {
            t.inc(pc * 8);
        }
        let cap = t.slots.len();
        t.clear();
        assert_eq!(t.get(0), 0);
        assert_eq!(t.slots.len(), cap, "clear must keep the allocation");
        t.inc(0x400);
        assert_eq!(t.get(0x400), 1);
    }
}
