//! Stable Load Detector (SLD) — §6.1, §6.2.
//!
//! A PC-indexed set-associative table that (1) identifies likely-stable
//! loads by a confidence mechanism over past (address, value) outcomes,
//! (2) decides whether a load instance can be eliminated, and (3) supplies
//! the last-computed address and last-fetched value for eliminated loads.

use crate::config::ConstableConfig;

/// State recorded when a stack-relative load arms elimination: the rename
/// stage's stack-delta view of RSP. Elimination is only legal while the
/// renamer can prove RSP holds the same value as at arming time
/// (see DESIGN.md §5 "stack-delta-aware RMT").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StackState {
    /// Bumped on any non-foldable RSP write.
    pub epoch: u64,
    /// Cumulative folded `rsp ± imm` delta within the epoch.
    pub delta: i64,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SldEntry {
    pub tag: u64,
    pub valid: bool,
    pub last_addr: u64,
    pub last_value: u64,
    pub confidence: u8,
    pub can_eliminate: bool,
    /// Stack-delta view captured when `can_eliminate` was set.
    pub stack_state: StackState,
    /// Whether the load reads RSP (stack state must match to eliminate).
    pub uses_rsp: bool,
    pub lru: u64,
}

/// Result of an SLD rename-stage lookup (steps 1–3 of Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SldDecision {
    /// No entry / not yet confident: execute normally.
    Normal,
    /// Confidence at threshold but `can_eliminate` not set: execute the load
    /// and mark it *likely-stable* so its writeback arms elimination.
    MarkLikelyStable,
    /// Eliminate: break data dependence with `value`, record `addr` in the
    /// load buffer for disambiguation.
    Eliminate { addr: u64, value: u64 },
}

/// The Stable Load Detector.
#[derive(Debug, Clone)]
pub struct Sld {
    sets: usize,
    ways: usize,
    threshold: u8,
    max_conf: u8,
    entries: Vec<SldEntry>,
    clock: u64,
}

impl Sld {
    /// Creates an SLD with the configured geometry.
    pub fn new(cfg: &ConstableConfig) -> Self {
        Sld {
            sets: cfg.sld_sets,
            ways: cfg.sld_ways,
            threshold: cfg.confidence_threshold,
            max_conf: cfg.confidence_max,
            entries: vec![SldEntry::default(); cfg.sld_sets * cfg.sld_ways],
            clock: 0,
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    fn find(&self, pc: u64) -> Option<usize> {
        let set = self.set_of(pc);
        (0..self.ways)
            .map(|w| set * self.ways + w)
            .find(|&i| self.entries[i].valid && self.entries[i].tag == pc)
    }

    /// Rename-stage lookup for the load at `pc` (Fig 8 steps 1–3).
    ///
    /// `stack_state` is the renamer's current RSP view; a load that reads
    /// RSP is only eliminated when it matches the state captured at arming.
    pub fn lookup(&mut self, pc: u64, stack_state: StackState) -> SldDecision {
        self.clock += 1;
        let clock = self.clock;
        let Some(i) = self.find(pc) else {
            return SldDecision::Normal;
        };
        let e = &mut self.entries[i];
        e.lru = clock;
        if e.can_eliminate {
            if e.uses_rsp && e.stack_state != stack_state {
                // RSP provably differs from arming time: not safe.
                e.can_eliminate = false;
                return SldDecision::Normal;
            }
            SldDecision::Eliminate {
                addr: e.last_addr,
                value: e.last_value,
            }
        } else if e.confidence >= self.threshold {
            SldDecision::MarkLikelyStable
        } else {
            SldDecision::Normal
        }
    }

    /// Writeback-stage confidence update for a non-eliminated load (§6.2):
    /// +1 on (addr, value) match, halve otherwise. Allocates on first sight.
    /// Returns the updated confidence.
    pub fn train(&mut self, pc: u64, addr: u64, value: u64) -> u8 {
        self.clock += 1;
        let clock = self.clock;
        if let Some(i) = self.find(pc) {
            let e = &mut self.entries[i];
            if e.last_addr == addr && e.last_value == value {
                e.confidence = (e.confidence + 1).min(self.max_conf);
            } else {
                e.confidence /= 2;
                e.can_eliminate = false;
            }
            e.last_addr = addr;
            e.last_value = value;
            e.lru = clock;
            return e.confidence;
        }
        // Allocate: LRU victim within the set.
        let set = self.set_of(pc);
        let victim = (0..self.ways)
            .map(|w| set * self.ways + w)
            .min_by_key(|&i| (self.entries[i].valid, self.entries[i].lru))
            .expect("sld set nonempty");
        self.entries[victim] = SldEntry {
            tag: pc,
            valid: true,
            last_addr: addr,
            last_value: value,
            confidence: 0,
            can_eliminate: false,
            stack_state: StackState::default(),
            uses_rsp: false,
            lru: clock,
        };
        0
    }

    /// Arms elimination for `pc` (Fig 8 step 6), recording the stack view.
    pub fn arm(&mut self, pc: u64, stack_state: StackState, uses_rsp: bool) -> bool {
        if let Some(i) = self.find(pc) {
            let e = &mut self.entries[i];
            e.can_eliminate = true;
            e.stack_state = stack_state;
            e.uses_rsp = uses_rsp;
            true
        } else {
            false
        }
    }

    /// Resets `can_eliminate` for `pc` (Fig 8 step 8). Returns whether an
    /// armed entry was actually reset (an SLD write-port consumer).
    pub fn reset_eliminate(&mut self, pc: u64) -> bool {
        if let Some(i) = self.find(pc) {
            let was = self.entries[i].can_eliminate;
            self.entries[i].can_eliminate = false;
            was
        } else {
            false
        }
    }

    /// Halves the confidence of `pc` (memory-ordering violation, Fig 10 G).
    pub fn punish(&mut self, pc: u64) {
        if let Some(i) = self.find(pc) {
            let e = &mut self.entries[i];
            e.confidence /= 2;
            e.can_eliminate = false;
        }
    }

    /// Clears all elimination state (context switch / page remap, §6.7.3).
    pub fn flush_elimination(&mut self) {
        for e in &mut self.entries {
            e.can_eliminate = false;
        }
    }

    /// Current confidence of `pc` (for tests/ablation).
    pub fn confidence(&self, pc: u64) -> Option<u8> {
        self.find(pc).map(|i| self.entries[i].confidence)
    }

    /// Whether `pc` is currently armed for elimination.
    pub fn armed(&self, pc: u64) -> bool {
        self.find(pc).is_some_and(|i| self.entries[i].can_eliminate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sld() -> Sld {
        Sld::new(&ConstableConfig::paper())
    }

    #[test]
    fn confidence_builds_to_threshold_then_marks_likely_stable() {
        let mut s = sld();
        let st = StackState::default();
        // First training allocates at 0; 30 matches reach the threshold.
        for _ in 0..=30 {
            s.train(0x400, 0x8000, 7);
        }
        assert_eq!(s.confidence(0x400), Some(30));
        assert_eq!(s.lookup(0x400, st), SldDecision::MarkLikelyStable);
    }

    #[test]
    fn armed_entry_eliminates_with_stored_outcome() {
        let mut s = sld();
        let st = StackState::default();
        for _ in 0..=30 {
            s.train(0x400, 0x8000, 7);
        }
        assert!(s.arm(0x400, st, false));
        assert_eq!(
            s.lookup(0x400, st),
            SldDecision::Eliminate {
                addr: 0x8000,
                value: 7
            }
        );
    }

    #[test]
    fn value_change_halves_confidence_and_disarms() {
        let mut s = sld();
        for _ in 0..=31 {
            s.train(0x400, 0x8000, 7);
        }
        s.arm(0x400, StackState::default(), false);
        let c = s.train(0x400, 0x8000, 8); // different value
        assert_eq!(c, 31 / 2);
        assert!(!s.armed(0x400));
    }

    #[test]
    fn address_change_also_halves() {
        let mut s = sld();
        for _ in 0..10 {
            s.train(0x400, 0x8000, 7);
        }
        let before = s.confidence(0x400).unwrap();
        let after = s.train(0x400, 0x9000, 7);
        assert_eq!(after, before / 2);
    }

    #[test]
    fn rsp_state_mismatch_blocks_elimination() {
        let mut s = sld();
        let armed_at = StackState {
            epoch: 1,
            delta: -0x40,
        };
        for _ in 0..=30 {
            s.train(0x500, 0x7fff_0000, 1);
        }
        s.arm(0x500, armed_at, true);
        // Same state: eliminate.
        assert!(matches!(
            s.lookup(0x500, armed_at),
            SldDecision::Eliminate { .. }
        ));
        // Re-arm, then present a different delta: must refuse and disarm.
        s.arm(0x500, armed_at, true);
        let other = StackState {
            epoch: 1,
            delta: -0x80,
        };
        assert_eq!(s.lookup(0x500, other), SldDecision::Normal);
        assert!(!s.armed(0x500));
    }

    #[test]
    fn reset_eliminate_reports_whether_armed() {
        let mut s = sld();
        for _ in 0..=30 {
            s.train(0x400, 0x8000, 7);
        }
        s.arm(0x400, StackState::default(), false);
        assert!(s.reset_eliminate(0x400));
        assert!(!s.reset_eliminate(0x400), "second reset is a no-op");
    }

    #[test]
    fn set_conflict_evicts_lru() {
        let mut s = sld();
        // 32 sets: PCs with identical low bits map to one set. Fill 17 ways.
        let pcs: Vec<u64> = (0..17).map(|i| 0x400 + i * 32 * 4).collect();
        for &pc in &pcs {
            s.train(pc, pc + 1, 1);
        }
        // The first-trained PC must have been evicted.
        assert_eq!(s.confidence(pcs[0]), None);
        assert!(s.confidence(pcs[16]).is_some());
    }

    #[test]
    fn flush_disarms_everything() {
        let mut s = sld();
        for _ in 0..=30 {
            s.train(0x400, 0x8000, 7);
        }
        s.arm(0x400, StackState::default(), false);
        s.flush_elimination();
        assert!(!s.armed(0x400));
        // Confidence survives a flush (only elimination state is cleared).
        assert_eq!(s.confidence(0x400), Some(30));
    }

    #[test]
    fn punish_halves_confidence() {
        let mut s = sld();
        for _ in 0..=31 {
            s.train(0x400, 0x8000, 7);
        }
        s.punish(0x400);
        assert_eq!(s.confidence(0x400), Some(15));
    }
}
