//! Register Monitor Table (RMT) — §6.1, §6.4.2.
//!
//! An architectural-register-indexed table; each entry holds the PCs of
//! currently-eliminated loads that use the register as a source. A write to
//! the register drains the list and resets each PC's `can_eliminate` in the
//! SLD (Condition 1 enforcement).

use crate::config::ConstableConfig;
use sim_isa::ArchReg;

/// The Register Monitor Table.
#[derive(Debug, Clone)]
pub struct Rmt {
    lists: Vec<Vec<u64>>,
    stack_depth: usize,
    other_depth: usize,
}

impl Rmt {
    /// Creates an RMT sized per the configuration (16-deep for RSP/RBP,
    /// 8-deep for the other registers in the paper).
    pub fn new(cfg: &ConstableConfig) -> Self {
        Rmt {
            lists: vec![Vec::new(); ArchReg::NUM_APX],
            stack_depth: cfg.rmt_stack_depth,
            other_depth: cfg.rmt_other_depth,
        }
    }

    fn depth(&self, reg: ArchReg) -> usize {
        if reg.is_stack_reg() {
            self.stack_depth
        } else {
            self.other_depth
        }
    }

    /// Inserts `load_pc` into `reg`'s monitor list (Fig 8 step 4).
    ///
    /// Returns the PC evicted to make room, if the list was full — the
    /// caller must reset that PC's elimination state, since its register is
    /// no longer monitored.
    pub fn insert(&mut self, reg: ArchReg, load_pc: u64) -> Option<u64> {
        let depth = self.depth(reg);
        let list = &mut self.lists[reg.index()];
        if list.contains(&load_pc) {
            return None;
        }
        let evicted = if list.len() >= depth {
            Some(list.remove(0))
        } else {
            None
        };
        list.push(load_pc);
        evicted
    }

    /// Drains the list for `reg` on a write to it (Fig 8 steps 7–8),
    /// returning every load PC whose elimination must be reset.
    pub fn drain(&mut self, reg: ArchReg) -> Vec<u64> {
        std::mem::take(&mut self.lists[reg.index()])
    }

    /// Removes `load_pc` from every list (load disarmed by another path).
    pub fn purge(&mut self, load_pc: u64) {
        for list in &mut self.lists {
            list.retain(|&pc| pc != load_pc);
        }
    }

    /// Clears all lists (context switch, §6.7.3).
    pub fn clear(&mut self) {
        self.lists.iter_mut().for_each(Vec::clear);
    }

    /// Number of PCs currently monitored under `reg` (for tests/stats).
    pub fn len(&self, reg: ArchReg) -> usize {
        self.lists[reg.index()].len()
    }

    /// Whether nothing is monitored at all.
    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rmt() -> Rmt {
        Rmt::new(&ConstableConfig::paper())
    }

    #[test]
    fn drain_returns_monitored_pcs() {
        let mut r = rmt();
        r.insert(ArchReg::RAX, 0x400);
        r.insert(ArchReg::RAX, 0x500);
        let drained = r.drain(ArchReg::RAX);
        assert_eq!(drained, vec![0x400, 0x500]);
        assert_eq!(r.len(ArchReg::RAX), 0);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut r = rmt();
        r.insert(ArchReg::RCX, 0x400);
        r.insert(ArchReg::RCX, 0x400);
        assert_eq!(r.len(ArchReg::RCX), 1);
    }

    #[test]
    fn stack_registers_have_deeper_lists() {
        let mut r = rmt();
        for i in 0..20u64 {
            r.insert(ArchReg::RSP, 0x400 + i * 4);
            r.insert(ArchReg::RAX, 0x400 + i * 4);
        }
        assert_eq!(r.len(ArchReg::RSP), 16);
        assert_eq!(r.len(ArchReg::RAX), 8);
    }

    #[test]
    fn overflow_evicts_oldest_and_reports_it() {
        let mut r = rmt();
        let mut evicted = Vec::new();
        for i in 0..10u64 {
            if let Some(pc) = r.insert(ArchReg::RDX, 0x400 + i * 4) {
                evicted.push(pc);
            }
        }
        assert_eq!(
            evicted,
            vec![0x400, 0x404],
            "oldest two evicted from 8-deep list"
        );
    }

    #[test]
    fn purge_removes_pc_everywhere() {
        let mut r = rmt();
        r.insert(ArchReg::RAX, 0x400);
        r.insert(ArchReg::RBX, 0x400);
        r.purge(0x400);
        assert!(r.is_empty());
    }
}
