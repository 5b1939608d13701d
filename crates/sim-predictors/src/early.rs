//! Early-address prior works evaluated against Constable in §9.2:
//! ELAR (early load address resolution [34]) and RFP (register file
//! prefetching [164]). Both accelerate a load's execution but — unlike
//! Constable — still *execute* it, so they do not relieve load resource
//! dependence.

use sim_isa::{ArchReg, MemRef};

/// ELAR: tracks the stack pointer with a small adder in the decode stage so
/// stack-relative loads (`[rsp+imm]` / `[rbp+imm]`) resolve their addresses
/// non-speculatively before rename — skipping the AGU dependence (the load
/// can issue to the load port as soon as a port is free).
///
/// The tracker is valid while every RSP write since the last sync is of the
/// foldable `rsp ± imm` form; any other write (or an RBP write for RBP-based
/// loads) invalidates it until the register's value is produced again.
#[derive(Debug, Clone, Default)]
pub struct Elar {
    rsp_valid: bool,
    rbp_valid: bool,
    /// Loads resolved early since creation (for stats).
    pub resolved: u64,
}

impl Elar {
    /// Creates a tracker; registers become valid after their first write
    /// observed in the folded form (or a sync).
    pub fn new() -> Self {
        Elar {
            rsp_valid: true,
            rbp_valid: true,
            resolved: 0,
        }
    }

    /// Observes a writeback to `reg` at rename. `folded` means the renamer
    /// could compute the new value itself (`rsp ± imm`, `mov rbp, rsp`).
    pub fn on_reg_write(&mut self, reg: ArchReg, folded: bool) {
        if reg == ArchReg::RSP {
            self.rsp_valid = folded && self.rsp_valid;
        } else if reg == ArchReg::RBP {
            self.rbp_valid = folded && self.rsp_valid;
        }
    }

    /// Re-validates after the architectural value is known again
    /// (e.g. at retirement of the non-folded producer).
    pub fn resync(&mut self) {
        self.rsp_valid = true;
        self.rbp_valid = true;
    }

    /// Whether the load's address can be resolved at decode/rename.
    pub fn can_resolve(&mut self, mem: &MemRef) -> bool {
        if mem.rip_relative {
            return true; // PC-relative addresses are always known early
        }
        if mem.index.is_some() {
            return false;
        }
        let ok = match mem.base {
            Some(ArchReg::RSP) => self.rsp_valid,
            Some(ArchReg::RBP) => self.rbp_valid,
            _ => false,
        };
        if ok {
            self.resolved += 1;
        }
        ok
    }
}

/// RFP: predicts a load's *address* at rename from a PC-indexed
/// last-address + stride table and prefetches the data into the register
/// file. A correct address prediction lets the load complete as soon as it
/// executes (data already staged); an incorrect one falls back to the normal
/// path. Configuration: 2K-entry prefetch table (Table 2).
#[derive(Debug, Clone)]
pub struct Rfp {
    entries: Vec<RfpEntry>,
    /// Issued register-file prefetches (for stats).
    pub issued: u64,
    /// Address-correct prefetches (for stats).
    pub correct: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct RfpEntry {
    tag: u32,
    last_addr: u64,
    stride: i64,
    conf: u8,
}

const RFP_CONF_USE: u8 = 3;

impl Rfp {
    /// Creates the predictor with a 2K-entry table.
    pub fn new() -> Self {
        Rfp {
            entries: vec![RfpEntry::default(); 1 << 11],
            issued: 0,
            correct: 0,
        }
    }

    fn idx(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.entries.len() - 1)
    }

    /// Predicts the load's address at rename, if confident.
    pub fn predict(&mut self, pc: u64) -> Option<u64> {
        let idx = self.idx(pc);
        let e = &self.entries[idx];
        if e.tag == (pc >> 2) as u32 && e.conf >= RFP_CONF_USE {
            self.issued += 1;
            Some(e.last_addr.wrapping_add(e.stride as u64))
        } else {
            None
        }
    }

    /// Trains with the actual address at execution; returns whether the
    /// last prediction for this PC would have been correct.
    pub fn train(&mut self, pc: u64, addr: u64) -> bool {
        let idx = self.idx(pc);
        let e = &mut self.entries[idx];
        let mut was_correct = false;
        if e.tag == (pc >> 2) as u32 {
            let stride = addr.wrapping_sub(e.last_addr) as i64;
            if stride == e.stride {
                e.conf = (e.conf + 1).min(7);
                if e.conf >= RFP_CONF_USE {
                    was_correct = true;
                    self.correct += 1;
                }
            } else {
                e.conf = e.conf.saturating_sub(2);
                if e.conf == 0 {
                    e.stride = stride;
                }
            }
            e.last_addr = addr;
        } else {
            *e = RfpEntry {
                tag: (pc >> 2) as u32,
                last_addr: addr,
                stride: 0,
                conf: 0,
            };
        }
        was_correct
    }
}

impl Default for Rfp {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elar_resolves_stack_and_rip_loads() {
        let mut e = Elar::new();
        assert!(e.can_resolve(&MemRef::rip(0x60_0000)));
        assert!(e.can_resolve(&MemRef::base_disp(ArchReg::RSP, 0x10)));
        assert!(e.can_resolve(&MemRef::base_disp(ArchReg::RBP, -0x8)));
        assert!(!e.can_resolve(&MemRef::base_disp(ArchReg::RAX, 0)));
        assert!(!e.can_resolve(&MemRef::base_index(ArchReg::RSP, ArchReg::RAX, 8, 0)));
        assert_eq!(e.resolved, 2, "only stack loads count as ELAR-resolved");
    }

    #[test]
    fn elar_invalidates_on_unfoldable_rsp_write() {
        let mut e = Elar::new();
        e.on_reg_write(ArchReg::RSP, true); // sub rsp, imm — still foldable
        assert!(e.can_resolve(&MemRef::base_disp(ArchReg::RSP, 0)));
        e.on_reg_write(ArchReg::RSP, false); // mov rsp, rax — opaque
        assert!(!e.can_resolve(&MemRef::base_disp(ArchReg::RSP, 0)));
        e.resync();
        assert!(e.can_resolve(&MemRef::base_disp(ArchReg::RSP, 0)));
    }

    #[test]
    fn rfp_predicts_constant_address() {
        let mut r = Rfp::new();
        for _ in 0..8 {
            r.train(0x400, 0x7000);
        }
        assert_eq!(r.predict(0x400), Some(0x7000));
    }

    #[test]
    fn rfp_predicts_strided_addresses() {
        let mut r = Rfp::new();
        for i in 0..8u64 {
            r.train(0x500, 0x1000 + i * 64);
        }
        assert_eq!(r.predict(0x500), Some(0x1000 + 8 * 64));
    }

    #[test]
    fn rfp_unconfident_after_address_chaos() {
        let mut r = Rfp::new();
        let mut x = 77u64;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            r.train(0x600, x);
        }
        assert_eq!(r.predict(0x600), None);
    }
}
