//! The Constable engine: coordinates SLD, RMT, AMT, and xPRF, implementing
//! the numbered operations of Fig 8.
//!
//! The cycle-accurate core drives this façade:
//!
//! * rename stage: [`Constable::rename_load`] per load (steps 1–3),
//!   [`Constable::on_dest_write`] per destination register (steps 7–8);
//! * writeback: [`Constable::on_load_writeback`] for non-eliminated loads
//!   (confidence training; steps 4–6 arm elimination for likely-stable ones);
//! * store address generation: [`Constable::on_store_addr`] (step 9);
//! * snoop delivery: [`Constable::on_snoop`] (step 10);
//! * retirement/squash of eliminated loads: [`Constable::free_xprf`].

use crate::amt::Amt;
use crate::config::ConstableConfig;
use crate::rmt::Rmt;
use crate::sld::{Sld, SldDecision, StackState};
use crate::xprf::{Xprf, XprfSlot};
use sim_isa::{ArchReg, MemRef};

/// Rename-stage outcome for a load (steps 1–3 of Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadRename {
    /// Execute normally.
    Normal,
    /// Execute normally, but tagged likely-stable: its writeback will arm
    /// elimination (step 3).
    LikelyStable,
    /// Execution eliminated (step 2): converted to a move from `slot`,
    /// carrying the last-computed address for LB disambiguation.
    Eliminated {
        addr: u64,
        value: u64,
        slot: XprfSlot,
    },
}

/// Why an armed load PC lost its `can_eliminate` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetReason {
    RegWrite,
    StoreAddr,
    Snoop,
    AmtConflict,
    RmtConflict,
    L1Evict,
    Violation,
    ContextSwitch,
}

/// Declares [`ConstableStats`] from one list of counter names: the struct,
/// and its [`ConstableStats::counters`] / [`ConstableStats::counters_mut`]
/// accessors in list order (the order the store's payload codec writes).
macro_rules! constable_stats {
    ($($name:ident,)*) => {
        /// Aggregate Constable statistics.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct ConstableStats {
            $(pub $name: u64,)*
        }

        impl ConstableStats {
            /// Every counter, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = u64> {
                [$(self.$name,)*].into_iter()
            }

            /// Mutable access to the counters, in declaration order.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$name,)*].into_iter()
            }
        }
    };
}

constable_stats! {
    loads_renamed,
    eliminated,
    marked_likely_stable,
    armed,
    xprf_full_forgone,
    resets_reg_write,
    resets_store,
    resets_snoop,
    resets_amt_conflict,
    resets_rmt_conflict,
    resets_l1_evict,
    resets_violation,
    cv_pins_requested,
}

/// The Constable mechanism (the paper's contribution).
///
/// ```
/// use constable::{Constable, ConstableConfig, LoadRename, StackState};
/// use sim_isa::MemRef;
///
/// let mut c = Constable::new(ConstableConfig::paper());
/// let mem = MemRef::rip(0x60_0000);
/// let st = StackState::default();
/// // Train past the confidence threshold…
/// for _ in 0..32 {
///     c.on_load_writeback(0x400, &mem, 0x60_0000, 7, false, st);
/// }
/// // …the next instance is marked likely-stable, executes, arms,
/// assert_eq!(c.rename_load(0x400, &mem, st), LoadRename::LikelyStable);
/// c.on_load_writeback(0x400, &mem, 0x60_0000, 7, true, st);
/// // …and every instance after that is eliminated outright.
/// assert!(matches!(c.rename_load(0x400, &mem, st), LoadRename::Eliminated { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Constable {
    cfg: ConstableConfig,
    sld: Sld,
    rmt: Rmt,
    amt: Amt,
    xprf: Xprf,
    stats: ConstableStats,
    /// SLD accesses in the current rename cycle (port-pressure modeling).
    sld_reads_this_cycle: u32,
    sld_writes_this_cycle: u32,
}

impl Constable {
    /// Creates the mechanism from a configuration.
    pub fn new(cfg: ConstableConfig) -> Self {
        Constable {
            sld: Sld::new(&cfg),
            rmt: Rmt::new(&cfg),
            amt: Amt::new(&cfg),
            xprf: Xprf::new(cfg.xprf_entries),
            stats: ConstableStats::default(),
            sld_reads_this_cycle: 0,
            sld_writes_this_cycle: 0,
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ConstableConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ConstableStats {
        &self.stats
    }

    /// xPRF registers currently backing in-flight eliminated loads.
    pub fn xprf_in_use(&self) -> usize {
        self.xprf.in_use()
    }

    fn mode_allowed(&self, mem: &MemRef) -> bool {
        match self.cfg.mode_filter {
            None => true,
            Some(m) => mem.addr_mode() == m,
        }
    }

    fn reset_pc(&mut self, pc: u64, reason: ResetReason) {
        if self.sld.reset_eliminate(pc) {
            // Only rename-stage resets (register writes, Fig 8 steps 7–8)
            // contend for the SLD's two rename-side write ports (§6.7.1);
            // writeback/memory-stage updates use their own access slots.
            if matches!(reason, ResetReason::RegWrite) {
                self.sld_writes_this_cycle += 1;
            }
            match reason {
                ResetReason::RegWrite => self.stats.resets_reg_write += 1,
                ResetReason::StoreAddr => self.stats.resets_store += 1,
                ResetReason::Snoop => self.stats.resets_snoop += 1,
                ResetReason::AmtConflict => self.stats.resets_amt_conflict += 1,
                ResetReason::RmtConflict => self.stats.resets_rmt_conflict += 1,
                ResetReason::L1Evict => self.stats.resets_l1_evict += 1,
                ResetReason::Violation => self.stats.resets_violation += 1,
                ResetReason::ContextSwitch => {}
            }
        }
    }

    /// Rename-stage load lookup (Fig 8 steps 1–3). Consumes an SLD read port.
    pub fn rename_load(&mut self, pc: u64, mem: &MemRef, stack: StackState) -> LoadRename {
        self.stats.loads_renamed += 1;
        self.sld_reads_this_cycle += 1;
        if !self.mode_allowed(mem) {
            return LoadRename::Normal;
        }
        match self.sld.lookup(pc, stack) {
            SldDecision::Normal => LoadRename::Normal,
            SldDecision::MarkLikelyStable => {
                self.stats.marked_likely_stable += 1;
                LoadRename::LikelyStable
            }
            SldDecision::Eliminate { addr, value } => match self.xprf.alloc() {
                Some(slot) => {
                    self.stats.eliminated += 1;
                    LoadRename::Eliminated { addr, value, slot }
                }
                None => {
                    self.stats.xprf_full_forgone += 1;
                    LoadRename::Normal
                }
            },
        }
    }

    /// Rename-stage destination-register update (Fig 8 steps 7–8): resets
    /// elimination for every load monitored under `reg`.
    ///
    /// `folded_stack_write` marks `rsp ± imm` updates the renamer folds via
    /// its stack-delta tracker; those do not drain the RSP list (the SLD's
    /// recorded [`StackState`] guards those loads instead).
    pub fn on_dest_write(&mut self, reg: ArchReg, folded_stack_write: bool) {
        if reg == ArchReg::RSP && folded_stack_write {
            return;
        }
        for pc in self.rmt.drain(reg) {
            self.reset_pc(pc, ResetReason::RegWrite);
        }
    }

    /// Writeback of a non-eliminated load: trains SLD confidence (§6.2) and,
    /// when `likely_stable`, arms elimination (Fig 8 steps 4–6).
    ///
    /// Returns `true` when the core should pin this core's CV bit in the
    /// directory entry of the load's cacheline (§6.6).
    pub fn on_load_writeback(
        &mut self,
        pc: u64,
        mem: &MemRef,
        addr: u64,
        value: u64,
        likely_stable: bool,
        stack: StackState,
    ) -> bool {
        self.sld.train(pc, addr, value);
        if !likely_stable || !self.mode_allowed(mem) {
            return false;
        }
        // Step 4: monitor every source architectural register.
        let mut uses_rsp = false;
        for reg in mem.addr_regs() {
            if reg == ArchReg::RSP {
                uses_rsp = true;
            }
            if let Some(evicted) = self.rmt.insert(reg, pc) {
                self.reset_pc(evicted, ResetReason::RmtConflict);
            }
        }
        // Step 5: monitor the memory address.
        for victim in self.amt.insert(addr, pc) {
            self.reset_pc(victim, ResetReason::AmtConflict);
        }
        // Step 6: arm.
        if self.sld.arm(pc, stack, uses_rsp) {
            self.stats.armed += 1;
        }
        self.stats.cv_pins_requested += 1;
        true
    }

    /// Store address generation (Fig 8 steps 9 → 8).
    pub fn on_store_addr(&mut self, addr: u64) {
        for pc in self.amt.probe_store(addr) {
            self.reset_pc(pc, ResetReason::StoreAddr);
        }
    }

    /// Snoop delivery (Fig 8 steps 10 → 8). `line` is a cacheline address.
    pub fn on_snoop(&mut self, line: u64) {
        for pc in self.amt.probe_snoop(line) {
            self.reset_pc(pc, ResetReason::Snoop);
        }
    }

    /// Whether this configuration consumes L1-D eviction notifications at
    /// all. Only the Constable-AMT-I variant (Appendix A.3) does; the core
    /// uses this to leave its eviction sink disabled — and the tracking
    /// free — for every other machine.
    pub fn wants_l1_evictions(&self) -> bool {
        self.cfg.amt_invalidate_on_l1_evict
    }

    /// L1-D eviction notifications — only acted on by the Constable-AMT-I
    /// variant (Appendix A.3); the default design pins CV bits instead.
    /// May be called several times per access (the sink hands over its
    /// inline buffer and any spill separately); line order is preserved.
    pub fn on_l1_evictions(&mut self, lines: &[u64]) {
        if !self.cfg.amt_invalidate_on_l1_evict {
            return;
        }
        for &line in lines {
            for pc in self.amt.probe_l1_evict(line) {
                self.reset_pc(pc, ResetReason::L1Evict);
            }
        }
    }

    /// Memory-ordering violation by an eliminated load (§6.5, Fig 10 G):
    /// the flush re-executes it; its confidence is halved at re-execution.
    pub fn on_ordering_violation(&mut self, pc: u64) {
        self.sld.punish(pc);
        self.stats.resets_violation += 1;
    }

    /// Frees the xPRF register of a retired or squashed eliminated load.
    pub fn free_xprf(&mut self, slot: XprfSlot) {
        self.xprf.free(slot);
    }

    /// Context switch / physical-address remap (§6.7.3): drop all
    /// elimination state (confidence survives; it is PC-keyed learning).
    pub fn on_context_switch(&mut self) {
        self.sld.flush_elimination();
        self.rmt.clear();
        self.amt.clear();
    }

    /// Ends the rename cycle, returning `(sld_reads, sld_writes)` consumed —
    /// the core stalls rename when these exceed the configured ports
    /// (§6.7.1: 3R/2W).
    pub fn end_cycle(&mut self) -> (u32, u32) {
        let out = (self.sld_reads_this_cycle, self.sld_writes_this_cycle);
        self.sld_reads_this_cycle = 0;
        self.sld_writes_this_cycle = 0;
        out
    }

    /// Whether `pc` is currently armed (tests/analysis).
    pub fn armed(&self, pc: u64) -> bool {
        self.sld.armed(pc)
    }

    /// Current SLD confidence of `pc` (tests/analysis).
    pub fn confidence(&self, pc: u64) -> Option<u8> {
        self.sld.confidence(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::AddrMode;

    fn engine() -> Constable {
        Constable::new(ConstableConfig::paper())
    }

    fn train_to_armed(c: &mut Constable, pc: u64, mem: &MemRef, addr: u64, value: u64) {
        let st = StackState::default();
        for _ in 0..32 {
            c.on_load_writeback(pc, mem, addr, value, false, st);
        }
        assert_eq!(c.rename_load(pc, mem, st), LoadRename::LikelyStable);
        let pin = c.on_load_writeback(pc, mem, addr, value, true, st);
        assert!(pin, "arming requests a CV pin");
        assert!(c.armed(pc));
    }

    #[test]
    fn full_lifecycle_train_arm_eliminate() {
        let mut c = engine();
        let mem = MemRef::rip(0x60_0000);
        train_to_armed(&mut c, 0x400, &mem, 0x60_0000, 0x5eed);
        match c.rename_load(0x400, &mem, StackState::default()) {
            LoadRename::Eliminated { addr, value, slot } => {
                assert_eq!(addr, 0x60_0000);
                assert_eq!(value, 0x5eed);
                c.free_xprf(slot);
            }
            other => panic!("expected elimination, got {other:?}"),
        }
        assert_eq!(c.stats().eliminated, 1);
    }

    #[test]
    fn store_to_watched_address_disarms() {
        let mut c = engine();
        let mem = MemRef::rip(0x60_0000);
        train_to_armed(&mut c, 0x400, &mem, 0x60_0000, 7);
        c.on_store_addr(0x60_0000);
        assert!(!c.armed(0x400));
        assert_eq!(c.stats().resets_store, 1);
        assert_eq!(
            c.rename_load(0x400, &mem, StackState::default()),
            LoadRename::LikelyStable,
            "confidence is intact; the load re-arms at its next writeback"
        );
    }

    #[test]
    fn store_elsewhere_in_line_disarms_at_line_granularity() {
        let mut c = engine();
        let mem = MemRef::rip(0x60_0000);
        train_to_armed(&mut c, 0x400, &mem, 0x60_0000, 7);
        c.on_store_addr(0x60_0018); // same 64B line
        assert!(
            !c.armed(0x400),
            "cacheline-indexed AMT collides within the line"
        );
    }

    #[test]
    fn full_address_amt_ignores_same_line_store() {
        let cfg = ConstableConfig {
            amt_full_address: true,
            ..ConstableConfig::paper()
        };
        let mut c = Constable::new(cfg);
        let mem = MemRef::rip(0x60_0000);
        train_to_armed(&mut c, 0x400, &mem, 0x60_0000, 7);
        c.on_store_addr(0x60_0018);
        assert!(c.armed(0x400), "full-address AMT must not false-positive");
        c.on_store_addr(0x60_0000);
        assert!(!c.armed(0x400));
    }

    #[test]
    fn snoop_disarms_watched_line() {
        let mut c = engine();
        let mem = MemRef::rip(0x60_0000);
        train_to_armed(&mut c, 0x400, &mem, 0x60_0000, 7);
        c.on_snoop(0x60_0000 >> 6);
        assert!(!c.armed(0x400));
        assert_eq!(c.stats().resets_snoop, 1);
    }

    #[test]
    fn register_write_disarms_reg_relative_load() {
        let mut c = engine();
        let mem = MemRef::base_disp(ArchReg::R8, 0x10);
        train_to_armed(&mut c, 0x500, &mem, 0x1010, 9);
        c.on_dest_write(ArchReg::R8, false);
        assert!(!c.armed(0x500));
        assert_eq!(c.stats().resets_reg_write, 1);
    }

    #[test]
    fn unrelated_register_write_does_not_disarm() {
        let mut c = engine();
        let mem = MemRef::base_disp(ArchReg::R8, 0x10);
        train_to_armed(&mut c, 0x500, &mem, 0x1010, 9);
        c.on_dest_write(ArchReg::R9, false);
        assert!(c.armed(0x500));
    }

    #[test]
    fn folded_rsp_write_preserves_stack_load_elimination() {
        let mut c = engine();
        let mem = MemRef::base_disp(ArchReg::RSP, 0x8);
        let st = StackState {
            epoch: 0,
            delta: -0x40,
        };
        for _ in 0..32 {
            c.on_load_writeback(0x600, &mem, 0x7ffe_ff48, 3, false, st);
        }
        assert_eq!(c.rename_load(0x600, &mem, st), LoadRename::LikelyStable);
        c.on_load_writeback(0x600, &mem, 0x7ffe_ff48, 3, true, st);
        // sub rsp, imm → folded; the RSP monitor list survives…
        c.on_dest_write(ArchReg::RSP, true);
        assert!(c.armed(0x600));
        // …and elimination fires only at the matching stack state.
        assert!(matches!(
            c.rename_load(0x600, &mem, st),
            LoadRename::Eliminated { .. }
        ));
        let other = StackState {
            epoch: 0,
            delta: -0x80,
        };
        assert_eq!(c.rename_load(0x600, &mem, other), LoadRename::Normal);
    }

    #[test]
    fn opaque_rsp_write_disarms_stack_loads() {
        let mut c = engine();
        let mem = MemRef::base_disp(ArchReg::RSP, 0x8);
        let st = StackState::default();
        train_to_armed(&mut c, 0x600, &mem, 0x7ffe_ff48, 3);
        c.on_dest_write(ArchReg::RSP, false); // mov rsp, rax
        assert!(!c.armed(0x600));
        let _ = st;
    }

    #[test]
    fn xprf_exhaustion_forgoes_elimination() {
        let cfg = ConstableConfig {
            xprf_entries: 1,
            ..ConstableConfig::paper()
        };
        let mut c = Constable::new(cfg);
        let mem = MemRef::rip(0x60_0000);
        train_to_armed(&mut c, 0x400, &mem, 0x60_0000, 7);
        let st = StackState::default();
        let first = c.rename_load(0x400, &mem, st);
        assert!(matches!(first, LoadRename::Eliminated { .. }));
        // Slot not yet freed: the next instance cannot be eliminated.
        assert_eq!(c.rename_load(0x400, &mem, st), LoadRename::Normal);
        assert_eq!(c.stats().xprf_full_forgone, 1);
    }

    #[test]
    fn mode_filter_restricts_elimination() {
        let cfg = ConstableConfig {
            mode_filter: Some(AddrMode::StackRelative),
            ..ConstableConfig::paper()
        };
        let mut c = Constable::new(cfg);
        let rip = MemRef::rip(0x60_0000);
        let st = StackState::default();
        for _ in 0..32 {
            c.on_load_writeback(0x400, &rip, 0x60_0000, 7, false, st);
        }
        assert_eq!(
            c.rename_load(0x400, &rip, st),
            LoadRename::Normal,
            "PC-relative load filtered out in stack-only mode"
        );
    }

    #[test]
    fn context_switch_flushes_elimination_state() {
        let mut c = engine();
        let mem = MemRef::rip(0x60_0000);
        train_to_armed(&mut c, 0x400, &mem, 0x60_0000, 7);
        c.on_context_switch();
        assert!(!c.armed(0x400));
        assert_eq!(
            c.rename_load(0x400, &mem, StackState::default()),
            LoadRename::LikelyStable,
            "confidence survives; relearning elimination is fast"
        );
    }

    #[test]
    fn amt_i_variant_disarms_on_l1_evictions() {
        let cfg = ConstableConfig {
            amt_invalidate_on_l1_evict: true,
            ..ConstableConfig::paper()
        };
        let mut c = Constable::new(cfg);
        let mem = MemRef::rip(0x60_0000);
        train_to_armed(&mut c, 0x400, &mem, 0x60_0000, 7);
        c.on_l1_evictions(&[0x60_0000 >> 6]);
        assert!(!c.armed(0x400));
        assert_eq!(c.stats().resets_l1_evict, 1);

        // The default design ignores evictions (CV pinning covers them).
        let mut d = engine();
        train_to_armed(&mut d, 0x400, &mem, 0x60_0000, 7);
        d.on_l1_evictions(&[0x60_0000 >> 6]);
        assert!(d.armed(0x400));
    }

    #[test]
    fn cycle_port_accounting_resets() {
        let mut c = engine();
        let mem = MemRef::rip(0x60_0000);
        let st = StackState::default();
        c.rename_load(0x400, &mem, st);
        c.rename_load(0x404, &mem, st);
        let (r, w) = c.end_cycle();
        assert_eq!(r, 2);
        assert_eq!(w, 0);
        let (r2, _) = c.end_cycle();
        assert_eq!(r2, 0, "counters reset each cycle");
    }
}
