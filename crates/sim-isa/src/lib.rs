//! # sim-isa — the micro-op ISA model
//!
//! This crate defines the instruction-set substrate shared by every other
//! crate in the Constable reproduction: architectural registers (an
//! x86-64-like file of 16 general-purpose registers, with an optional
//! 32-register "APX" mode used by the Appendix-B study), memory addressing
//! modes (PC-relative, stack-relative, register-relative — the three classes
//! the paper characterizes in §4.1.1), static instructions, and dynamic
//! (executed) instruction records produced by the functional executor.
//!
//! The model is a RISC-like µop ISA rather than raw x86-64: each static
//! instruction is one µop with at most one memory operand, which matches the
//! granularity at which the paper's mechanisms (SLD/RMT/AMT lookup, rename
//! optimizations, port scheduling) operate.
//!
//! ```
//! use sim_isa::{ArchReg, MemRef, AddrMode};
//!
//! let stack_slot = MemRef::base_disp(ArchReg::RSP, 0x14);
//! assert_eq!(stack_slot.addr_mode(), AddrMode::StackRelative);
//! ```

mod inst;
mod reg;

pub use inst::{
    AluOp, BranchKind, CondCode, DynInst, InstClass, MemAccess, MemRef, OpKind, StaticInst,
};
pub use reg::ArchReg;

/// A program counter value.
///
/// PCs in generated programs start at [`Pc::TEXT_BASE`] and advance by
/// [`Pc::INST_BYTES`] per static instruction, mimicking a fixed-width
/// encoding. The newtype keeps PCs from being confused with data addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl Pc {
    /// Base virtual address of the generated text segment.
    pub const TEXT_BASE: u64 = 0x40_0000;
    /// Bytes per (fixed-width) instruction in generated programs.
    pub const INST_BYTES: u64 = 4;

    /// PC of the static instruction at index `idx`.
    #[inline]
    pub fn from_index(idx: u32) -> Self {
        Pc(Self::TEXT_BASE + u64::from(idx) * Self::INST_BYTES)
    }

    /// Static-instruction index this PC refers to.
    ///
    /// # Panics
    /// Panics if the PC lies outside the generated text segment.
    #[inline]
    pub fn index(self) -> u32 {
        debug_assert!(self.0 >= Self::TEXT_BASE, "pc below text base: {self}");
        ((self.0 - Self::TEXT_BASE) / Self::INST_BYTES) as u32
    }

    /// PC of the next sequential instruction.
    #[inline]
    pub fn fallthrough(self) -> Self {
        Pc(self.0 + Self::INST_BYTES)
    }
}

impl std::fmt::Display for Pc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Pc> for u64 {
    fn from(pc: Pc) -> u64 {
        pc.0
    }
}

/// Memory addressing mode classes used throughout the paper (§4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrMode {
    /// RIP-relative: loads of global-scope variables / runtime constants.
    PcRelative,
    /// RSP- or RBP-based with no index register: stack accesses
    /// (spilled locals, inlined-function arguments).
    StackRelative,
    /// Any other general-purpose base/index combination
    /// (struct fields behind pointers, array elements, …).
    RegRelative,
}

impl AddrMode {
    /// All modes, in the paper's presentation order.
    pub const ALL: [AddrMode; 3] = [
        AddrMode::PcRelative,
        AddrMode::StackRelative,
        AddrMode::RegRelative,
    ];

    /// Short label used in experiment output ("PC-rel", "Stack-rel", "Reg-rel").
    pub fn label(self) -> &'static str {
        match self {
            AddrMode::PcRelative => "PC-rel",
            AddrMode::StackRelative => "Stack-rel",
            AddrMode::RegRelative => "Reg-rel",
        }
    }
}

impl std::fmt::Display for AddrMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_roundtrips_through_index() {
        for idx in [0u32, 1, 17, 4096, 1 << 20] {
            assert_eq!(Pc::from_index(idx).index(), idx);
        }
    }

    #[test]
    fn pc_fallthrough_advances_one_slot() {
        let pc = Pc::from_index(7);
        assert_eq!(pc.fallthrough().index(), 8);
    }

    #[test]
    fn addr_mode_labels_are_distinct() {
        let labels: Vec<_> = AddrMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn pc_displays_as_hex() {
        assert_eq!(Pc(0x400000).to_string(), "0x400000");
    }
}
