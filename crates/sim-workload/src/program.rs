//! Synthetic program representation and builder.
//!
//! A [`Program`] is a fixed-width sequence of [`StaticInst`]s plus an initial
//! data image — the moral equivalent of the paper's workload *trace snapshot*
//! ("a snapshot of the processor and the memory state", §8.3). Programs are
//! produced by [`ProgramBuilder`], which provides a tiny assembler-like API
//! with labels and fix-ups used by the kernel templates in
//! [`crate::kernels`].

use crate::exec::Memory;
use sim_isa::{AluOp, ArchReg, BranchKind, CondCode, MemRef, OpKind, Pc, StaticInst};

/// Base of the global data segment in generated programs.
pub const DATA_BASE: u64 = 0x60_0000;
/// Initial stack pointer in generated programs (grows down).
pub const STACK_TOP: u64 = 0x7fff_0000;

/// A branch-target label handed out by [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A complete generated program.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    insts: Vec<StaticInst>,
    entry: u32,
    /// The initial memory image, written by the builder and cloned by
    /// every `Machine::new`.
    image: Memory,
    apx: bool,
}

impl Program {
    /// The program's display name (workload/trace name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All static instructions.
    pub fn insts(&self) -> &[StaticInst] {
        &self.insts
    }

    /// The static instruction at index `idx`, wrapping past the end
    /// (used by wrong-path fetch, which may run off the text segment).
    pub fn inst(&self, idx: u32) -> &StaticInst {
        &self.insts[idx as usize % self.insts.len()]
    }

    /// Whether `idx` is a valid (non-wrapped) static index.
    pub fn contains_index(&self, idx: u32) -> bool {
        (idx as usize) < self.insts.len()
    }

    /// Index of the entry instruction.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The initial memory image.
    pub fn image(&self) -> &Memory {
        &self.image
    }

    /// Whether this program was generated for the 32-register APX study.
    pub fn apx(&self) -> bool {
        self.apx
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of static load instructions.
    pub fn static_loads(&self) -> usize {
        self.insts.iter().filter(|i| i.is_load()).count()
    }
}

/// Incremental builder for [`Program`]s.
///
/// ```
/// use sim_workload::ProgramBuilder;
/// use sim_isa::{ArchReg, CondCode};
///
/// let mut b = ProgramBuilder::new("demo");
/// let g = b.alloc_global(42);
/// b.set_entry();
/// let top = b.bind_new_label();
/// b.load_rip(ArchReg::RAX, g);
/// b.alui(sim_isa::AluOp::Add, ArchReg::RCX, ArchReg::RCX, 1);
/// b.br_imm(CondCode::Lt, ArchReg::RCX, 1_000_000, top);
/// b.jmp(top);
/// let p = b.build();
/// assert_eq!(p.static_loads(), 1);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    insts: Vec<StaticInst>,
    labels: Vec<Option<u32>>,
    fixups: Vec<(usize, Label)>,
    image: Memory,
    next_data: u64,
    entry: Option<u32>,
    apx: bool,
}

impl ProgramBuilder {
    /// Creates an empty builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            insts: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            image: Memory::new(),
            next_data: DATA_BASE,
            entry: None,
            apx: false,
        }
    }

    /// Enables APX mode (32 architectural registers) for this program.
    pub fn with_apx(mut self, apx: bool) -> Self {
        self.apx = apx;
        self
    }

    /// Whether this builder targets APX (32-register) mode.
    pub fn apx(&self) -> bool {
        self.apx
    }

    /// Index the next emitted instruction will get.
    pub fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Marks the next emitted instruction as the program entry point.
    pub fn set_entry(&mut self) {
        self.entry = Some(self.here());
    }

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.here());
    }

    /// Convenience: creates a label bound right here.
    pub fn bind_new_label(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Allocates an 8-byte global initialized to `value`; returns its address.
    pub fn alloc_global(&mut self, value: u64) -> u64 {
        let addr = self.next_data;
        self.next_data += 8;
        self.image.write(addr, value, 8);
        addr
    }

    /// Allocates `len` u64 slots; returns the base address. Slots are zeroed
    /// unless initialized via [`ProgramBuilder::init_u64`].
    pub fn alloc_region(&mut self, len: u64) -> u64 {
        let addr = self.next_data;
        // Pad to cacheline so regions don't share lines by accident.
        self.next_data += (len * 8).div_ceil(64) * 64;
        addr
    }

    /// Writes an initial 8-byte memory value (a later write to the same
    /// bytes wins).
    pub fn init_u64(&mut self, addr: u64, value: u64) {
        self.image.write(addr, value, 8);
    }

    fn push(&mut self, inst: StaticInst) -> u32 {
        let idx = self.here();
        self.insts.push(inst);
        idx
    }

    /// Emits `dst = [mem]` (8-byte load).
    pub fn load(&mut self, dst: ArchReg, mem: MemRef) -> u32 {
        let idx = self.here();
        self.push(StaticInst::new(idx, OpKind::Load { mem, size: 8 }).with_dst(dst))
    }

    /// Emits a RIP-relative load of the global at `addr`.
    pub fn load_rip(&mut self, dst: ArchReg, addr: u64) -> u32 {
        self.load(dst, MemRef::rip(addr))
    }

    /// Emits `[mem] = src` (8-byte store).
    pub fn store(&mut self, src: ArchReg, mem: MemRef) -> u32 {
        let idx = self.here();
        self.push(StaticInst::new(idx, OpKind::Store { mem, size: 8 }).with_srcs(Some(src), None))
    }

    /// Emits `dst = op(a, b)`.
    pub fn alu(&mut self, op: AluOp, dst: ArchReg, a: ArchReg, b: ArchReg) -> u32 {
        let idx = self.here();
        self.push(
            StaticInst::new(idx, OpKind::Alu(op))
                .with_srcs(Some(a), Some(b))
                .with_dst(dst),
        )
    }

    /// Emits `dst = op(a, imm)`.
    pub fn alui(&mut self, op: AluOp, dst: ArchReg, a: ArchReg, imm: i64) -> u32 {
        let idx = self.here();
        self.push(
            StaticInst::new(idx, OpKind::Alu(op))
                .with_srcs(Some(a), None)
                .with_dst(dst)
                .with_imm(imm),
        )
    }

    /// Emits `dst = imm`.
    pub fn movi(&mut self, dst: ArchReg, imm: u64) -> u32 {
        let idx = self.here();
        self.push(
            StaticInst::new(idx, OpKind::MovImm)
                .with_dst(dst)
                .with_imm(imm as i64),
        )
    }

    /// Emits `dst = src` (move-elimination candidate).
    pub fn mov(&mut self, dst: ArchReg, src: ArchReg) -> u32 {
        let idx = self.here();
        self.push(
            StaticInst::new(idx, OpKind::Mov)
                .with_srcs(Some(src), None)
                .with_dst(dst),
        )
    }

    /// Emits `dst = &mem` (address computation only).
    pub fn lea(&mut self, dst: ArchReg, mem: MemRef) -> u32 {
        let idx = self.here();
        self.push(StaticInst::new(idx, OpKind::Lea(mem)).with_dst(dst))
    }

    /// Emits a conditional branch `if cc(a, b) goto label`.
    pub fn br(&mut self, cc: CondCode, a: ArchReg, b: ArchReg, label: Label) -> u32 {
        let idx = self.here();
        self.fixups.push((idx as usize, label));
        self.push(
            StaticInst::new(idx, OpKind::Branch(BranchKind::Cond { cc, target: 0 }))
                .with_srcs(Some(a), Some(b)),
        )
    }

    /// Emits a conditional branch `if cc(a, imm) goto label`.
    pub fn br_imm(&mut self, cc: CondCode, a: ArchReg, imm: i64, label: Label) -> u32 {
        let idx = self.here();
        self.fixups.push((idx as usize, label));
        self.push(
            StaticInst::new(idx, OpKind::Branch(BranchKind::Cond { cc, target: 0 }))
                .with_srcs(Some(a), None)
                .with_imm(imm),
        )
    }

    /// Emits an unconditional jump.
    pub fn jmp(&mut self, label: Label) -> u32 {
        let idx = self.here();
        self.fixups.push((idx as usize, label));
        self.push(StaticInst::new(
            idx,
            OpKind::Branch(BranchKind::Jump { target: 0 }),
        ))
    }

    /// Emits a direct call.
    pub fn call(&mut self, label: Label) -> u32 {
        let idx = self.here();
        self.fixups.push((idx as usize, label));
        self.push(StaticInst::new(
            idx,
            OpKind::Branch(BranchKind::Call { target: 0 }),
        ))
    }

    /// Emits a return.
    pub fn ret(&mut self) -> u32 {
        let idx = self.here();
        self.push(StaticInst::new(idx, OpKind::Branch(BranchKind::Ret)))
    }

    /// Emits a no-op.
    pub fn nop(&mut self) -> u32 {
        let idx = self.here();
        self.push(StaticInst::new(idx, OpKind::Nop))
    }

    /// Resolves fix-ups and produces the program.
    ///
    /// # Panics
    /// Panics if any label is unbound or no entry point was set.
    pub fn build(mut self) -> Program {
        for (inst_idx, label) in &self.fixups {
            let target = self.labels[label.0].expect("unbound label at build time");
            let inst = &mut self.insts[*inst_idx];
            inst.kind = match inst.kind {
                OpKind::Branch(BranchKind::Cond { cc, .. }) => {
                    OpKind::Branch(BranchKind::Cond { cc, target })
                }
                OpKind::Branch(BranchKind::Jump { .. }) => {
                    OpKind::Branch(BranchKind::Jump { target })
                }
                OpKind::Branch(BranchKind::Call { .. }) => {
                    OpKind::Branch(BranchKind::Call { target })
                }
                other => panic!("fixup on non-branch instruction: {other:?}"),
            };
        }
        let entry = self.entry.expect("program entry not set");
        assert!(
            (entry as usize) < self.insts.len(),
            "entry beyond last instruction"
        );
        self.image.shrink_to_fit();
        Program {
            name: self.name,
            insts: self.insts,
            entry,
            image: self.image,
            apx: self.apx,
        }
    }
}

/// Resolved branch target of a static instruction, if it is a direct branch.
pub fn direct_target(inst: &StaticInst) -> Option<Pc> {
    match inst.kind {
        OpKind::Branch(BranchKind::Cond { target, .. })
        | OpKind::Branch(BranchKind::Jump { target })
        | OpKind::Branch(BranchKind::Call { target }) => Some(Pc::from_index(target)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Machine;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut b = ProgramBuilder::new("t");
        b.set_entry();
        let back = b.bind_new_label();
        let fwd = b.label();
        b.jmp(fwd);
        b.jmp(back);
        b.bind(fwd);
        b.nop();
        let p = b.build();
        assert_eq!(direct_target(&p.insts()[0]), Some(Pc::from_index(2)));
        assert_eq!(direct_target(&p.insts()[1]), Some(Pc::from_index(0)));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics_at_build() {
        let mut b = ProgramBuilder::new("t");
        b.set_entry();
        let l = b.label();
        b.jmp(l);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "entry not set")]
    fn missing_entry_panics() {
        let mut b = ProgramBuilder::new("t");
        b.nop();
        let _ = b.build();
    }

    #[test]
    fn globals_are_cacheline_padded_regions() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_region(1);
        let c = b.alloc_region(1);
        assert_eq!(a % 64, 0);
        assert_eq!(c - a, 64);
    }

    #[test]
    fn overlapping_initial_writes_resolve_last_write_wins() {
        let mut b = ProgramBuilder::new("t");
        let g = b.alloc_global(1);
        let region = b.alloc_region(2);
        assert_eq!(region, g + 8, "the region directly follows the global");
        b.init_u64(region, 5);
        b.init_u64(g, 2);
        // Straddles the global's high half and the region's low half.
        b.init_u64(g + 4, 0x1111_2222_3333_4444);
        b.init_u64(region + 8, 6);
        b.init_u64(region + 8, 7);
        b.set_entry();
        b.nop();
        let p = b.build();
        assert_eq!(p.image().read(g, 8), 0x3333_4444_0000_0002);
        assert_eq!(p.image().read(region, 8), 0x1111_2222);
        assert_eq!(p.image().read(region + 8, 8), 7);
    }

    #[test]
    fn uninitialised_region_bytes_read_zero() {
        let mut b = ProgramBuilder::new("t");
        let region = b.alloc_region(16);
        b.init_u64(region + 3 * 8, u64::MAX);
        // A region whose page no write ever touches stays unmapped.
        let far = b.alloc_region(2048);
        b.set_entry();
        b.nop();
        let p = b.build();
        let m = Machine::new(&p);
        for word in (0..16).filter(|&w| w != 3) {
            assert_eq!(m.mem().read(region + word * 8, 8), 0, "word {word}");
        }
        assert_eq!(m.mem().read(region + 3 * 8, 8), u64::MAX);
        assert_eq!(m.mem().read(far + 4096, 8), 0);
        assert_eq!(p.image().page_count(), 1);
    }

    #[test]
    fn machine_reads_back_every_initialised_word() {
        let mut b = ProgramBuilder::new("t");
        let globals: Vec<(u64, u64)> = (0..100u64)
            .map(|i| {
                let v = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (b.alloc_global(v), v)
            })
            .collect();
        // A region spanning three pages, every word initialised.
        let region = b.alloc_region(1500);
        let words: Vec<(u64, u64)> = (0..1500u64).map(|i| (region + i * 8, !i)).collect();
        for &(addr, v) in &words {
            b.init_u64(addr, v);
        }
        b.set_entry();
        b.nop();
        let p = b.build();
        let m = Machine::new(&p);
        for &(addr, v) in globals.iter().chain(&words) {
            assert_eq!(m.mem().read(addr, 8), v, "word at {addr:#x}");
        }
    }

    #[test]
    fn inst_wraps_for_wrong_path_fetch() {
        let mut b = ProgramBuilder::new("t");
        b.set_entry();
        b.nop();
        b.nop();
        let p = b.build();
        assert_eq!(p.inst(5).pc, Pc::from_index(1));
        assert!(p.contains_index(1));
        assert!(!p.contains_index(2));
    }
}
