//! Functional executor.
//!
//! [`Machine`] executes a [`Program`] architecturally — registers, a sparse
//! paged memory, and a shadow return-address stack — producing one
//! [`DynInst`] record per step. The cycle-accurate core consumes this stream
//! for timing, and its retire-stage *golden check* (§8.5 of the paper)
//! validates every load (including Constable-eliminated loads) against these
//! functional outcomes.

use crate::program::{Program, STACK_TOP};
use sim_isa::{ArchReg, BranchKind, CodecError, Dec, DynInst, Enc, MemAccess, OpKind, Pc};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Multiply-rotate hasher for page numbers (the same policy `sim-core`
/// uses for its PC-keyed maps): SipHash cost per page translation is pure
/// overhead for simulator-internal integer keys.
#[derive(Debug, Default, Clone)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// Page number that cannot occur (addresses are < 2^52 pages).
const NO_PAGE: u64 = u64::MAX;

/// Sparse byte-addressable memory backed by 4 KiB pages.
///
/// Page payloads live in one slab (`pages`); a fast-hash map translates
/// page numbers to slab slots, and a one-entry MRU memo short-circuits the
/// translation for the page-local access runs the functional stream is
/// made of. Reads and writes resolve their page **once per access** (twice
/// when straddling a boundary), not once per byte. Reads of untouched
/// memory return zero, matching the "snapshot" semantics of trace-driven
/// simulation.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page payloads, one contiguous slab (`slot * PAGE_SIZE ..`): every
    /// `Machine::new` clones its program's initial image, and cloning the
    /// slab is a single allocation and memcpy instead of one per page.
    pages: Vec<u8>,
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    mru_page: u64,
    mru_slot: u32,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory {
            pages: Vec::new(),
            index: HashMap::default(),
            mru_page: NO_PAGE,
            mru_slot: 0,
        }
    }

    /// Slab slot of `page`, if mapped.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<u32> {
        if self.mru_page == page {
            return Some(self.mru_slot);
        }
        self.index.get(&page).copied()
    }

    /// Slab slot of `page`, mapping a fresh zero page if needed.
    #[inline]
    fn slot_or_map(&mut self, page: u64) -> u32 {
        if self.mru_page == page {
            return self.mru_slot;
        }
        let slot = match self.index.get(&page) {
            Some(&s) => s,
            None => {
                let s = (self.pages.len() / PAGE_SIZE) as u32;
                self.pages.resize(self.pages.len() + PAGE_SIZE, 0);
                self.index.insert(page, s);
                s
            }
        };
        self.mru_page = page;
        self.mru_slot = slot;
        slot
    }

    /// Reads `size` bytes (≤ 8) at `addr` as a little-endian integer.
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + usize::from(size) <= PAGE_SIZE {
            // Common case: the whole span lives in one page.
            let Some(slot) = self.slot_of(addr >> PAGE_SHIFT) else {
                return 0;
            };
            let base = slot as usize * PAGE_SIZE;
            let mut buf = [0u8; 8];
            buf[..usize::from(size)]
                .copy_from_slice(&self.pages[base + off..base + off + usize::from(size)]);
            return u64::from_le_bytes(buf);
        }
        // Page-straddling access: assemble byte-wise.
        let mut v = 0u64;
        for i in 0..u64::from(size) {
            let a = addr + i;
            let b = match self.slot_of(a >> PAGE_SHIFT) {
                Some(s) => self.pages[s as usize * PAGE_SIZE + ((a as usize) & (PAGE_SIZE - 1))],
                None => 0,
            };
            v |= u64::from(b) << (8 * i);
        }
        v
    }

    /// Like [`Memory::read`], but refreshes the MRU page memo — the hot
    /// path the executor uses, where the next access is very likely on the
    /// same page. `read` itself stays `&self` for analysis callers.
    fn read_hot(&mut self, addr: u64, size: u8) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + usize::from(size) <= PAGE_SIZE {
            let page_no = addr >> PAGE_SHIFT;
            let Some(slot) = self.slot_of(page_no) else {
                return 0;
            };
            self.mru_page = page_no;
            self.mru_slot = slot;
            let base = slot as usize * PAGE_SIZE;
            let mut buf = [0u8; 8];
            buf[..usize::from(size)]
                .copy_from_slice(&self.pages[base + off..base + off + usize::from(size)]);
            return u64::from_le_bytes(buf);
        }
        self.read(addr, size)
    }

    /// Writes the low `size` bytes (≤ 8) of `value` at `addr`, little-endian.
    pub fn write(&mut self, addr: u64, value: u64, size: u8) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + usize::from(size) <= PAGE_SIZE {
            let slot = self.slot_or_map(addr >> PAGE_SHIFT);
            let base = slot as usize * PAGE_SIZE;
            self.pages[base + off..base + off + usize::from(size)]
                .copy_from_slice(&value.to_le_bytes()[..usize::from(size)]);
            return;
        }
        for i in 0..u64::from(size) {
            let a = addr + i;
            let slot = self.slot_or_map(a >> PAGE_SHIFT);
            self.pages[slot as usize * PAGE_SIZE + ((a as usize) & (PAGE_SIZE - 1))] =
                (value >> (8 * i)) as u8;
        }
    }

    /// Number of touched pages.
    pub fn page_count(&self) -> usize {
        self.pages.len() / PAGE_SIZE
    }

    /// Releases the slab's and the page map's spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.pages.shrink_to_fit();
        self.index.shrink_to_fit();
    }

    /// Every touched page as `(page number, 4 KiB payload)`, in ascending
    /// page-number order regardless of the slab's allocation order.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let mut pages: Vec<(u64, u32)> = self.index.iter().map(|(&p, &s)| (p, s)).collect();
        pages.sort_unstable_by_key(|&(p, _)| p);
        pages.into_iter().map(move |(page, slot)| {
            let base = slot as usize * PAGE_SIZE;
            (page, &self.pages[base..base + PAGE_SIZE])
        })
    }

    /// Encodes the full page slab for a checkpoint.
    ///
    /// Pages are written in ascending page-number order (see
    /// [`Memory::pages`]), so encode → decode → encode is byte-stable; the
    /// MRU memo is a pure cache and is not encoded.
    pub fn encode(&self, e: &mut Enc) {
        e.seq_len(self.page_count());
        for (page, bytes) in self.pages() {
            e.u64(page);
            e.raw(bytes);
        }
    }

    /// Decodes a memory image written by [`Memory::encode`].
    pub fn decode(d: &mut Dec<'_>) -> Result<Memory, CodecError> {
        let n = d.seq_len()?;
        let mut mem = Memory::new();
        mem.pages.reserve_exact(n * PAGE_SIZE);
        for slot in 0..n {
            let page = d.u64()?;
            mem.pages.extend_from_slice(d.raw(PAGE_SIZE)?);
            mem.index.insert(page, slot as u32);
        }
        Ok(mem)
    }
}

/// The architectural machine state executing a program.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    regs: [u64; ArchReg::NUM_APX],
    mem: Memory,
    /// Shadow return-address stack for Call/Ret (see `sim_isa::BranchKind`).
    ras: Vec<u32>,
    pc_idx: u32,
    seq: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine at the program entry with a clone of the
    /// program's initial memory image and RSP pointing at the stack top.
    pub fn new(program: &'p Program) -> Self {
        let mem = program.image().clone();
        let mut regs = [0u64; ArchReg::NUM_APX];
        regs[ArchReg::RSP.index()] = STACK_TOP;
        regs[ArchReg::RBP.index()] = STACK_TOP;
        Machine {
            program,
            regs,
            mem,
            ras: Vec::new(),
            pc_idx: program.entry(),
            seq: 0,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Current architectural value of `reg`.
    pub fn reg(&self, reg: ArchReg) -> u64 {
        self.regs[reg.index()]
    }

    /// Reads architectural memory (for verification / analysis).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Dynamic instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.seq
    }

    /// Executes one instruction and returns its dynamic record.
    ///
    /// Execution never ends: generated programs loop forever and the caller
    /// decides when to stop. If the PC somehow runs past the text segment it
    /// wraps to the entry point (and the shadow stack is cleared).
    pub fn step(&mut self) -> DynInst {
        if !self.program.contains_index(self.pc_idx) {
            self.pc_idx = self.program.entry();
            self.ras.clear();
        }
        let inst = *self.program.inst(self.pc_idx);
        let pc = Pc::from_index(self.pc_idx);
        let mut rec = DynInst {
            seq: self.seq,
            sidx: self.pc_idx,
            pc,
            next_pc: pc.fallthrough(),
            taken: false,
            mem: None,
            dst_value: 0,
        };
        self.seq += 1;

        let src = |regs: &[u64; ArchReg::NUM_APX], slot: Option<ArchReg>| -> u64 {
            slot.map_or(0, |r| regs[r.index()])
        };

        match inst.kind {
            OpKind::Load { mem, size } => {
                let addr = mem.effective_addr(|r| self.regs[r.index()]);
                let value = self.mem.read_hot(addr, size);
                rec.mem = Some(MemAccess { addr, value, size });
                rec.dst_value = value;
                if let Some(d) = inst.dst {
                    self.regs[d.index()] = value;
                }
            }
            OpKind::Store { mem, size } => {
                let addr = mem.effective_addr(|r| self.regs[r.index()]);
                let value = src(&self.regs, inst.srcs[0]);
                self.mem.write(addr, value, size);
                rec.mem = Some(MemAccess { addr, value, size });
            }
            OpKind::Alu(op) => {
                let a = src(&self.regs, inst.srcs[0]);
                let b = inst.srcs[1].map_or(inst.imm as u64, |r| self.regs[r.index()]);
                let v = op.eval(a, b);
                rec.dst_value = v;
                if let Some(d) = inst.dst {
                    self.regs[d.index()] = v;
                }
            }
            OpKind::Lea(mem) => {
                let v = mem.effective_addr(|r| self.regs[r.index()]);
                rec.dst_value = v;
                if let Some(d) = inst.dst {
                    self.regs[d.index()] = v;
                }
            }
            OpKind::MovImm => {
                rec.dst_value = inst.imm as u64;
                if let Some(d) = inst.dst {
                    self.regs[d.index()] = inst.imm as u64;
                }
            }
            OpKind::Mov => {
                let v = src(&self.regs, inst.srcs[0]);
                rec.dst_value = v;
                if let Some(d) = inst.dst {
                    self.regs[d.index()] = v;
                }
            }
            OpKind::Branch(kind) => {
                let (taken, target) = match kind {
                    BranchKind::Cond { cc, target } => {
                        let a = src(&self.regs, inst.srcs[0]);
                        let b = inst.srcs[1].map_or(inst.imm as u64, |r| self.regs[r.index()]);
                        (cc.eval(a, b), target)
                    }
                    BranchKind::Jump { target } => (true, target),
                    BranchKind::Call { target } => {
                        self.ras.push(self.pc_idx + 1);
                        (true, target)
                    }
                    BranchKind::Ret => {
                        let target = self.ras.pop().unwrap_or(self.program.entry());
                        (true, target)
                    }
                    BranchKind::Indirect => {
                        let pc_val = src(&self.regs, inst.srcs[0]);
                        (true, Pc(pc_val).index())
                    }
                };
                rec.taken = taken;
                if taken {
                    rec.next_pc = Pc::from_index(target);
                }
            }
            OpKind::Nop => {}
        }

        self.pc_idx = rec.next_pc.index();
        rec
    }

    /// Runs `n` steps, returning the records (convenience for tests/analysis).
    pub fn run(&mut self, n: usize) -> Vec<DynInst> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Encodes the architectural state (registers, memory image, shadow
    /// return stack, PC, sequence counter) for a checkpoint. The program
    /// itself is *not* encoded — restore re-binds the same program, and the
    /// checkpoint header pins its identity.
    pub fn encode(&self, e: &mut Enc) {
        let Machine {
            program: _,
            regs,
            mem,
            ras,
            pc_idx,
            seq,
        } = self;
        for &r in regs.iter() {
            e.u64(r);
        }
        mem.encode(e);
        e.seq_len(ras.len());
        for &addr in ras {
            e.u32(addr);
        }
        e.u32(*pc_idx);
        e.u64(*seq);
    }

    /// Decodes a machine written by [`Machine::encode`], re-bound to
    /// `program` (which must be the same program that was checkpointed).
    pub fn decode(program: &'p Program, d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut regs = [0u64; ArchReg::NUM_APX];
        for r in regs.iter_mut() {
            *r = d.u64()?;
        }
        let mem = Memory::decode(d)?;
        let nras = d.seq_len()?;
        let mut ras = Vec::with_capacity(nras);
        for _ in 0..nras {
            ras.push(d.u32()?);
        }
        Ok(Machine {
            program,
            regs,
            mem,
            ras,
            pc_idx: d.u32()?,
            seq: d.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use sim_isa::{AluOp, CondCode, MemRef};

    #[test]
    fn memory_roundtrips_values() {
        let mut m = Memory::new();
        m.write(0x1000, 0xdead_beef_cafe_f00d, 8);
        assert_eq!(m.read(0x1000, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(0x1000, 4), 0xcafe_f00d);
        assert_eq!(m.read(0x2000, 8), 0, "untouched memory reads zero");
    }

    #[test]
    fn memory_handles_page_straddling_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles the first page boundary
        m.write(addr, 0x1122_3344_5566_7788, 8);
        assert_eq!(m.read(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    fn counting_loop() -> Program {
        // rcx = 0; loop: rcx += 1; if rcx < 5 goto loop; jmp exit_spin
        let mut b = ProgramBuilder::new("loop");
        b.set_entry();
        b.movi(ArchReg::RCX, 0);
        let top = b.bind_new_label();
        b.alui(AluOp::Add, ArchReg::RCX, ArchReg::RCX, 1);
        b.br_imm(CondCode::Lt, ArchReg::RCX, 5, top);
        let spin = b.bind_new_label();
        b.jmp(spin);
        b.build()
    }

    #[test]
    fn loop_executes_architecturally() {
        let p = counting_loop();
        let mut m = Machine::new(&p);
        // movi + 5 * (add + br): the first 4 branches are taken, the 5th not.
        let recs = m.run(11);
        assert_eq!(m.reg(ArchReg::RCX), 5);
        let branches: Vec<bool> = recs
            .iter()
            .filter(|r| p.inst(r.sidx).is_branch())
            .map(|r| r.taken)
            .collect();
        assert_eq!(branches, vec![true, true, true, true, false]);
    }

    #[test]
    fn loads_and_stores_hit_memory() {
        let mut b = ProgramBuilder::new("mem");
        let g = b.alloc_global(77);
        b.set_entry();
        b.load_rip(ArchReg::RAX, g);
        b.alui(AluOp::Add, ArchReg::RAX, ArchReg::RAX, 1);
        b.store(ArchReg::RAX, MemRef::rip(g));
        b.load_rip(ArchReg::RDX, g);
        let spin = b.bind_new_label();
        b.jmp(spin);
        let p = b.build();
        let mut m = Machine::new(&p);
        let recs = m.run(4);
        assert_eq!(recs[0].mem.unwrap().value, 77);
        assert_eq!(recs[2].mem.unwrap().value, 78);
        assert_eq!(recs[3].dst_value, 78);
    }

    #[test]
    fn call_and_ret_use_shadow_stack() {
        let mut b = ProgramBuilder::new("call");
        let f = b.label();
        b.set_entry();
        b.call(f);
        let after = b.here();
        b.movi(ArchReg::RAX, 9);
        let spin = b.bind_new_label();
        b.jmp(spin);
        b.bind(f);
        b.movi(ArchReg::RCX, 3);
        b.ret();
        let p = b.build();
        let mut m = Machine::new(&p);
        let recs = m.run(4);
        assert_eq!(recs[0].next_pc, Pc::from_index(3), "call jumps to f");
        assert_eq!(recs[2].next_pc, Pc::from_index(after), "ret returns");
        assert_eq!(m.reg(ArchReg::RAX), 9);
        assert_eq!(m.reg(ArchReg::RCX), 3);
    }

    #[test]
    fn stack_pointer_initialized() {
        let p = counting_loop();
        let m = Machine::new(&p);
        assert_eq!(m.reg(ArchReg::RSP), STACK_TOP);
    }

    #[test]
    fn machine_checkpoint_resumes_bit_exactly() {
        let p = crate::memory_stress(0xC4E0_1234).build();
        let mut straight = Machine::new(&p);
        let mut half = Machine::new(&p);
        let prefix = straight.run(5_000);
        let _ = half.run(2_500);

        let mut e = Enc::new();
        half.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut resumed = Machine::decode(&p, &mut d).unwrap();
        d.finish().unwrap();

        assert_eq!(resumed.executed(), 2_500);
        let tail = resumed.run(2_500);
        assert_eq!(&prefix[2_500..], &tail[..], "resumed records diverge");
        assert_eq!(resumed.regs, straight.regs);
        for rec in prefix.iter().filter_map(|r| r.mem) {
            assert_eq!(
                resumed.mem.read(rec.addr, rec.size),
                straight.mem.read(rec.addr, rec.size)
            );
        }
    }

    #[test]
    fn memory_encode_is_canonical_regardless_of_slot_order() {
        // Two memories with identical contents but different page allocation
        // order must encode identically (checkpoint byte-stability).
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write(0x1000, 7, 8);
        a.write(0x9000, 9, 8);
        b.write(0x9000, 9, 8);
        b.write(0x1000, 7, 8);
        let (mut ea, mut eb) = (Enc::new(), Enc::new());
        a.encode(&mut ea);
        b.encode(&mut eb);
        assert_eq!(ea.into_bytes(), eb.into_bytes());
    }

    #[test]
    fn stable_load_fetches_same_value_forever() {
        // The defining property Constable exploits: a RIP-relative load of a
        // never-written global returns identical (addr, value) every time.
        let mut b = ProgramBuilder::new("stable");
        let g = b.alloc_global(0x5eed);
        b.set_entry();
        let top = b.bind_new_label();
        b.load_rip(ArchReg::RAX, g);
        b.jmp(top);
        let p = b.build();
        let mut m = Machine::new(&p);
        for rec in m.run(100) {
            if let Some(acc) = rec.mem {
                assert_eq!(acc.addr, g);
                assert_eq!(acc.value, 0x5eed);
            }
        }
    }
}
