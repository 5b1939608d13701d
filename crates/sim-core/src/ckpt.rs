//! Checkpoint format plumbing: the version constant, the restore error
//! type, the program-identity fingerprint, and byte codecs for the plain
//! data carried inside a [`crate::Core`] checkpoint.
//!
//! # Format discipline
//!
//! A checkpoint is a versioned, single-pass byte stream written by
//! [`crate::Core::checkpoint`] and read by [`crate::Core::restore`]:
//!
//! ```text
//! header   : u32 CKPT_FORMAT_VERSION, u64 config fingerprint,
//!            u8 thread count, u64 program fingerprint per thread
//! tapes    : per thread — pull point, replay-record count (always 0),
//!            functional machine
//! threads  : per thread — queues, rename state, predictor-side state
//! core     : clock, window slab, events, hierarchy, predictors, stats
//! ```
//!
//! Geometry and configuration are never serialized: restore takes the same
//! [`crate::CoreConfig`] and programs the checkpoint was taken under
//! (pinned by the header fingerprints), rebuilds every structure through
//! the normal constructors, and fills in the dynamic state. Every struct
//! encodes via exhaustive destructuring, so adding a field is a compile
//! error at its encoder — the author must either encode it or consciously
//! exclude it, and **must bump [`CKPT_FORMAT_VERSION`]** whenever the byte
//! layout changes meaning. The `checkpoint_format_drift_pinned` test in
//! this module turns silent layout drift into a test failure, exactly like
//! the result-store's key-format guard.
//!
//! Restore is bit-exact: a restored core continues the simulation as the
//! original would have, reproducing every committed trace-oracle digest —
//! `tests/trace_oracle.rs` re-derives the whole golden matrix through
//! mid-run checkpoint/restore to lock this.

use crate::uop::{Fetched, Tag, Uop, UopState};
use constable::{StackState, XprfSlot};
use sim_isa::{ArchReg, CodecError, Dec, Enc, InstClass};
use sim_mem::TraceDigest;
use sim_workload::Program;

/// Version of the checkpoint byte format. Bump on ANY change to what the
/// encoders write or how the decoders interpret it; restore refuses a
/// mismatched version outright (checkpoints are cheap to retake — a stale
/// one must never be misparsed).
pub const CKPT_FORMAT_VERSION: u32 = 2;

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The byte stream is malformed (truncated, bad tag, trailing bytes).
    Codec(CodecError),
    /// The checkpoint was written by a different format version.
    Version { found: u32, expected: u32 },
    /// The checkpoint was taken under a different core configuration.
    ConfigMismatch { found: u64, expected: u64 },
    /// The checkpoint was taken with a different thread count.
    ThreadCount { found: usize, expected: usize },
    /// Thread `thread`'s program differs from the checkpointed one.
    ProgramMismatch {
        thread: usize,
        found: u64,
        expected: u64,
    },
}

impl From<CodecError> for CkptError {
    fn from(e: CodecError) -> Self {
        CkptError::Codec(e)
    }
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Codec(e) => write!(f, "malformed checkpoint: {e}"),
            CkptError::Version { found, expected } => {
                write!(
                    f,
                    "checkpoint format v{found}, this build reads v{expected}"
                )
            }
            CkptError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint config fingerprint {found:#018x} != supplied {expected:#018x}"
            ),
            CkptError::ThreadCount { found, expected } => {
                write!(f, "checkpoint has {found} threads, {expected} supplied")
            }
            CkptError::ProgramMismatch {
                thread,
                found,
                expected,
            } => write!(
                f,
                "thread {thread} program fingerprint {found:#018x} != supplied {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

/// Identity fingerprint of a program: folds the name, geometry, entry
/// point, per-instruction identity (PC, class, destination, immediate),
/// and the initial memory image, page by page in ascending page order.
/// Two programs with equal fingerprints produce the same functional
/// record stream for all practical purposes; the header check exists to
/// catch *accidental* mixups (restoring cell A's checkpoint under cell
/// B's workload), not adversarial collisions.
pub(crate) fn program_fingerprint(p: &Program) -> u64 {
    let mut d = TraceDigest::new();
    d.update_bytes(p.name().as_bytes());
    d.update(p.name().len() as u64);
    d.update(p.len() as u64);
    d.update(u64::from(p.entry()));
    d.update(u64::from(p.apx()));
    for idx in 0..p.len() as u32 {
        let inst = p.inst(idx);
        d.update(inst.pc.0);
        d.update(inst.class() as u64);
        d.update(inst.dst.map_or(0, |r| r.index() as u64 + 1));
        d.update(inst.imm as u64);
    }
    d.update(p.image().page_count() as u64);
    for (page, bytes) in p.image().pages() {
        d.update(page);
        d.update_bytes(bytes);
    }
    d.finish()
}

pub(crate) fn encode_stack(s: &StackState, e: &mut Enc) {
    let StackState { epoch, delta } = s;
    e.u64(*epoch);
    e.i64(*delta);
}

pub(crate) fn decode_stack(d: &mut Dec<'_>) -> Result<StackState, CodecError> {
    Ok(StackState {
        epoch: d.u64()?,
        delta: d.i64()?,
    })
}

pub(crate) fn encode_fetched(f: &Fetched, e: &mut Enc) {
    let Fetched {
        thread,
        sidx,
        wrong_path,
        seq,
        mispredicted,
        fetched_at,
    } = f;
    e.usize(*thread);
    e.u32(*sidx);
    e.bool(*wrong_path);
    e.u64(*seq);
    e.bool(*mispredicted);
    e.u64(*fetched_at);
}

pub(crate) fn decode_fetched(nthreads: usize, d: &mut Dec<'_>) -> Result<Fetched, CodecError> {
    let at = d.pos();
    let thread = d.usize()?;
    if thread >= nthreads {
        return Err(CodecError::BadLength {
            at,
            len: thread as u64,
        });
    }
    Ok(Fetched {
        thread,
        sidx: d.u32()?,
        wrong_path: d.bool()?,
        seq: d.u64()?,
        mispredicted: d.bool()?,
        fetched_at: d.u64()?,
    })
}

pub(crate) fn encode_mismatch(m: &crate::fault::GoldenMismatch, e: &mut Enc) {
    let crate::fault::GoldenMismatch {
        thread,
        seq,
        pc,
        addr,
        expect_addr,
        value,
        expect_value,
        eliminated,
        cycle,
    } = m;
    e.usize(*thread);
    e.u64(*seq);
    e.u64(*pc);
    e.u64(*addr);
    e.u64(*expect_addr);
    e.u64(*value);
    e.u64(*expect_value);
    e.bool(*eliminated);
    e.u64(*cycle);
}

pub(crate) fn decode_mismatch(d: &mut Dec<'_>) -> Result<crate::fault::GoldenMismatch, CodecError> {
    Ok(crate::fault::GoldenMismatch {
        thread: d.usize()?,
        seq: d.u64()?,
        pc: d.u64()?,
        addr: d.u64()?,
        expect_addr: d.u64()?,
        value: d.u64()?,
        expect_value: d.u64()?,
        eliminated: d.bool()?,
        cycle: d.u64()?,
    })
}

fn encode_inst_class(c: InstClass, e: &mut Enc) {
    e.u8(match c {
        InstClass::Alu => 0,
        InstClass::Mul => 1,
        InstClass::Div => 2,
        InstClass::Load => 3,
        InstClass::Store => 4,
        InstClass::Branch => 5,
        InstClass::Move => 6,
        InstClass::Nop => 7,
    });
}

fn decode_inst_class(d: &mut Dec<'_>) -> Result<InstClass, CodecError> {
    let at = d.pos();
    let byte = d.u8()?;
    Ok(match byte {
        0 => InstClass::Alu,
        1 => InstClass::Mul,
        2 => InstClass::Div,
        3 => InstClass::Load,
        4 => InstClass::Store,
        5 => InstClass::Branch,
        6 => InstClass::Move,
        7 => InstClass::Nop,
        _ => return Err(CodecError::BadTag { at, byte }),
    })
}

fn encode_uop_state(s: UopState, e: &mut Enc) {
    e.u8(match s {
        UopState::Waiting => 0,
        UopState::Ready => 1,
        UopState::Issued => 2,
        UopState::Done => 3,
    });
}

fn decode_uop_state(d: &mut Dec<'_>) -> Result<UopState, CodecError> {
    let at = d.pos();
    let byte = d.u8()?;
    Ok(match byte {
        0 => UopState::Waiting,
        1 => UopState::Ready,
        2 => UopState::Issued,
        3 => UopState::Done,
        _ => return Err(CodecError::BadTag { at, byte }),
    })
}

fn decode_reg(d: &mut Dec<'_>) -> Result<ArchReg, CodecError> {
    let at = d.pos();
    let byte = d.u8()?;
    if usize::from(byte) >= ArchReg::NUM_APX {
        return Err(CodecError::BadTag { at, byte });
    }
    Ok(ArchReg::new(byte))
}

/// Encodes one window slot, exhaustively, in declaration order.
pub(crate) fn encode_uop(u: &Uop, e: &mut Enc) {
    let Uop {
        valid,
        state,
        wrong_path,
        is_load,
        is_store,
        is_branch,
        mispredicted,
        in_rs,
        addr_known,
        folded,
        eliminated,
        size,
        cls,
        dst,
        pending_deps,
        uid,
        seq,
        addr,
        result,
        rob_pos,
        complete_at,
        consumers,
        thread,
        sidx,
        pc,
        in_lb,
        in_sb,
        likely_stable,
        value_predicted,
        ideal_eliminated,
        mrn_forwarded,
        elar_resolved,
        no_data_fetch,
        xprf,
        vp_value,
        vp_history,
        mrn_value,
        rfp_ready_at,
        rfp_addr,
        stack_after,
    } = u;
    e.bool(*valid);
    encode_uop_state(*state, e);
    for b in [
        wrong_path,
        is_load,
        is_store,
        is_branch,
        mispredicted,
        in_rs,
        addr_known,
        folded,
        eliminated,
    ] {
        e.bool(*b);
    }
    e.u8(*size);
    encode_inst_class(*cls, e);
    e.opt(dst, |e, r| e.u8(r.index() as u8));
    e.u32(*pending_deps);
    for v in [uid, seq, addr, result, rob_pos, complete_at] {
        e.u64(*v);
    }
    e.seq_len(consumers.len());
    for &(tag, cuid) in consumers {
        e.usize(tag);
        e.u64(cuid);
    }
    e.usize(*thread);
    e.u32(*sidx);
    e.u64(*pc);
    for b in [
        in_lb,
        in_sb,
        likely_stable,
        value_predicted,
        ideal_eliminated,
        mrn_forwarded,
        elar_resolved,
        no_data_fetch,
    ] {
        e.bool(*b);
    }
    e.opt(xprf, |e, s| e.u8(s.0));
    e.u64(*vp_value);
    e.u64(*vp_history);
    e.u64(*mrn_value);
    e.opt(rfp_ready_at, |e, v| e.u64(*v));
    e.opt(rfp_addr, |e, v| e.u64(*v));
    encode_stack(stack_after, e);
}

/// Decodes one window slot written by [`encode_uop`]. `window_len` and
/// `nthreads` bound-check the slab/thread references a corrupt stream
/// could otherwise aim out of range.
pub(crate) fn decode_uop(
    window_len: usize,
    nthreads: usize,
    d: &mut Dec<'_>,
) -> Result<Uop, CodecError> {
    let mut u = Uop::empty();
    u.valid = d.bool()?;
    u.state = decode_uop_state(d)?;
    u.wrong_path = d.bool()?;
    u.is_load = d.bool()?;
    u.is_store = d.bool()?;
    u.is_branch = d.bool()?;
    u.mispredicted = d.bool()?;
    u.in_rs = d.bool()?;
    u.addr_known = d.bool()?;
    u.folded = d.bool()?;
    u.eliminated = d.bool()?;
    u.size = d.u8()?;
    u.cls = decode_inst_class(d)?;
    u.dst = d.opt(decode_reg)?;
    u.pending_deps = d.u32()?;
    u.uid = d.u64()?;
    u.seq = d.u64()?;
    u.addr = d.u64()?;
    u.result = d.u64()?;
    u.rob_pos = d.u64()?;
    u.complete_at = d.u64()?;
    let n = d.seq_len()?;
    u.consumers.reserve(n);
    for _ in 0..n {
        let at = d.pos();
        let tag: Tag = d.usize()?;
        if tag >= window_len {
            return Err(CodecError::BadLength {
                at,
                len: tag as u64,
            });
        }
        u.consumers.push((tag, d.u64()?));
    }
    let at = d.pos();
    u.thread = d.usize()?;
    if u.thread >= nthreads {
        return Err(CodecError::BadLength {
            at,
            len: u.thread as u64,
        });
    }
    u.sidx = d.u32()?;
    u.pc = d.u64()?;
    u.in_lb = d.bool()?;
    u.in_sb = d.bool()?;
    u.likely_stable = d.bool()?;
    u.value_predicted = d.bool()?;
    u.ideal_eliminated = d.bool()?;
    u.mrn_forwarded = d.bool()?;
    u.elar_resolved = d.bool()?;
    u.no_data_fetch = d.bool()?;
    u.xprf = d.opt(|d| d.u8().map(XprfSlot))?;
    u.vp_value = d.u64()?;
    u.vp_history = d.u64()?;
    u.mrn_value = d.u64()?;
    u.rfp_ready_at = d.opt(|d| d.u64())?;
    u.rfp_addr = d.opt(|d| d.u64())?;
    u.stack_after = decode_stack(d)?;
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::{CkptError, CKPT_FORMAT_VERSION};
    use crate::{Core, CoreConfig, SimScratch};
    use sim_workload::suite_subset;

    fn fnv_digest(bytes: &[u8]) -> u64 {
        let mut d = sim_mem::TraceDigest::new();
        d.update_bytes(bytes);
        d.update(bytes.len() as u64);
        d.finish()
    }

    /// A mid-run checkpoint restored into recycled scratch from a foreign
    /// run must continue bit-identically to the uninterrupted execution —
    /// same statistics (full struct equality), same per-thread retirement,
    /// same digest. Also locks re-encode stability: checkpointing the
    /// restored core immediately reproduces the original bytes.
    #[test]
    fn mid_run_checkpoint_restore_is_bit_exact() {
        let spec = &suite_subset(2)[0];
        let program = spec.build();
        let cfg = CoreConfig::golden_cove_like().with_constable();
        const TARGET: u64 = 30_000;
        let straight = Core::new(&program, cfg.clone()).run(TARGET);

        let mut core = Core::new(&program, cfg.clone());
        let mut slices = 0u32;
        while core.run_slice(TARGET, 4096) {
            slices += 1;
            if slices == 3 {
                let bytes = core.checkpoint();
                let donor = Core::new(&program, cfg.clone());
                core = Core::restore(vec![&program], cfg.clone(), donor.into_scratch(), &bytes)
                    .expect("restore of a fresh checkpoint");
                assert_eq!(
                    bytes,
                    core.checkpoint(),
                    "restore → checkpoint must be byte-stable"
                );
            }
        }
        assert!(slices >= 3, "run too short to checkpoint mid-flight");
        let resumed = core.seal_result();
        assert_eq!(straight.stats, resumed.stats);
        assert_eq!(straight.retired_per_thread, resumed.retired_per_thread);
        assert_eq!(straight.stats_digest(), resumed.stats_digest());
    }

    /// Same bit-exactness under SMT2 (shared structures, per-thread machines)
    /// and with the EVES value predictor in play.
    #[test]
    fn smt2_checkpoint_restore_is_bit_exact() {
        let specs = suite_subset(2);
        let p0 = specs[0].build();
        let p1 = specs[1].build();
        let cfg = CoreConfig::golden_cove_like().with_constable().with_eves();
        const TARGET: u64 = 10_000;
        let straight = Core::new_multi(vec![&p0, &p1], cfg.clone()).run(TARGET);

        let mut core = Core::new_multi(vec![&p0, &p1], cfg.clone());
        let mut slices = 0u32;
        while core.run_slice(TARGET, 4096) {
            slices += 1;
            if slices % 2 == 1 {
                // Checkpoint at every other boundary: repeated round-trips
                // must not drift.
                let bytes = core.checkpoint();
                core = Core::restore(vec![&p0, &p1], cfg.clone(), SimScratch::new(), &bytes)
                    .expect("restore");
            }
        }
        assert!(slices >= 2, "run too short to checkpoint mid-flight");
        let resumed = core.seal_result();
        assert_eq!(straight.stats, resumed.stats);
        assert_eq!(straight.retired_per_thread, resumed.retired_per_thread);
    }

    /// Header validation: a checkpoint never restores under the wrong
    /// version, config, thread count, or program; a truncated stream is a
    /// codec error, not a panic.
    #[test]
    fn restore_rejects_mismatched_header() {
        let spec = &suite_subset(2)[0];
        let program = spec.build();
        let cfg = CoreConfig::golden_cove_like().with_constable();
        let mut core = Core::new(&program, cfg.clone());
        assert!(core.run_slice(1_000_000, 4096), "still mid-run");
        let bytes = core.checkpoint();

        let mut wrong_version = bytes.clone();
        wrong_version[0] ^= 0xff;
        assert!(matches!(
            Core::restore(
                vec![&program],
                cfg.clone(),
                SimScratch::new(),
                &wrong_version
            ),
            Err(CkptError::Version {
                expected: CKPT_FORMAT_VERSION,
                ..
            })
        ));

        assert!(matches!(
            Core::restore(
                vec![&program],
                cfg.clone(),
                SimScratch::new(),
                &bytes[..bytes.len() - 1]
            ),
            Err(CkptError::Codec(_))
        ));

        let other_cfg = CoreConfig::golden_cove_like();
        assert!(matches!(
            Core::restore(vec![&program], other_cfg, SimScratch::new(), &bytes),
            Err(CkptError::ConfigMismatch { .. })
        ));

        let other_program = suite_subset(2)[1].build();
        assert!(matches!(
            Core::restore(vec![&other_program], cfg.clone(), SimScratch::new(), &bytes),
            Err(CkptError::ProgramMismatch { thread: 0, .. })
        ));

        assert!(matches!(
            Core::restore(
                vec![&program, &other_program],
                cfg.clone(),
                SimScratch::new(),
                &bytes
            ),
            Err(CkptError::ThreadCount {
                found: 1,
                expected: 2
            })
        ));
    }

    /// The tape section's replay-record count is always written as 0 (a
    /// restored thread owns its machine at the pull point). A checkpoint
    /// patched to claim replay records must restore to a typed error,
    /// never a panic — whether the claimed records fit in the stream or
    /// overrun it.
    #[test]
    fn restore_rejects_nonzero_replay_record_count() {
        let spec = &suite_subset(2)[0];
        let program = spec.build();
        let cfg = CoreConfig::golden_cove_like().with_constable();
        let mut core = Core::new(&program, cfg.clone());
        assert!(core.run_slice(1_000_000, 4096), "still mid-run");
        let bytes = core.checkpoint();
        // Header: u32 version, u64 config fingerprint, u8 thread count,
        // u64 program fingerprint; then thread 0's u64 pull point and the
        // u64 replay-record count.
        let count_at = 4 + 8 + 1 + 8 + 8;
        assert_eq!(
            bytes[count_at..count_at + 8],
            0u64.to_le_bytes(),
            "writers always emit a zero replay-record count"
        );
        for count in [1u64, 3, u64::MAX] {
            let mut patched = bytes.clone();
            patched[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
            assert!(
                matches!(
                    Core::restore(vec![&program], cfg.clone(), SimScratch::new(), &patched),
                    Err(CkptError::Codec(_))
                ),
                "replay-record count {count} must be refused"
            );
        }
        assert!(Core::restore(vec![&program], cfg, SimScratch::new(), &bytes).is_ok());
    }

    /// Key-format drift guard, in the spirit of the result-store's
    /// `key_format_drift_pinned`: the checkpoint bytes of a fixed mid-run
    /// state are pinned by digest. If this fails you changed the
    /// checkpoint byte format — that is only OK as a *conscious* format
    /// revision: bump [`CKPT_FORMAT_VERSION`] (so stale checkpoints are
    /// refused instead of misparsed) and re-bless the digest below.
    #[test]
    fn checkpoint_format_drift_pinned() {
        let spec = &suite_subset(2)[0];
        let program = spec.build();
        let cfg = CoreConfig::golden_cove_like().with_constable();
        let mut core = Core::new(&program, cfg);
        for _ in 0..4 {
            assert!(core.run_slice(200_000, 4096), "pinned state is mid-run");
        }
        let bytes = core.checkpoint();
        const PINNED: u64 = 0x3da9_1cec_bff4_fe52;
        assert_eq!(
            fnv_digest(&bytes),
            PINNED,
            "checkpoint byte format drifted: bump CKPT_FORMAT_VERSION and re-bless \
             (got {:#018x}, {} bytes)",
            fnv_digest(&bytes),
            bytes.len()
        );
    }
}
