//! Store keys and the result payload codec.
//!
//! This module is the bridge between the sweep engine and the
//! [`result_store`] crate: it assembles the **stable store key** of a
//! sweep cell — the one identity a cell has, in the sweep's in-process
//! memo as on disk — and (de)serialises a completed [`RunOutcome`] into
//! the store's payload bytes.
//!
//! ## Key format (`result_store::KEY_FORMAT_VERSION`)
//!
//! ```text
//! [key-format version u8]
//! [thread count u8]
//! per thread: WorkloadSpec::stable_key_encode   (generation parameters)
//! CoreConfig::stable_encode                     (every machine field)
//! [run length u64 LE]                           (total retired target)
//! ```
//!
//! Every component is an *explicit* little-endian field encoding with an
//! exhaustive struct destructure behind it — adding a field to any struct
//! on the key path breaks the build until the encoder (and, per the guard
//! test in `result-store/tests/key_guard.rs`, the key-format version) is
//! updated.
//!
//! ## Payload format (`PAYLOAD_VERSION`)
//!
//! A flat LE encoding of the verified-clean [`RunOutcome`]: workload name,
//! category, per-thread retirement, and every `CoreStats` field: the
//! scalar counters in declaration order, then the 13 Constable engine
//! counters (`CoreStats::constable`, since version 2), the histogram as
//! bounds/counts/raw sum, and the per-PC maps sorted by PC so encoding is
//! deterministic. Only outcomes whose
//! `SimResult::verify()` returned `Ok` are persisted, so the failure
//! fields (`hit_cycle_guard`, `first_mismatch`, `watchdog`) are known
//! clean and not serialised.

use crate::runner::{RunLength, RunOutcome};
use constable::ConstableStats;
use result_store::StoreKey;
use sim_core::{CoreConfig, CoreStats, SimResult};
use sim_stats::Histogram;
use sim_workload::{Category, WorkloadSpec};

/// Version of the payload byte layout. Bump on any codec change; old
/// payloads then decode to [`PayloadError::Version`] and the cell
/// recomputes as a miss.
pub const PAYLOAD_VERSION: u8 = 2;

/// Assembles the stable store key of one sweep cell: the specs of every
/// hardware thread (one for single-thread cells, two for an SMT2 pairing),
/// the *logical* machine config (before the harness layers its watchdog
/// budget on top), and the total run length. The sweep engine files each
/// cell under this key in its run memo, its store and its failure
/// registry.
pub fn store_key(specs: &[&WorkloadSpec], cfg: &CoreConfig, n: RunLength) -> StoreKey {
    // One buffer and one copy: the sweep builds a key for every cell it
    // is asked for, memo hits included.
    let mut buf = Vec::with_capacity(1024);
    buf.push(specs.len() as u8);
    for spec in specs {
        spec.stable_key_encode(&mut buf);
    }
    cfg.stable_encode(&mut buf);
    buf.extend_from_slice(&n.0.to_le_bytes());
    let mut key = StoreKey::new();
    key.extend(&buf);
    key
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// Payload-format version skew (records written by an older codec).
    Version { found: u8 },
    /// Structurally malformed payload (should be unreachable behind the
    /// store's checksums; handled anyway — the store trusts nothing).
    Malformed(&'static str),
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::Version { found } => {
                write!(f, "payload version {found} (expected {PAYLOAD_VERSION})")
            }
            PayloadError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Serialises a verified-clean outcome into store payload bytes.
///
/// # Panics
/// Panics if the outcome carries any failure state — callers persist only
/// cells whose `verify()` returned `Ok`.
pub fn encode_outcome(outcome: &RunOutcome) -> Vec<u8> {
    let RunOutcome {
        workload,
        category,
        result,
    } = outcome;
    let SimResult {
        stats,
        retired_per_thread,
        hit_cycle_guard,
        first_mismatch,
        watchdog,
    } = result;
    assert!(
        !hit_cycle_guard && first_mismatch.is_none() && watchdog.is_none(),
        "only verified-clean outcomes are persisted"
    );

    let mut out = Vec::with_capacity(512);
    out.push(PAYLOAD_VERSION);
    put_str(&mut out, workload);
    let cat = Category::ALL
        .iter()
        .position(|c| c == category)
        .expect("category is in ALL") as u8;
    out.push(cat);
    put_u64(&mut out, retired_per_thread.len() as u64);
    for &r in retired_per_thread {
        put_u64(&mut out, r);
    }

    // Exhaustive destructure: adding a CoreStats field breaks this build
    // until the codec (and PAYLOAD_VERSION) is updated.
    let CoreStats {
        cycles,
        retired,
        retired_loads,
        retired_stores,
        retired_branches,
        fetched,
        fetched_wrong_path,
        branch_mispredicts,
        rob_allocs,
        rs_allocs,
        lb_allocs,
        sb_allocs,
        load_utilized_cycles,
        load_cycles_stable_blocking,
        load_cycles_stable_free,
        loads_issued,
        agu_uses,
        vp_used,
        vp_wrong,
        mrn_forwarded,
        mrn_wrong,
        loads_eliminated,
        elim_violations,
        rename_stalls_sld_read,
        rename_stalls_sld_write,
        sld_updates_per_cycle,
        cv_pins,
        arm_guard_blocked,
        constable,
        elar_resolved,
        rfp_address_hits,
        ordering_violations,
        golden_mismatches,
        per_pc_loads,
        vp_wrong_pcs,
        l1d_accesses,
        l2_accesses,
        dram_accesses,
        snoops_delivered,
        decoded,
        renamed,
        alu_execs,
        dtlb_accesses,
        sld_reads,
        sld_writes,
        amt_probes,
        eves_lookups,
    } = stats;

    for &v in [
        cycles,
        retired,
        retired_loads,
        retired_stores,
        retired_branches,
        fetched,
        fetched_wrong_path,
        branch_mispredicts,
        rob_allocs,
        rs_allocs,
        lb_allocs,
        sb_allocs,
        load_utilized_cycles,
        load_cycles_stable_blocking,
        load_cycles_stable_free,
        loads_issued,
        agu_uses,
        vp_used,
        vp_wrong,
        mrn_forwarded,
        mrn_wrong,
        loads_eliminated,
        elim_violations,
        rename_stalls_sld_read,
        rename_stalls_sld_write,
        cv_pins,
        arm_guard_blocked,
        elar_resolved,
        rfp_address_hits,
        ordering_violations,
        golden_mismatches,
        l1d_accesses,
        l2_accesses,
        dram_accesses,
        snoops_delivered,
        decoded,
        renamed,
        alu_execs,
        dtlb_accesses,
        sld_reads,
        sld_writes,
        amt_probes,
        eves_lookups,
    ] {
        put_u64(&mut out, v);
    }

    // The engine's counters, behind their own exhaustive destructure.
    let ConstableStats {
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
    } = constable;
    for &v in [
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
    ] {
        put_u64(&mut out, v);
    }

    // Histogram: bounds, counts, raw sum — enough for a bit-exact rebuild
    // (stats_digest folds mean().to_bits(), which from_parts reproduces).
    put_u64(&mut out, sld_updates_per_cycle.bounds().len() as u64);
    for &b in sld_updates_per_cycle.bounds() {
        put_u64(&mut out, b);
    }
    for &c in sld_updates_per_cycle.bucket_counts() {
        put_u64(&mut out, c);
    }
    let sum = sld_updates_per_cycle.sum_raw();
    put_u64(&mut out, sum as u64);
    put_u64(&mut out, (sum >> 64) as u64);

    // Per-PC maps, sorted by PC for a deterministic encoding.
    let mut pcs: Vec<(u64, (u64, u64))> = per_pc_loads.iter().map(|(&k, &v)| (k, v)).collect();
    pcs.sort_unstable_by_key(|&(pc, _)| pc);
    put_u64(&mut out, pcs.len() as u64);
    for (pc, (elim, total)) in pcs {
        put_u64(&mut out, pc);
        put_u64(&mut out, elim);
        put_u64(&mut out, total);
    }
    let mut wrong: Vec<(u64, u64)> = vp_wrong_pcs.iter().map(|(&k, &v)| (k, v)).collect();
    wrong.sort_unstable_by_key(|&(pc, _)| pc);
    put_u64(&mut out, wrong.len() as u64);
    for (pc, count) in wrong {
        put_u64(&mut out, pc);
        put_u64(&mut out, count);
    }
    out
}

/// Bounds-checked little-endian reader over the payload bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, PayloadError> {
        let b = *self
            .bytes
            .get(self.at)
            .ok_or(PayloadError::Malformed("truncated at u8"))?;
        self.at += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, PayloadError> {
        let end = self.at + 8;
        let s = self
            .bytes
            .get(self.at..end)
            .ok_or(PayloadError::Malformed("truncated at u64"))?;
        self.at = end;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    fn count(&mut self, max: u64) -> Result<usize, PayloadError> {
        let n = self.u64()?;
        if n > max {
            return Err(PayloadError::Malformed("implausible element count"));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<String, PayloadError> {
        let len = self.count(1 << 16)?;
        let end = self.at + len;
        let s = self
            .bytes
            .get(self.at..end)
            .ok_or(PayloadError::Malformed("truncated at string"))?;
        self.at = end;
        String::from_utf8(s.to_vec()).map_err(|_| PayloadError::Malformed("non-UTF-8 string"))
    }
}

/// Decodes store payload bytes back into a [`RunOutcome`]. The failure
/// fields come back clean by construction (only verified-clean outcomes
/// are ever encoded).
pub fn decode_outcome(payload: &[u8]) -> Result<RunOutcome, PayloadError> {
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let version = cur.u8()?;
    if version != PAYLOAD_VERSION {
        return Err(PayloadError::Version { found: version });
    }
    let workload = cur.str()?;
    let cat = cur.u8()? as usize;
    let category = *Category::ALL
        .get(cat)
        .ok_or(PayloadError::Malformed("category out of range"))?;
    let nthreads = cur.count(64)?;
    let mut retired_per_thread = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        retired_per_thread.push(cur.u64()?);
    }

    let mut stats = CoreStats::default();
    {
        let slots: [&mut u64; 43] = [
            &mut stats.cycles,
            &mut stats.retired,
            &mut stats.retired_loads,
            &mut stats.retired_stores,
            &mut stats.retired_branches,
            &mut stats.fetched,
            &mut stats.fetched_wrong_path,
            &mut stats.branch_mispredicts,
            &mut stats.rob_allocs,
            &mut stats.rs_allocs,
            &mut stats.lb_allocs,
            &mut stats.sb_allocs,
            &mut stats.load_utilized_cycles,
            &mut stats.load_cycles_stable_blocking,
            &mut stats.load_cycles_stable_free,
            &mut stats.loads_issued,
            &mut stats.agu_uses,
            &mut stats.vp_used,
            &mut stats.vp_wrong,
            &mut stats.mrn_forwarded,
            &mut stats.mrn_wrong,
            &mut stats.loads_eliminated,
            &mut stats.elim_violations,
            &mut stats.rename_stalls_sld_read,
            &mut stats.rename_stalls_sld_write,
            &mut stats.cv_pins,
            &mut stats.arm_guard_blocked,
            &mut stats.elar_resolved,
            &mut stats.rfp_address_hits,
            &mut stats.ordering_violations,
            &mut stats.golden_mismatches,
            &mut stats.l1d_accesses,
            &mut stats.l2_accesses,
            &mut stats.dram_accesses,
            &mut stats.snoops_delivered,
            &mut stats.decoded,
            &mut stats.renamed,
            &mut stats.alu_execs,
            &mut stats.dtlb_accesses,
            &mut stats.sld_reads,
            &mut stats.sld_writes,
            &mut stats.amt_probes,
            &mut stats.eves_lookups,
        ];
        for slot in slots {
            *slot = cur.u64()?;
        }
        let c = &mut stats.constable;
        let slots: [&mut u64; 13] = [
            &mut c.loads_renamed,
            &mut c.eliminated,
            &mut c.marked_likely_stable,
            &mut c.armed,
            &mut c.xprf_full_forgone,
            &mut c.resets_reg_write,
            &mut c.resets_store,
            &mut c.resets_snoop,
            &mut c.resets_amt_conflict,
            &mut c.resets_rmt_conflict,
            &mut c.resets_l1_evict,
            &mut c.resets_violation,
            &mut c.cv_pins_requested,
        ];
        for slot in slots {
            *slot = cur.u64()?;
        }
    }

    let nbounds = cur.count(1 << 12)?;
    let mut bounds = Vec::with_capacity(nbounds);
    for _ in 0..nbounds {
        bounds.push(cur.u64()?);
    }
    let mut counts = Vec::with_capacity(nbounds + 1);
    for _ in 0..nbounds + 1 {
        counts.push(cur.u64()?);
    }
    let (lo, hi) = (cur.u64()?, cur.u64()?);
    let sum = u128::from(lo) | (u128::from(hi) << 64);
    if bounds.windows(2).any(|w| w[0] >= w[1]) || bounds.is_empty() {
        return Err(PayloadError::Malformed("histogram bounds not increasing"));
    }
    stats.sld_updates_per_cycle = Histogram::from_parts(bounds, counts, sum);

    let npcs = cur.count(1 << 24)?;
    for _ in 0..npcs {
        let (pc, elim, total) = (cur.u64()?, cur.u64()?, cur.u64()?);
        stats.per_pc_loads.insert(pc, (elim, total));
    }
    let nwrong = cur.count(1 << 24)?;
    for _ in 0..nwrong {
        let (pc, count) = (cur.u64()?, cur.u64()?);
        stats.vp_wrong_pcs.insert(pc, count);
    }
    if cur.at != payload.len() {
        return Err(PayloadError::Malformed("trailing bytes"));
    }

    Ok(RunOutcome {
        workload,
        category,
        result: SimResult {
            stats,
            retired_per_thread,
            hit_cycle_guard: false,
            first_mismatch: None,
            watchdog: None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::MachineKind;
    use crate::sweep::run_cell;
    use constable::IdealOracle;
    use sim_core::SimScratch;
    use sim_mem::splitmix64;
    use sim_workload::Program;

    const N: RunLength = RunLength(4_000);

    /// Runs one cell (a workload, or an SMT2 pair) through the sweep's
    /// cell runner, which verifies it.
    fn verified_cell(specs: &[&WorkloadSpec], cfg: CoreConfig) -> RunOutcome {
        let programs: Vec<Program> = specs.iter().map(|s| s.build()).collect();
        let programs: Vec<&Program> = programs.iter().collect();
        let name: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        let key = store_key(specs, &cfg, N);
        run_cell(
            &programs,
            &name.join("+"),
            specs[0].category,
            &cfg,
            N,
            &key,
            &mut SimScratch::new(),
        )
        .expect("clean run")
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let specs = sim_workload::suite_subset(2);
        let single: &[&WorkloadSpec] = &[&specs[0]];
        let smt2: &[&WorkloadSpec] = &[&specs[0], &specs[1]];
        for (kind, cell) in [
            (MachineKind::Baseline, single),
            (MachineKind::Constable, single),
            (MachineKind::Constable, smt2),
        ] {
            let mut cfg = kind.config(IdealOracle::default());
            cfg.track_per_pc = true; // exercise the per-PC map codec
            let outcome = verified_cell(cell, cfg);
            let bytes = encode_outcome(&outcome);
            let back = decode_outcome(&bytes).expect("decodes");
            assert_eq!(back.workload, outcome.workload);
            assert_eq!(back.category, outcome.category);
            assert_eq!(
                back.result.retired_per_thread,
                outcome.result.retired_per_thread
            );
            assert_eq!(back.result.stats, outcome.result.stats);
            if kind == MachineKind::Constable {
                let cs = &outcome.result.stats.constable;
                assert!(
                    cs.eliminated > 0 && cs.resets_reg_write > 0,
                    "engine counters must be live for the round trip to mean anything: {cs:?}"
                );
            }
            assert_eq!(
                back.result.stats_digest(),
                outcome.result.stats_digest(),
                "decoded stats digest must be bit-identical"
            );
        }
    }

    #[test]
    fn version_skew_and_damage_are_reported_not_panicked() {
        let specs = sim_workload::suite_subset(2);
        let outcome = verified_cell(
            &[&specs[0]],
            MachineKind::Baseline.config(IdealOracle::default()),
        );
        let mut bytes = encode_outcome(&outcome);
        bytes[0] = PAYLOAD_VERSION + 1;
        assert!(matches!(
            decode_outcome(&bytes),
            Err(PayloadError::Version {
                found
            }) if found == PAYLOAD_VERSION + 1
        ));
        bytes[0] = PAYLOAD_VERSION;
        assert!(decode_outcome(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode_outcome(&[]).is_err());

        // Every-prefix truncation and seeded single-byte flips over a
        // single-thread and an SMT2 outcome (per-PC maps on, so the map
        // counts are exposed too): a strict prefix is always an error, and
        // a flipped payload decodes to an error or an outcome, never a
        // panic.
        let mut cfg = MachineKind::Constable.config(IdealOracle::default());
        cfg.track_per_pc = true;
        let smt2 = verified_cell(&[&specs[0], &specs[1]], cfg);
        let mut rng = 0x5eed_0001_u64;
        for outcome in [&outcome, &smt2] {
            let bytes = encode_outcome(outcome);
            for len in 0..bytes.len() {
                assert!(
                    decode_outcome(&bytes[..len]).is_err(),
                    "{}: a {len}-byte prefix of {} decoded",
                    outcome.workload,
                    bytes.len()
                );
            }
            for _ in 0..2_000 {
                rng = splitmix64(rng);
                let at = (rng % bytes.len() as u64) as usize;
                rng = splitmix64(rng);
                let mask = (rng % 255 + 1) as u8;
                let mut damaged = bytes.clone();
                damaged[at] ^= mask;
                let decoded = std::panic::catch_unwind(|| decode_outcome(&damaged).is_ok());
                assert!(
                    decoded.is_ok(),
                    "{}: flipping byte {at} with {mask:#04x} panicked the decoder",
                    outcome.workload
                );
            }
        }
    }

    #[test]
    fn store_keys_are_stable_and_separate_every_component() {
        let specs = sim_workload::suite_subset(2);
        let cfg = MachineKind::Constable.config(IdealOracle::default());
        let n = RunLength(4_000);
        let a = store_key(&[&specs[0]], &cfg, n);
        let b = store_key(&[&specs[0]], &cfg, n);
        assert_eq!(a, b, "key assembly must be deterministic");
        assert_eq!(a.bytes()[0], result_store::KEY_FORMAT_VERSION);

        // Different workload, config, run length, thread count: all distinct.
        let other_spec = store_key(&[&specs[1]], &cfg, n);
        let other_cfg = store_key(
            &[&specs[0]],
            &MachineKind::Baseline.config(IdealOracle::default()),
            n,
        );
        let other_n = store_key(&[&specs[0]], &cfg, RunLength(8_000));
        let pair = store_key(&[&specs[0], &specs[1]], &cfg, n);
        let hashes = [
            a.hash(),
            other_spec.hash(),
            other_cfg.hash(),
            other_n.hash(),
            pair.hash(),
        ];
        for (i, x) in hashes.iter().enumerate() {
            for (j, y) in hashes.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y, "key components {i} and {j} collide");
                }
            }
        }
    }
}
