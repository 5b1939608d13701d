//! Payload-format drift guard.
//!
//! A stored cell's payload is `experiments::encode_outcome` of its verified
//! outcome, read back under [`experiments::PAYLOAD_VERSION`]. Old payloads
//! are only safe across a codec change if that version is bumped: then
//! they decode to a version error and recompute, instead of being misread.
//!
//! This test pins, per payload version, the encoded length and the FNV
//! digest of the payload bytes of two fixed quick cells: one single-thread
//! cell and one SMT2 pair. A layout change without a version bump trips
//! it. The digest also covers the simulated statistics, so a deliberate
//! model change (one that re-blesses the trace-oracle goldens) moves it
//! too; re-pin it in that same change.

use constable::IdealOracle;
use experiments::{encode_outcome, MachineKind, RunLength, RunOutcome, PAYLOAD_VERSION};
use sim_core::Core;
use sim_mem::TraceDigest;

/// One pin row per payload version: (version, single-thread length,
/// single-thread digest, SMT2 length, SMT2 digest).
/// NEVER edit an existing row for a layout change — bump the version and
/// add a new row.
const PINS: &[(u8, usize, u64, usize, u64)] = &[
    (1, 499, 0xbb04_7718_7f23_a5e7, 520, 0x6f07_a29e_0bf3_3a46),
    // v2: the 13 Constable engine counters (`CoreStats::constable`).
    (2, 603, 0x1646_6d82_792e_44b9, 624, 0x758c_8771_30ae_7c19),
];

/// Runs one quick cell of `names` (one workload, or an SMT2 pair) on the
/// Constable machine, exactly as the sweep would store it.
fn outcome(names: &[&str]) -> RunOutcome {
    let specs = sim_workload::suite();
    let programs: Vec<_> = names
        .iter()
        .map(|n| {
            specs
                .iter()
                .find(|s| s.name == *n)
                .unwrap_or_else(|| panic!("{n} is a suite workload"))
                .build()
        })
        .collect();
    let cfg = MachineKind::Constable.config(IdealOracle::default());
    let per_thread = RunLength::quick().0 / names.len() as u64;
    let mut core = Core::new_multi(programs.iter().collect(), cfg);
    let result = core.run(per_thread);
    result.verify().expect("clean run");
    let first = specs.iter().find(|s| s.name == names[0]).expect("spec");
    RunOutcome {
        workload: names.join("+"),
        category: first.category,
        result,
    }
}

fn pin_of(names: &[&str]) -> (usize, u64) {
    let bytes = encode_outcome(&outcome(names));
    (bytes.len(), TraceDigest::of_bytes(&bytes))
}

#[test]
fn payload_layout_is_pinned_to_the_format_version() {
    let &(_, st_len, st_digest, smt_len, smt_digest) = PINS
        .iter()
        .find(|(v, ..)| *v == PAYLOAD_VERSION)
        .expect("PAYLOAD_VERSION has no pin row: add one to PINS in payload_guard.rs");
    let single = pin_of(&["sysmark-chrome.t1"]);
    let smt2 = pin_of(&["sysmark-chrome.t1", "505.mcf_r.t1"]);
    let bump = "the stored payload bytes changed — if the codec changed, bump \
                experiments::PAYLOAD_VERSION and add a new pin row (old records \
                must recompute, not be misread); if a re-blessed model change \
                moved the statistics, re-pin in that change";
    assert_eq!(
        (single, smt2),
        ((st_len, st_digest), (smt_len, smt_digest)),
        "{bump}"
    );
}
