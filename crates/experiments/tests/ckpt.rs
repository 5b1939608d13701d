//! Crash-safe mid-run checkpointing, end to end: interval snapshots during
//! a sweep and chaos kills at checkpoint boundaries with bit-exact resume.
//! The invariant throughout: a run assembled from checkpoint + restore
//! produces exactly the digest a straight run produces — checkpoints buy
//! wall-clock, never drift.

use constable::IdealOracle;
use experiments::{ChaosPlan, MachineKind, RunLength, SweepSession};
use result_store::ResultStore;
use std::fs;
use std::path::{Path, PathBuf};

const N: RunLength = RunLength(4_000);
/// Small enough that every quick cell crosses several checkpoint
/// boundaries (a 4k-instruction run exceeds 8k core loop iterations).
const INTERVAL: u64 = 1_024;

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("constable-ckpt-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> ResultStore {
    ResultStore::open(dir, None).expect("store opens")
}

fn ckpt_files(dir: &Path) -> Vec<PathBuf> {
    match fs::read_dir(dir.join("checkpoints")) {
        Ok(rd) => rd.map(|e| e.unwrap().path()).collect(),
        Err(_) => Vec::new(),
    }
}

/// Reference digests: the suite without any store or checkpointing.
fn straight_digests(specs: &[sim_workload::WorkloadSpec]) -> Vec<(String, u64)> {
    SweepSession::new(specs, N)
        .suite(MachineKind::Baseline)
        .expect("clean reference suite")
        .into_iter()
        .map(|o| (o.workload.clone(), o.result.stats_digest()))
        .collect()
}

#[test]
fn checkpointed_sweep_is_bit_identical_and_gcs_its_snapshots() {
    let specs = sim_workload::suite_subset(2);
    let reference = straight_digests(&specs);

    let dir = tmp_store("clean");
    let session = SweepSession::new(&specs, N)
        .with_store(open(&dir))
        .with_checkpoint_interval(INTERVAL);
    let runs = session
        .suite(MachineKind::Baseline)
        .expect("clean checkpointed suite");
    let got: Vec<(String, u64)> = runs
        .iter()
        .map(|o| (o.workload.clone(), o.result.stats_digest()))
        .collect();
    assert_eq!(
        got, reference,
        "interval checkpointing must not change a single bit of any run"
    );
    let stats = session.store_stats().expect("store attached");
    assert!(
        stats.ckpt_writes > 0,
        "every quick cell must cross at least one checkpoint boundary"
    );
    drop(session);
    assert_eq!(
        ckpt_files(&dir),
        Vec::<PathBuf>::new(),
        "a finished result supersedes (GCs) its mid-run checkpoint"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chaos_kill_at_a_checkpoint_boundary_resumes_bit_exactly() {
    let specs = sim_workload::suite_subset(2);
    let reference = straight_digests(&specs);
    let victim = specs[0].name.clone();
    let fp = MachineKind::Baseline
        .config(IdealOracle::default())
        .fingerprint();
    // The kill stream is pure, so the test can pick its scenario: a seed
    // that kills the victim cell right after its first checkpoint lands.
    let seed = (0..10_000u64)
        .find(|&s| ChaosPlan::new(s).ckpt_kill_for(&victim, fp) == Some(0))
        .expect("a kill-at-boundary-0 seed exists in the first 10k");

    let dir = tmp_store("kill");
    let session = SweepSession::new(&specs, N)
        .with_store(open(&dir))
        .with_checkpoint_interval(INTERVAL)
        .with_chaos(ChaosPlan::new(seed));
    let cells = session.suite_cells(MachineKind::Baseline);
    let killed = cells
        .iter()
        .find_map(|c| c.as_ref().err().filter(|f| f.workload == victim))
        .expect("the victim cell must die at its checkpoint boundary");
    assert_eq!(killed.kind, "panic");
    assert!(
        killed.injected,
        "a checkpoint-boundary kill must classify as chaos-injected"
    );
    assert!(
        killed.detail.contains("checkpoint boundary"),
        "{}",
        killed.detail
    );
    drop(session);
    assert!(
        !ckpt_files(&dir).is_empty(),
        "the killed cell must leave its snapshot behind to resume from"
    );

    // A fresh process (modeled as a fresh session off the same store, no
    // chaos) must *resume* the victim — not recompute it — and land on
    // exactly the straight run's digest.
    let session = SweepSession::new(&specs, N)
        .with_store(open(&dir))
        .with_checkpoint_interval(INTERVAL);
    let runs = session
        .suite(MachineKind::Baseline)
        .expect("rerun completes every cell");
    let got: Vec<(String, u64)> = runs
        .iter()
        .map(|o| (o.workload.clone(), o.result.stats_digest()))
        .collect();
    assert_eq!(
        got, reference,
        "a resumed run must be byte-identical to a straight run"
    );
    let stats = session.store_stats().expect("store attached");
    assert!(
        stats.ckpt_hits >= 1,
        "the rerun must resume from the kill's snapshot (ckpt_hits {})",
        stats.ckpt_hits
    );
    drop(session);
    assert_eq!(
        ckpt_files(&dir),
        Vec::<PathBuf>::new(),
        "completing the resumed cell GCs its snapshot"
    );
    let _ = fs::remove_dir_all(&dir);
}
