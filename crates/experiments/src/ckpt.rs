//! Mid-run checkpointing for sweep cells.
//!
//! A [`Checkpointer`] ties one cell's stable store key to the shared
//! [`ResultStore`] handle and drives the cell in bounded
//! [`sim_core::Core::run_slice`] slices, persisting a full
//! [`sim_core::Core::checkpoint`] at every slice boundary. Because a slice
//! boundary is a coherent point of the model, a run assembled from
//! checkpoint + resume is **bit-identical** to a monolithic one — the
//! trace-oracle goldens re-derived through mid-run restore lock this.
//!
//! Recovery semantics:
//! * A verified checkpoint hit resumes the cell where it left off; the
//!   remaining slices recompute only the tail.
//! * A damaged or version-skewed checkpoint is discarded (the store
//!   quarantines damage; config/program skew is dropped here) and the cell
//!   recomputes from the start — a checkpoint can only ever save work,
//!   never corrupt a result.
//! * A cell that finishes cleanly is persisted as a result, which
//!   garbage-collects its checkpoint ([`ResultStore::put`]). A cell that
//!   fails verification drops its checkpoint too — resuming into a failing
//!   lineage would only reproduce the failure.
//! * Chaos mode ([`crate::ChaosPlan::ckpt_kill_for`]) kills selected cells
//!   right after a checkpoint boundary lands on disk; the rerun must
//!   resume and reproduce the straight run's digest byte-for-byte.

use result_store::{GetOutcome, ResultStore, StoreKey};
use sim_core::{Core, CoreConfig, SimResult, SimScratch};
use sim_workload::Program;
use std::sync::{Arc, Mutex};

/// Shared handle to the session's store slot: the sweep engine keeps the
/// store behind `Arc<Mutex<Option<_>>>` so every pool worker can reach it.
pub type SharedStore = Arc<Mutex<Option<ResultStore>>>;

/// Default checkpoint interval: core loop iterations per slice. Coarse
/// enough that the encode + fsync is noise against a full-length cell,
/// fine enough that a killed full-length run loses at most a few hundred
/// milliseconds of simulation.
pub const CKPT_INTERVAL_DEFAULT: u64 = 1 << 20;

/// Reads `SIM_CKPT_INTERVAL=<loop iterations>` from the environment.
/// `0` disables checkpointing (same as unset).
pub fn interval_from_env() -> Option<u64> {
    let v = std::env::var("SIM_CKPT_INTERVAL").ok()?;
    let n: u64 = v.trim().parse().ok()?;
    (n > 0).then_some(n)
}

/// One cell's checkpoint channel: key, store handle, slice interval, and
/// the optional chaos kill boundary.
pub struct Checkpointer {
    store: SharedStore,
    key: StoreKey,
    interval: u64,
    kill_at: Option<u64>,
}

impl Checkpointer {
    pub fn new(store: SharedStore, key: StoreKey, interval: u64) -> Self {
        Checkpointer {
            store,
            key,
            interval: interval.max(1),
            kill_at: None,
        }
    }

    /// Schedules a chaos kill right after checkpoint boundary `at` is
    /// durably written (fresh runs only — a resumed run completes, or the
    /// cell could never converge).
    pub fn with_kill_at(mut self, at: Option<u64>) -> Self {
        self.kill_at = at;
        self
    }

    /// The verified checkpoint bytes for this cell, if any. The store
    /// already checksum-verifies the record; the header digest slot is
    /// cross-checked against the payload here as well, so a stale or
    /// mislabeled checkpoint can never reach [`Core::restore`] silently.
    fn load(&self) -> Option<Vec<u8>> {
        let mut guard = self.store.lock().expect("store lock");
        let store = guard.as_mut()?;
        match store.get_checkpoint(&self.key) {
            GetOutcome::Hit {
                payload,
                stats_digest,
            } => {
                if sim_mem::TraceDigest::of_bytes(&payload) == stats_digest {
                    Some(payload)
                } else {
                    store.remove_checkpoint(&self.key);
                    None
                }
            }
            // Miss, or damage the store just quarantined: recompute.
            GetOutcome::Miss | GetOutcome::Defect(_) => None,
        }
    }

    /// Persists one checkpoint (atomic tmp + fsync + rename inside the
    /// store). Write failures are reported, never fatal — the live run
    /// continues; only crash recovery is degraded.
    fn save(&self, bytes: &[u8]) {
        let mut guard = self.store.lock().expect("store lock");
        let Some(store) = guard.as_mut() else { return };
        let digest = sim_mem::TraceDigest::of_bytes(bytes);
        if let Err(e) = store.put_checkpoint(&self.key, bytes, digest) {
            eprintln!("[ckpt: write failed for {:016x}: {e}]", self.key.hash());
        }
    }

    /// Drops this cell's checkpoint (failed verification, unusable bytes).
    fn remove(&self) {
        if let Some(store) = self.store.lock().expect("store lock").as_mut() {
            store.remove_checkpoint(&self.key);
        }
    }
}

/// Runs one cell to completion with interval checkpointing: restore from
/// the newest verified checkpoint if one exists (else build fresh from
/// `scratch`), then alternate bounded slices with checkpoint writes.
/// Returns the sealed result and the recycled scratch.
///
/// The result is bit-identical to `Core::run(target)` — slicing changes
/// when the host regains control, never what the model computes, and a
/// restore rebuilds the exact mid-run state the checkpoint encoded.
pub fn run_checkpointed(
    programs: &[&Program],
    cfg: &CoreConfig,
    scratch: SimScratch,
    target: u64,
    ckpt: &Checkpointer,
) -> (SimResult, SimScratch) {
    let (mut core, resumed) = match ckpt.load() {
        Some(bytes) => match Core::restore(programs.to_vec(), cfg.clone(), scratch, &bytes) {
            Ok(core) => (core, true),
            Err(e) => {
                // Config or program drift since the checkpoint was written
                // (the store key should prevent this; defense in depth) —
                // drop it and recompute from the start.
                eprintln!("[ckpt: discarding unusable checkpoint: {e}]");
                ckpt.remove();
                (
                    Core::new_multi_with_scratch(programs.to_vec(), cfg.clone(), SimScratch::new()),
                    false,
                )
            }
        },
        None => (
            Core::new_multi_with_scratch(programs.to_vec(), cfg.clone(), scratch),
            false,
        ),
    };
    let mut boundary: u64 = 0;
    let result = loop {
        if !core.run_slice(target, ckpt.interval) {
            break core.seal_result();
        }
        ckpt.save(&core.checkpoint());
        if !resumed && ckpt.kill_at == Some(boundary) {
            panic!("chaos: injected kill at checkpoint boundary {boundary}");
        }
        boundary += 1;
    };
    if result.verify().is_err() {
        // Watchdog/golden failures: resuming would reproduce the failure.
        ckpt.remove();
    }
    (result, core.into_scratch())
}
