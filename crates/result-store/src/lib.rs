//! # result-store — crash-safe persistent memoization for sweep results
//!
//! A durable, content-addressed, on-disk store for completed sweep cells,
//! keyed by a **stable, versioned, explicit byte encoding** of
//! (workload generation parameters, full `CoreConfig` field encoding, run
//! length) — never by the hasher-internal `CoreConfig::fingerprint`, which
//! is only stable within one process. A second process (or a process a
//! week later, on a rebuilt binary) re-derives byte-identical keys and
//! answers repeated sweep cells from disk at warm-rerender speed.
//!
//! The store trusts nothing it reads back:
//!
//! * every record carries a header with magic + format version, the full
//!   key bytes (hash collisions can never alias two keys), an FNV-1a
//!   payload checksum (the same `sim_mem::TraceDigest` machinery as the
//!   golden-trace locks), and the run's `stats_digest`;
//! * writes are atomic: temp file → fsync → rename, so a record file is
//!   either absent or complete, and a rename that landed is a stored cell;
//! * the record files are the whole store: there is no index and no lock,
//!   and concurrent processes share one directory freely.
//!
//! On any defect — checksum mismatch, version skew, torn record,
//! unreadable file — the store **degrades gracefully**: the damaged record
//! is moved to `quarantine/` with full forensics (key hash,
//! expected/actual checksum, byte offset) surfaced as a [`StoreDefect`],
//! the affected cell recomputes as a miss, and the process never panics on
//! store damage.
//!
//! [`IoChaosPlan`] provides seeded, deterministic I/O fault injection
//! (torn writes, payload bit flips) so the recovery paths are exercised
//! end to end by the experiments harness and CI.

mod chaos;
mod key;
mod record;
mod store;

pub use chaos::{IoChaosPlan, IoFault};
pub use key::StoreKey;
pub use record::{RecordHeader, FORMAT_VERSION};
pub use store::{GetOutcome, ResultStore, StoreDefect, StoreDefectKind, StoreStats};

/// Version of the **key** byte layout: the tuple
/// (`WorkloadSpec::stable_key_encode`, `CoreConfig::stable_encode`, run
/// length) assembled by the experiments harness. Bump it whenever any
/// stable encoder changes shape or meaning — old records then miss (their
/// embedded key bytes start with the old version) instead of being
/// misread. The key-format guard test in `tests/key_guard.rs` pins the
/// current layout to this version and fails on any unversioned drift.
pub const KEY_FORMAT_VERSION: u8 = 1;
