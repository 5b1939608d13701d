//! The store proper: directory layout, atomic writes, verified reads and
//! quarantine.
//!
//! Layout under the store root:
//!
//! ```text
//! objects/      one record file per cell, named <key-hash>.rec
//! quarantine/   damaged record files, moved aside with forensics
//! tmp/          staging for atomic writes (tmp → fsync → rename)
//! ```
//!
//! The object files are the whole store: a record is present exactly when
//! its rename into `objects/` landed, and every read re-verifies it. There
//! is no index and no lock, so any number of handles and processes may
//! share one directory. Two writers of the same key rename byte-identical
//! records over each other; a reader sees the old file or the new one,
//! never a mix.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::chaos::{IoChaosPlan, IoFault};
use crate::key::StoreKey;
use crate::record::{self, RecordError, HEADER_LEN};

/// Classified store damage, for forensics and quarantine tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreDefectKind {
    /// Payload or key bytes fail their checksum (bit rot / injected flip).
    Corrupt,
    /// Record file shorter than its header claims (torn write).
    Torn,
    /// Record format version skew (valid header, different version).
    VersionSkew,
    /// I/O error reading the object file.
    Unreadable,
    /// Decoded payload disagrees with the header's stats digest (caller-
    /// detected, via [`ResultStore::quarantine`]).
    DigestMismatch,
}

impl StoreDefectKind {
    /// Stable slug used in quarantine tables and CI greps.
    pub fn slug(self) -> &'static str {
        match self {
            StoreDefectKind::Corrupt => "store-corrupt",
            StoreDefectKind::Torn => "store-torn",
            StoreDefectKind::VersionSkew => "store-version",
            StoreDefectKind::Unreadable => "store-io",
            StoreDefectKind::DigestMismatch => "store-digest",
        }
    }
}

/// One detected store defect, with enough forensics to point at the
/// damaged bytes: the key hash, the file involved, the byte offset of the
/// damage, and the expected/actual checksum pair where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDefect {
    pub kind: StoreDefectKind,
    pub key_hash: u64,
    pub path: PathBuf,
    pub offset: u64,
    pub expected: u64,
    pub actual: u64,
    /// True when a configured [`IoChaosPlan`] scheduled damage here, so
    /// injected faults are distinguishable from organic ones in the table.
    pub injected: bool,
}

impl StoreDefect {
    /// One-line forensics string for quarantine tables.
    pub fn detail(&self) -> String {
        format!(
            "{} at {} offset {} (expected {:#018x}, actual {:#018x})",
            self.kind.slug(),
            self.path.display(),
            self.offset,
            self.expected,
            self.actual,
        )
    }
}

/// Result of a [`ResultStore::get`].
#[derive(Debug)]
pub enum GetOutcome {
    /// Verified hit: payload checksum and embedded key bytes both match.
    Hit { payload: Vec<u8>, stats_digest: u64 },
    /// Key not present (or a hash collision with different key bytes).
    Miss,
    /// The record was damaged; it has been quarantined and the caller
    /// should recompute the cell as a miss.
    Defect(StoreDefect),
}

/// Counters for the run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub hits: u64,
    pub misses: u64,
    pub writes: u64,
    pub quarantined: u64,
    pub collisions: u64,
}

/// The open store. All methods degrade on damage — they quarantine and
/// report, never panic, so a corrupted store can only cost recomputes.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    chaos: Option<IoChaosPlan>,
    stats: StoreStats,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `root`. Fails only when the
    /// directory layout cannot be created — record damage never fails an
    /// open.
    pub fn open(root: &Path, chaos: Option<IoChaosPlan>) -> io::Result<Self> {
        for dir in ["objects", "quarantine", "tmp"] {
            fs::create_dir_all(root.join(dir))?;
        }
        Ok(ResultStore {
            root: root.to_path_buf(),
            chaos,
            stats: StoreStats::default(),
        })
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn object_path(&self, key: &StoreKey) -> PathBuf {
        self.root.join("objects").join(key.object_name())
    }

    /// Stages `rec` in `tmp/` under a process-and-write-unique name,
    /// fsyncs, and renames it over `final_path`.
    fn write_atomic(&self, object_name: &str, rec: &[u8], final_path: &Path) -> io::Result<()> {
        // Unique to this process *and* this write, so two processes (or
        // two puts of colliding hashes) sharing the store can never
        // scribble over each other's staging file mid-fsync.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp_path = self.root.join("tmp").join(format!(
            "{}.{}.{}",
            object_name,
            std::process::id(),
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(rec)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, final_path)
    }

    fn defect(
        &self,
        kind: StoreDefectKind,
        key_hash: u64,
        path: PathBuf,
        offset: u64,
        expected: u64,
        actual: u64,
    ) -> StoreDefect {
        let injected = self
            .chaos
            .as_ref()
            .is_some_and(|p| p.fault_for_put(key_hash).is_some());
        StoreDefect {
            kind,
            key_hash,
            path,
            offset,
            expected,
            actual,
            injected,
        }
    }

    /// Moves a damaged object into `quarantine/`. Best-effort: quarantine
    /// must never introduce new failures.
    fn quarantine_object(&mut self, path: &Path) {
        let dest = self
            .root
            .join("quarantine")
            .join(path.file_name().unwrap_or_default());
        let _ = fs::rename(path, dest);
        self.stats.quarantined += 1;
    }

    /// Verified read. Damage is quarantined and reported; the caller
    /// treats [`GetOutcome::Defect`] as a miss plus a registry entry.
    pub fn get(&mut self, key: &StoreKey) -> GetOutcome {
        let key_hash = key.hash();
        let path = self.object_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses += 1;
                return GetOutcome::Miss;
            }
            Err(_) => {
                let defect =
                    self.defect(StoreDefectKind::Unreadable, key_hash, path.clone(), 0, 0, 0);
                self.quarantine_object(&path);
                self.stats.misses += 1;
                return GetOutcome::Defect(defect);
            }
        };
        match record::decode_record(&bytes) {
            Ok((header, rec_key, payload)) => {
                if rec_key != key.bytes() {
                    // Hash collision or key-format drift: the embedded key
                    // disagrees, so this record is not ours. A clean miss —
                    // the record stays for its rightful owner.
                    self.stats.collisions += 1;
                    self.stats.misses += 1;
                    return GetOutcome::Miss;
                }
                self.stats.hits += 1;
                GetOutcome::Hit {
                    payload: payload.to_vec(),
                    stats_digest: header.stats_digest,
                }
            }
            Err(err) => {
                let (kind, offset, expected, actual) = classify(&err, bytes.len());
                let defect = self.defect(kind, key_hash, path.clone(), offset, expected, actual);
                self.quarantine_object(&path);
                self.stats.misses += 1;
                GetOutcome::Defect(defect)
            }
        }
    }

    /// Durable write: record staged in `tmp/`, fsynced and renamed into
    /// `objects/`. A configured chaos plan may then damage the just-written
    /// record (that is its job); the record's own checksums catch it on
    /// read.
    pub fn put(&mut self, key: &StoreKey, payload: &[u8], stats_digest: u64) -> io::Result<()> {
        let key_hash = key.hash();
        let rec = record::encode_record(key.bytes(), payload, stats_digest);
        let final_path = self.object_path(key);
        self.write_atomic(&key.object_name(), &rec, &final_path)?;

        if let Some(plan) = self.chaos {
            if let Some(fault) = plan.fault_for_put(key_hash) {
                inject_object_fault(
                    &plan,
                    &final_path,
                    rec.len(),
                    HEADER_LEN + key.bytes().len(),
                    key_hash,
                    fault,
                )?;
            }
        }
        self.stats.writes += 1;
        Ok(())
    }

    /// Caller-detected damage (e.g. the decoded payload's recomputed stats
    /// digest disagrees with the header): quarantine the record and return
    /// the forensics entry.
    pub fn quarantine(
        &mut self,
        key: &StoreKey,
        kind: StoreDefectKind,
        expected: u64,
        actual: u64,
    ) -> StoreDefect {
        let key_hash = key.hash();
        let path = self.object_path(key);
        let defect = self.defect(
            kind,
            key_hash,
            path.clone(),
            HEADER_LEN as u64,
            expected,
            actual,
        );
        self.quarantine_object(&path);
        defect
    }
}

fn classify(err: &RecordError, file_len: usize) -> (StoreDefectKind, u64, u64, u64) {
    match *err {
        RecordError::Truncated { len } => (
            StoreDefectKind::Torn,
            len as u64,
            HEADER_LEN as u64,
            len as u64,
        ),
        RecordError::BadMagic => (StoreDefectKind::Corrupt, 0, 0, 0),
        RecordError::VersionSkew { found } => (
            StoreDefectKind::VersionSkew,
            8,
            u64::from(record::FORMAT_VERSION),
            u64::from(found),
        ),
        RecordError::HeaderChecksum { expected, actual } => (
            StoreDefectKind::Corrupt,
            (HEADER_LEN - 8) as u64,
            expected,
            actual,
        ),
        RecordError::TornBody { expected_len, .. } => (
            StoreDefectKind::Torn,
            file_len as u64,
            expected_len as u64,
            file_len as u64,
        ),
        RecordError::PayloadChecksum {
            expected,
            actual,
            offset,
        } => (StoreDefectKind::Corrupt, offset as u64, expected, actual),
        RecordError::KeyHashMismatch { expected, actual } => (
            StoreDefectKind::Corrupt,
            HEADER_LEN as u64,
            expected,
            actual,
        ),
    }
}

/// Applies a scheduled post-write fault to a durably-written object file:
/// a torn tail (never past the first byte) or one flipped payload bit at a
/// seed-derived index.
fn inject_object_fault(
    plan: &IoChaosPlan,
    path: &Path,
    rec_len: usize,
    body_start: usize,
    key_hash: u64,
    fault: IoFault,
) -> io::Result<()> {
    match fault {
        IoFault::TornWrite => {
            let tear = plan.tear_len(key_hash).min(rec_len as u64 - 1);
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(rec_len as u64 - tear)?;
            f.sync_all()?;
        }
        IoFault::BitFlip => {
            let mut bytes = fs::read(path)?;
            if bytes.len() > body_start {
                let span = (bytes.len() - body_start) as u64 * 8;
                let bit = plan.flip_bit_index(key_hash) % span;
                bytes[body_start + (bit / 8) as usize] ^= 1 << (bit % 8);
                fs::write(path, &bytes)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("constable-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> StoreKey {
        let mut k = StoreKey::new();
        k.push_u64(n);
        k
    }

    #[test]
    fn put_get_round_trips_across_reopen() {
        let root = tmp_root("roundtrip");
        {
            let mut s = ResultStore::open(&root, None).unwrap();
            s.put(&key(1), b"alpha", 0xA).unwrap();
            s.put(&key(2), b"beta", 0xB).unwrap();
            assert_eq!(s.stats().writes, 2);
        }
        let mut s = ResultStore::open(&root, None).unwrap();
        match s.get(&key(1)) {
            GetOutcome::Hit {
                payload,
                stats_digest,
            } => {
                assert_eq!(payload, b"alpha");
                assert_eq!(stats_digest, 0xA);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(s.get(&key(3)), GetOutcome::Miss));
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bit_flip_is_quarantined_with_forensics_then_misses() {
        let root = tmp_root("flip");
        let mut s = ResultStore::open(&root, None).unwrap();
        s.put(&key(5), &[0x55u8; 128], 0x5).unwrap();
        let obj = root.join("objects").join(key(5).object_name());
        let mut bytes = fs::read(&obj).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x20;
        fs::write(&obj, &bytes).unwrap();

        match s.get(&key(5)) {
            GetOutcome::Defect(d) => {
                assert_eq!(d.kind, StoreDefectKind::Corrupt);
                assert_ne!(d.expected, d.actual);
                assert!(!d.injected);
                assert!(d.detail().contains("store-corrupt"));
            }
            other => panic!("expected defect, got {other:?}"),
        }
        // The damaged file moved to quarantine, so the key now misses.
        assert!(!obj.exists());
        assert!(root.join("quarantine").join(key(5).object_name()).exists());
        assert!(matches!(s.get(&key(5)), GetOutcome::Miss));
        assert_eq!(s.stats().quarantined, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_record_and_missing_object_degrade_to_defects() {
        let root = tmp_root("torn");
        let mut s = ResultStore::open(&root, None).unwrap();
        s.put(&key(7), &[1u8; 256], 0x7).unwrap();
        s.put(&key(8), &[2u8; 256], 0x8).unwrap();

        let obj7 = root.join("objects").join(key(7).object_name());
        let len = fs::metadata(&obj7).unwrap().len();
        let f = OpenOptions::new().write(true).open(&obj7).unwrap();
        f.set_len(len - 40).unwrap();
        drop(f);
        fs::remove_file(root.join("objects").join(key(8).object_name())).unwrap();

        assert!(matches!(
            s.get(&key(7)),
            GetOutcome::Defect(StoreDefect {
                kind: StoreDefectKind::Torn,
                ..
            })
        ));
        // A record removed by hand is simply absent: a plain miss.
        assert!(matches!(s.get(&key(8)), GetOutcome::Miss));
        assert_eq!(s.stats().quarantined, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn chaos_injected_damage_is_detected_and_marked_injected() {
        let root = tmp_root("chaos");
        let plan = IoChaosPlan::new(0xC0FFEE);
        let mut s = ResultStore::open(&root, Some(plan)).unwrap();
        // Find keys the plan damages (and one it leaves alone).
        let mut hurt = None;
        let mut clean = None;
        for n in 0..512u64 {
            let k = key(n);
            match plan.fault_for_put(k.hash()) {
                Some(_) if hurt.is_none() => hurt = Some(k),
                None if clean.is_none() => clean = Some(k),
                _ => {}
            }
            if hurt.is_some() && clean.is_some() {
                break;
            }
        }
        let (hurt, clean) = (hurt.unwrap(), clean.unwrap());
        s.put(&hurt, &[9u8; 200], 0x9).unwrap();
        s.put(&clean, &[3u8; 200], 0x3).unwrap();

        match s.get(&hurt) {
            GetOutcome::Defect(d) => assert!(d.injected, "chaos damage must be marked injected"),
            other => panic!("expected defect on chaos-damaged record, got {other:?}"),
        }
        assert!(matches!(s.get(&clean), GetOutcome::Hit { .. }));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_handles_see_each_others_writes() {
        let root = tmp_root("shared");
        let mut a = ResultStore::open(&root, None).unwrap();
        let mut b = ResultStore::open(&root, None).unwrap();
        assert!(matches!(a.get(&key(1)), GetOutcome::Miss));

        a.put(&key(1), b"from-a", 0x1A).unwrap();
        b.put(&key(2), b"from-b", 0x2B).unwrap();
        match b.get(&key(1)) {
            GetOutcome::Hit {
                payload,
                stats_digest,
            } => {
                assert_eq!(payload, b"from-a");
                assert_eq!(stats_digest, 0x1A);
            }
            other => panic!("expected a hit on a's write, got {other:?}"),
        }
        match a.get(&key(2)) {
            GetOutcome::Hit { payload, .. } => assert_eq!(payload, b"from-b"),
            other => panic!("expected a hit on b's write, got {other:?}"),
        }
        assert_eq!(a.stats().hits, 1);
        assert_eq!(b.stats().hits, 1);
        let _ = fs::remove_dir_all(&root);
    }
}
