//! The store proper: directory layout, locking, atomic writes, verified
//! reads, quarantine, and recovery.
//!
//! Layout under the store root:
//!
//! ```text
//! LOCK          pid lock file (create_new; stale locks stolen)
//! journal.log   append-only index (see `journal`)
//! objects/      one record file per cell, named <key-hash>.rec
//! quarantine/   damaged record files, moved aside with forensics
//! tmp/          staging for atomic writes (tmp → fsync → rename)
//! ```

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::chaos::{IoChaosPlan, IoFault};
use crate::journal::{Journal, JournalEntry};
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
    /// Journal tail was torn or corrupt and has been truncated away.
    JournalTail,
    /// Journal lists a live object whose file is gone.
    MissingObject,
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
            StoreDefectKind::JournalTail => "store-journal",
            StoreDefectKind::MissingObject => "store-missing",
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
    pub compactions: u64,
}

const LOCK_FILE: &str = "LOCK";
const LOCK_ATTEMPTS: u32 = 40;
const LOCK_RETRY: Duration = Duration::from_millis(50);

/// How the store was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Sole owner: holds the pid lock, heals the journal tail on open,
    /// compacts when worthwhile.
    Exclusive,
    /// Lock-free reader/writer sharing the directory with other processes.
    /// Never heals, truncates, or compacts (what looks like damage may be
    /// another process's write in flight); reads through to object files
    /// the in-memory index has not seen; appends via fresh `O_APPEND`
    /// handles so a concurrent compaction cannot strand its entries.
    Shared,
}

/// The open store. All methods degrade on damage — they quarantine and
/// report, never panic, so a corrupted store can only cost recomputes.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    journal: Journal,
    chaos: Option<IoChaosPlan>,
    stats: StoreStats,
    /// Defects found during open (journal-tail damage), drained by the
    /// harness once.
    open_defects: Vec<StoreDefect>,
    mode: OpenMode,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `root`: takes the pid lock,
    /// replays + heals the journal, and compacts it when it has grown
    /// mostly dead. Fails only on environmental errors (unreadable or
    /// uncreatable directory, lock timeout) — record damage never fails an
    /// open.
    pub fn open(root: &Path, chaos: Option<IoChaosPlan>) -> io::Result<Self> {
        create_layout(root)?;

        acquire_lock(root, chaos.as_ref())?;
        let (mut journal, tail_damage) = match Journal::open(root) {
            Ok(ok) => ok,
            Err(e) => {
                let _ = fs::remove_file(root.join(LOCK_FILE));
                return Err(e);
            }
        };

        let mut stats = StoreStats::default();
        let mut open_defects = Vec::new();
        if let Some(damage) = tail_damage {
            let injected = chaos
                .as_ref()
                .is_some_and(|p| p.truncate_journal_tail().is_some());
            open_defects.push(StoreDefect {
                kind: StoreDefectKind::JournalTail,
                key_hash: 0,
                path: root.join(crate::journal::JOURNAL_FILE),
                offset: damage.offset,
                expected: 0,
                actual: damage.discarded,
                injected,
            });
        }
        if journal.wants_compaction() {
            journal.compact(&root.join("tmp"))?;
            stats.compactions += 1;
            // Chaos coverage for the compaction write path: the rewritten
            // journal is brand-new bytes the per-put fault streams never
            // touch, so a scheduled tear here is the only way replay
            // recovery gets exercised over a *compacted* index. The next
            // open truncates the torn tail back to health; index entries
            // lost to the tear degrade to recomputes (the object files are
            // the ground truth and stay in place).
            if let Some(tear) = chaos.as_ref().and_then(IoChaosPlan::compaction_tear) {
                let len = journal.raw_len()?;
                if len > tear {
                    let path = root.join(crate::journal::JOURNAL_FILE);
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len(len - tear)?;
                    f.sync_all()?;
                }
            }
        }

        Ok(ResultStore {
            root: root.to_path_buf(),
            journal,
            chaos,
            stats,
            open_defects,
            mode: OpenMode::Exclusive,
        })
    }

    /// Opens the store at `root` in [`OpenMode::Shared`]: no lock taken, no
    /// journal heal or compaction, and `get` reads through to object files
    /// the replayed index has not seen. Safe to hold concurrently with an
    /// exclusive owner or other shared openers — interleaved damage can
    /// only cost recomputes, never wrong answers (every hit re-verifies
    /// the record's checksums and embedded key bytes).
    pub fn open_shared(root: &Path, chaos: Option<IoChaosPlan>) -> io::Result<Self> {
        create_layout(root)?;
        let journal = Journal::open_shared(root)?;
        Ok(ResultStore {
            root: root.to_path_buf(),
            journal,
            chaos,
            stats: StoreStats::default(),
            open_defects: Vec::new(),
            mode: OpenMode::Shared,
        })
    }

    /// How this handle was opened.
    pub fn mode(&self) -> OpenMode {
        self.mode
    }

    /// Defects detected while opening (torn journal tail), at most once.
    pub fn take_open_defects(&mut self) -> Vec<StoreDefect> {
        std::mem::take(&mut self.open_defects)
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of live records in the index.
    pub fn len(&self) -> usize {
        self.journal.len()
    }

    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
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

    /// Moves a damaged object into `quarantine/` and drops it from the
    /// index. Best-effort: quarantine must never introduce new failures.
    fn quarantine_object(&mut self, key_hash: u64, path: &Path) {
        if path.exists() {
            let dest = self
                .root
                .join("quarantine")
                .join(path.file_name().unwrap_or_default());
            let _ = fs::rename(path, &dest);
        }
        let _ = self.journal.append(JournalEntry::delete(key_hash));
        self.stats.quarantined += 1;
    }

    /// Verified read. Damage is quarantined and reported; the caller
    /// treats [`GetOutcome::Defect`] as a miss plus a registry entry.
    pub fn get(&mut self, key: &StoreKey) -> GetOutcome {
        let key_hash = key.hash();
        let indexed = self.journal.lookup(key_hash).is_some();
        if !indexed && self.mode == OpenMode::Exclusive {
            self.stats.misses += 1;
            return GetOutcome::Miss;
        }
        let path = self.object_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if !indexed {
                    // Shared-mode read-through probe: nothing promised this
                    // record exists, so its absence is a plain miss.
                    self.stats.misses += 1;
                    return GetOutcome::Miss;
                }
                let defect = self.defect(
                    StoreDefectKind::MissingObject,
                    key_hash,
                    path.clone(),
                    0,
                    0,
                    0,
                );
                self.quarantine_object(key_hash, &path);
                self.stats.misses += 1;
                return GetOutcome::Defect(defect);
            }
            Err(_) => {
                let defect =
                    self.defect(StoreDefectKind::Unreadable, key_hash, path.clone(), 0, 0, 0);
                self.quarantine_object(key_hash, &path);
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
                self.quarantine_object(key_hash, &path);
                self.stats.misses += 1;
                GetOutcome::Defect(defect)
            }
        }
    }

    /// Durable write: record staged in `tmp/`, fsynced, renamed into
    /// `objects/`, then journaled. A configured chaos plan may damage the
    /// just-written record (that is its job); the journal entry still
    /// records the clean checksum so the damage is caught on read.
    pub fn put(&mut self, key: &StoreKey, payload: &[u8], stats_digest: u64) -> io::Result<()> {
        let key_hash = key.hash();
        let rec = record::encode_record(key.bytes(), payload, stats_digest);
        let payload_checksum = sim_mem::TraceDigest::of_bytes(payload);

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

        self.journal
            .append(JournalEntry::put(key_hash, payload_checksum, stats_digest))?;
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
        self.quarantine_object(key_hash, &path);
        defect
    }

    /// Applies end-of-run chaos (journal-tail truncation) if scheduled.
    /// Called by the harness when a chaos run finishes, so the *next* open
    /// exercises replay recovery. No-op without a chaos plan.
    pub fn apply_close_chaos(&mut self) -> io::Result<()> {
        let Some(plan) = self.chaos else {
            return Ok(());
        };
        if let Some(tear) = plan.truncate_journal_tail() {
            let len = self.journal.raw_len()?;
            if len > tear {
                let path = self.root.join(crate::journal::JOURNAL_FILE);
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(len - tear)?;
                f.sync_all()?;
            }
        }
        Ok(())
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        if self.mode == OpenMode::Exclusive {
            let _ = fs::remove_file(self.root.join(LOCK_FILE));
        }
    }
}

fn create_layout(root: &Path) -> io::Result<()> {
    fs::create_dir_all(root)?;
    fs::create_dir_all(root.join("objects"))?;
    fs::create_dir_all(root.join("quarantine"))?;
    fs::create_dir_all(root.join("tmp"))?;
    Ok(())
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

/// Takes the store's pid lock, retrying briefly and stealing locks whose
/// owning process no longer exists.
fn acquire_lock(root: &Path, chaos: Option<&IoChaosPlan>) -> io::Result<()> {
    let path = root.join(LOCK_FILE);
    let mut contention = chaos.map_or(0, IoChaosPlan::lock_contention_attempts);
    for _ in 0..LOCK_ATTEMPTS {
        if contention > 0 {
            // Injected contention: behave exactly as if another process
            // held the lock for the first few attempts.
            contention -= 1;
            std::thread::sleep(LOCK_RETRY);
            continue;
        }
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                let _ = f.sync_all();
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                if lock_is_stale(&path) {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                std::thread::sleep(LOCK_RETRY);
            }
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::new(
        io::ErrorKind::WouldBlock,
        format!("store lock {} held by a live process", path.display()),
    ))
}

/// A lock whose owner cannot be proven alive or dead is stolen only after
/// it has sat unmodified this long.
const LOCK_STALE_AGE: Duration = Duration::from_secs(600);

/// What a liveness probe could establish about a lock owner's pid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// The process demonstrably exists.
    Alive,
    /// The process demonstrably does not exist.
    Dead,
    /// The platform could not tell (no `/proc`, probe denied, non-Linux).
    Unknown,
}

/// Probes whether a process with this pid exists. On Linux `/proc/<pid>`
/// is authoritative — but only when procfs itself is readable: inside
/// containers with a masked or absent `/proc`, or when the probe errors
/// for any reason other than clean absence, the answer is [`Liveness::Unknown`]
/// rather than a false `Dead`. Elsewhere there is no dependency-free
/// probe, so the answer is always `Unknown`.
#[cfg(target_os = "linux")]
pub fn probe_process(pid: u32) -> Liveness {
    match fs::metadata(format!("/proc/{pid}")) {
        Ok(_) => Liveness::Alive,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            // Absence is only meaningful if procfs is actually mounted;
            // check against a path guaranteed to exist when it is.
            if Path::new("/proc/self").exists() {
                Liveness::Dead
            } else {
                Liveness::Unknown
            }
        }
        Err(_) => Liveness::Unknown,
    }
}

#[cfg(not(target_os = "linux"))]
pub fn probe_process(_pid: u32) -> Liveness {
    Liveness::Unknown
}

/// Whether a process with this pid might still exist. `Unknown` counts as
/// alive: a lock is never stolen from a process that could be running.
pub fn process_alive(pid: u32) -> bool {
    probe_process(pid) != Liveness::Dead
}

/// Pure steal policy: proven-dead owners are stolen immediately; owners
/// that might be alive are stolen only once the lock file has gone
/// unmodified longer than [`LOCK_STALE_AGE`] — the bounded-age fallback
/// that keeps crash recovery working where `/proc` is unreadable, without
/// ever racing a live-but-unprovable holder.
pub fn stale_verdict(owner: Liveness, lock_age: Option<Duration>) -> bool {
    match owner {
        Liveness::Alive => false,
        Liveness::Dead => true,
        Liveness::Unknown => lock_age.is_some_and(|age| age > LOCK_STALE_AGE),
    }
}

/// A lock is stale when its owning pid no longer exists (or the lock file
/// itself is torn/empty — a crash between create and write).
fn lock_is_stale(path: &Path) -> bool {
    match fs::read_to_string(path) {
        Ok(s) => match s.trim().parse::<u32>() {
            Ok(pid) if pid == std::process::id() => false,
            Ok(pid) => {
                let age = fs::metadata(path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok());
                stale_verdict(probe_process(pid), age)
            }
            Err(_) => true,
        },
        // Vanished between the create_new failure and this read.
        Err(_) => false,
    }
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
        assert!(s.take_open_defects().is_empty());
        assert_eq!(s.len(), 2);
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
        // The damaged file moved to quarantine and the index forgot it.
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
        assert!(matches!(
            s.get(&key(8)),
            GetOutcome::Defect(StoreDefect {
                kind: StoreDefectKind::MissingObject,
                ..
            })
        ));
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
    fn close_chaos_tears_the_journal_and_reopen_heals_it() {
        let root = tmp_root("closechaos");
        // Find a seed whose plan schedules journal truncation.
        let plan = (0..64u64)
            .map(IoChaosPlan::new)
            .find(|p| p.truncate_journal_tail().is_some())
            .unwrap();
        {
            let mut s = ResultStore::open(&root, Some(plan)).unwrap();
            // Use a chaos-clean key so only the journal tear matters.
            let k = (0..512u64)
                .map(key)
                .find(|k| plan.fault_for_put(k.hash()).is_none())
                .unwrap();
            s.put(&k, b"fine", 0xF).unwrap();
            s.apply_close_chaos().unwrap();
        }
        let mut s = ResultStore::open(&root, None).unwrap();
        let defects = s.take_open_defects();
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, StoreDefectKind::JournalTail);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn shared_open_reads_through_past_a_stale_index() {
        let root = tmp_root("shared-rt");
        // The shared handle opens first, so its replayed index is empty.
        let mut shared = ResultStore::open_shared(&root, None).unwrap();
        assert_eq!(shared.mode(), OpenMode::Shared);
        assert!(matches!(shared.get(&key(1)), GetOutcome::Miss));

        // An exclusive owner (a concurrent CLI process, in spirit) writes.
        let mut owner = ResultStore::open(&root, None).unwrap();
        owner.put(&key(1), b"written-by-owner", 0x11).unwrap();

        // The shared handle sees it without reopening: read-through.
        match shared.get(&key(1)) {
            GetOutcome::Hit {
                payload,
                stats_digest,
            } => {
                assert_eq!(payload, b"written-by-owner");
                assert_eq!(stats_digest, 0x11);
            }
            other => panic!("expected read-through hit, got {other:?}"),
        }
        // And records it never heard of stay plain misses, not defects.
        assert!(matches!(shared.get(&key(2)), GetOutcome::Miss));
        assert_eq!(shared.stats().hits, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn shared_open_ignores_the_lock_and_its_writes_survive_replay() {
        let root = tmp_root("shared-wr");
        let owner = ResultStore::open(&root, None).unwrap();
        // Shared open succeeds while the pid lock is held and live.
        let mut shared = ResultStore::open_shared(&root, None).unwrap();
        shared.put(&key(9), b"from-shared", 0x99).unwrap();
        match shared.get(&key(9)) {
            GetOutcome::Hit { payload, .. } => assert_eq!(payload, b"from-shared"),
            other => panic!("expected hit, got {other:?}"),
        }
        drop(shared);
        drop(owner);
        // A later exclusive open replays the shared handle's journal append.
        let mut reopened = ResultStore::open(&root, None).unwrap();
        assert!(reopened.take_open_defects().is_empty());
        assert!(matches!(reopened.get(&key(9)), GetOutcome::Hit { .. }));
        drop(reopened);
        // Only exclusive handles touch the LOCK file: the shared drop left
        // it alone, and the last exclusive drop removed it.
        assert!(!root.join("LOCK").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn shared_open_never_heals_a_torn_journal_tail() {
        let root = tmp_root("shared-tail");
        {
            let mut s = ResultStore::open(&root, None).unwrap();
            s.put(&key(1), b"one", 0x1).unwrap();
            s.put(&key(2), b"two", 0x2).unwrap();
        }
        // Tear the journal tail: could equally be an append in flight.
        let jpath = root.join(crate::journal::JOURNAL_FILE);
        let len = fs::metadata(&jpath).unwrap().len();
        let f = OpenOptions::new().write(true).open(&jpath).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let mut shared = ResultStore::open_shared(&root, None).unwrap();
        assert!(shared.take_open_defects().is_empty());
        assert_eq!(
            fs::metadata(&jpath).unwrap().len(),
            len - 5,
            "shared open must leave the journal bytes untouched"
        );
        // The torn entry's record is still served via read-through.
        assert!(matches!(shared.get(&key(2)), GetOutcome::Hit { .. }));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn process_alive_sees_self_and_not_an_impossible_pid() {
        assert!(process_alive(std::process::id()));
        #[cfg(target_os = "linux")]
        assert!(!process_alive(4_194_999));
    }

    #[test]
    fn compaction_chaos_tears_the_compacted_journal_and_reopen_heals() {
        let root = tmp_root("compact-chaos");
        {
            let mut s = ResultStore::open(&root, None).unwrap();
            // Pile up dead journal weight: 4 live keys overwritten 40×.
            for round in 0..40u64 {
                for n in 0..4u64 {
                    s.put(&key(n), format!("r{round}").as_bytes(), round)
                        .unwrap();
                }
            }
        }
        let plan = (0..64u64)
            .map(IoChaosPlan::new)
            .find(|p| p.compaction_tear().is_some())
            .unwrap();
        {
            let mut s = ResultStore::open(&root, Some(plan)).unwrap();
            assert!(s.take_open_defects().is_empty());
            assert_eq!(s.stats().compactions, 1, "dead weight must compact");
            // The in-memory index predates the tear: every key still hits.
            for n in 0..4u64 {
                assert!(matches!(s.get(&key(n)), GetOutcome::Hit { .. }));
            }
        }
        // The torn compacted journal is what the next open must heal.
        let mut s = ResultStore::open(&root, None).unwrap();
        let defects = s.take_open_defects();
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].kind, StoreDefectKind::JournalTail);
        // The tear (1..=24 bytes) clips one 33-byte entry: exactly one key
        // degrades to a recompute, the rest still hit, nothing panics.
        let hits = (0..4u64)
            .filter(|&n| matches!(s.get(&key(n)), GetOutcome::Hit { .. }))
            .count();
        assert_eq!(hits, 3);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn lock_staleness_degrades_gracefully_without_proc() {
        // Proven states ignore age entirely.
        assert!(!stale_verdict(
            Liveness::Alive,
            Some(Duration::from_secs(7200))
        ));
        assert!(stale_verdict(Liveness::Dead, None));
        // Unknown owner (masked /proc, denied probe, non-Linux): never
        // steal a young lock; steal only past the bounded age.
        assert!(!stale_verdict(Liveness::Unknown, None));
        assert!(!stale_verdict(
            Liveness::Unknown,
            Some(Duration::from_secs(30))
        ));
        assert!(!stale_verdict(Liveness::Unknown, Some(LOCK_STALE_AGE)));
        assert!(stale_verdict(
            Liveness::Unknown,
            Some(LOCK_STALE_AGE + Duration::from_secs(1))
        ));
        // And the probe agrees with /proc where it is readable.
        #[cfg(target_os = "linux")]
        assert_eq!(probe_process(std::process::id()), Liveness::Alive);
    }

    #[test]
    fn second_open_while_locked_times_out_and_stale_locks_are_stolen() {
        let root = tmp_root("lock");
        fs::create_dir_all(&root).unwrap();
        // Plant a stale lock owned by a pid that cannot exist.
        fs::write(root.join("LOCK"), "4194999999\n").unwrap();
        let s = ResultStore::open(&root, None).unwrap();
        drop(s);
        assert!(!root.join("LOCK").exists(), "lock released on drop");
        let _ = fs::remove_dir_all(&root);
    }
}
