//! On-disk record format.
//!
//! One record file per cell under `objects/`, named by the key hash:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"CNSTRES\0"
//!      8     1  format version (FORMAT_VERSION)
//!      9     8  key hash        (u64 LE, FNV-1a of the key bytes)
//!     17     8  payload checksum (u64 LE, FNV-1a of the payload bytes)
//!     25     8  stats digest    (u64 LE, SimResult::stats_digest of the run)
//!     33     8  key length      (u64 LE)
//!     41     8  payload length  (u64 LE)
//!     49     8  header checksum (u64 LE, FNV-1a of bytes 0..49)
//!     57     -  key bytes, then payload bytes
//! ```
//!
//! Everything after the fixed 57-byte header is covered by the two content
//! checksums; the header itself carries its own, so a bit flip anywhere in
//! the file is detected before a single payload byte is interpreted.

use sim_mem::TraceDigest;

/// Record magic: identifies a file as a Constable result record.
pub const MAGIC: [u8; 8] = *b"CNSTRES\0";

/// Version of the **record file** layout (independent of
/// [`crate::KEY_FORMAT_VERSION`], which versions the key bytes).
pub const FORMAT_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 57;

/// Parsed record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    pub version: u8,
    pub key_hash: u64,
    pub payload_checksum: u64,
    pub stats_digest: u64,
    pub key_len: u64,
    pub payload_len: u64,
}

/// Why a record failed to decode. Offsets are byte positions in the file,
/// so forensics can point at the damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// File shorter than the fixed header.
    Truncated { len: usize },
    /// Magic bytes are wrong — not a record at all.
    BadMagic,
    /// Record-format version skew.
    VersionSkew { found: u8 },
    /// The header's own checksum does not match its bytes.
    HeaderChecksum { expected: u64, actual: u64 },
    /// Body shorter than `key_len + payload_len` (torn write).
    TornBody {
        expected_len: usize,
        actual_len: usize,
    },
    /// Payload checksum mismatch (bit rot / injected flip).
    PayloadChecksum {
        expected: u64,
        actual: u64,
        offset: usize,
    },
    /// Key hash in the header does not match the embedded key bytes.
    KeyHashMismatch { expected: u64, actual: u64 },
}

impl RecordHeader {
    fn encode_prefix(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(self.version);
        out.extend_from_slice(&self.key_hash.to_le_bytes());
        out.extend_from_slice(&self.payload_checksum.to_le_bytes());
        out.extend_from_slice(&self.stats_digest.to_le_bytes());
        out.extend_from_slice(&self.key_len.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
    }
}

/// Serialises a full record (header + key + payload) into one buffer.
pub fn encode_record(key: &[u8], payload: &[u8], stats_digest: u64) -> Vec<u8> {
    let header = RecordHeader {
        version: FORMAT_VERSION,
        key_hash: TraceDigest::of_bytes(key),
        payload_checksum: TraceDigest::of_bytes(payload),
        stats_digest,
        key_len: key.len() as u64,
        payload_len: payload.len() as u64,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + key.len() + payload.len());
    header.encode_prefix(&mut out);
    let header_checksum = TraceDigest::of_bytes(&out);
    out.extend_from_slice(&header_checksum.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    out.extend_from_slice(key);
    out.extend_from_slice(payload);
    out
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Decodes and fully verifies a record file. Returns the header plus
/// borrowed key and payload slices; any damage yields a [`RecordError`]
/// with offsets, never a panic.
pub fn decode_record(bytes: &[u8]) -> Result<(RecordHeader, &[u8], &[u8]), RecordError> {
    if bytes.len() < HEADER_LEN {
        return Err(RecordError::Truncated { len: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(RecordError::BadMagic);
    }
    let header = RecordHeader {
        version: bytes[8],
        key_hash: read_u64(bytes, 9),
        payload_checksum: read_u64(bytes, 17),
        stats_digest: read_u64(bytes, 25),
        key_len: read_u64(bytes, 33),
        payload_len: read_u64(bytes, 41),
    };
    let stored_header_checksum = read_u64(bytes, 49);
    let actual_header_checksum = TraceDigest::of_bytes(&bytes[..HEADER_LEN - 8]);
    if stored_header_checksum != actual_header_checksum {
        return Err(RecordError::HeaderChecksum {
            expected: stored_header_checksum,
            actual: actual_header_checksum,
        });
    }
    // The header checksum passed, so version skew is a real version, not rot.
    if header.version != FORMAT_VERSION {
        return Err(RecordError::VersionSkew {
            found: header.version,
        });
    }
    let key_len = header.key_len as usize;
    let payload_len = header.payload_len as usize;
    let want = HEADER_LEN
        .checked_add(key_len)
        .and_then(|n| n.checked_add(payload_len));
    let Some(want) = want else {
        return Err(RecordError::TornBody {
            expected_len: usize::MAX,
            actual_len: bytes.len(),
        });
    };
    if bytes.len() < want {
        return Err(RecordError::TornBody {
            expected_len: want,
            actual_len: bytes.len(),
        });
    }
    let key = &bytes[HEADER_LEN..HEADER_LEN + key_len];
    let payload = &bytes[HEADER_LEN + key_len..want];
    let actual_key_hash = TraceDigest::of_bytes(key);
    if actual_key_hash != header.key_hash {
        return Err(RecordError::KeyHashMismatch {
            expected: header.key_hash,
            actual: actual_key_hash,
        });
    }
    let actual_payload_checksum = TraceDigest::of_bytes(payload);
    if actual_payload_checksum != header.payload_checksum {
        return Err(RecordError::PayloadChecksum {
            expected: header.payload_checksum,
            actual: actual_payload_checksum,
            offset: HEADER_LEN + key_len,
        });
    }
    Ok((header, key, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_verifies() {
        let key = [1u8, 2, 3];
        let payload = b"payload bytes";
        let rec = encode_record(&key, payload, 0xDEAD);
        let (h, k, p) = decode_record(&rec).unwrap();
        assert_eq!(h.stats_digest, 0xDEAD);
        assert_eq!(k, key);
        assert_eq!(p, payload.as_slice());
    }

    #[test]
    fn detects_every_class_of_damage() {
        let rec = encode_record(&[9u8; 16], &[7u8; 64], 1);

        // Torn header.
        assert!(matches!(
            decode_record(&rec[..HEADER_LEN - 1]),
            Err(RecordError::Truncated { .. })
        ));

        // Wrong magic.
        let mut bad = rec.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_record(&bad), Err(RecordError::BadMagic)));

        // Header bit flip (length field).
        let mut bad = rec.clone();
        bad[33] ^= 0x01;
        assert!(matches!(
            decode_record(&bad),
            Err(RecordError::HeaderChecksum { .. })
        ));

        // Torn body.
        assert!(matches!(
            decode_record(&rec[..rec.len() - 3]),
            Err(RecordError::TornBody { .. })
        ));

        // Payload bit flip carries the damage offset.
        let mut bad = rec.clone();
        let flip_at = rec.len() - 5;
        bad[flip_at] ^= 0x10;
        match decode_record(&bad) {
            Err(RecordError::PayloadChecksum {
                expected, actual, ..
            }) => assert_ne!(expected, actual),
            other => panic!("expected payload checksum error, got {other:?}"),
        }

        // Key bit flip.
        let mut bad = rec.clone();
        bad[HEADER_LEN] ^= 0x04;
        assert!(matches!(
            decode_record(&bad),
            Err(RecordError::KeyHashMismatch { .. })
        ));

        // Version skew must be reported as skew, not as rot: re-encode the
        // header checksum over a bumped version byte.
        let mut skew = rec.clone();
        skew[8] = FORMAT_VERSION + 1;
        let fixed = sim_mem::TraceDigest::of_bytes(&skew[..HEADER_LEN - 8]);
        skew[49..57].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            decode_record(&skew),
            Err(RecordError::VersionSkew { found }) if found == FORMAT_VERSION + 1
        ));
    }

    /// Exhaustive damage over one record with a non-empty key and payload:
    /// every strict prefix is a torn record, and every single-bit flip at
    /// every offset is an error, never a panic. No flip can slip through:
    /// each byte lies under one of the three FNV-1a checksums (or is the
    /// magic), and FNV-1a maps two equal-length inputs that differ in one
    /// byte to different digests, since each step is a bijection of the
    /// state.
    #[test]
    fn every_prefix_and_every_bit_flip_is_rejected() {
        let rec = encode_record(b"key bytes", b"payload bytes", 0xFEED);
        for len in 0..rec.len() {
            match decode_record(&rec[..len]) {
                Err(RecordError::Truncated { .. } | RecordError::TornBody { .. }) => {}
                other => panic!("a {len}-byte prefix decoded as {other:?}"),
            }
        }
        for bit in 0..rec.len() * 8 {
            let mut bad = rec.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let decoded = std::panic::catch_unwind(|| decode_record(&bad).is_err());
            assert_eq!(
                decoded.ok(),
                Some(true),
                "flipping bit {bit} was not rejected as an error"
            );
        }
    }
}
