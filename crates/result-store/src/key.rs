//! Stable store keys.

use sim_mem::TraceDigest;

/// A fully-assembled store key: the versioned byte encoding of everything
/// that identifies one sweep cell (workload generation parameters, the
/// complete machine configuration, run length and thread count).
///
/// The key's first byte is always [`crate::KEY_FORMAT_VERSION`], so a
/// layout change makes every old key a clean miss rather than a misread.
/// Records embed the full key bytes; the 64-bit FNV hash is only the
/// content address (file name / index slot), never the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    bytes: Vec<u8>,
}

impl StoreKey {
    /// Starts a key with the format-version prefix byte.
    pub fn new() -> Self {
        StoreKey {
            bytes: vec![crate::KEY_FORMAT_VERSION],
        }
    }

    /// Appends raw encoder output (e.g. `CoreConfig::stable_encode`).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends one little-endian word.
    pub fn push_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// The full key bytes (version prefix included).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// 64-bit FNV-1a content address of the key bytes.
    pub fn hash(&self) -> u64 {
        TraceDigest::of_bytes(&self.bytes)
    }

    /// The record file name this key addresses (relative to `objects/`).
    pub fn object_name(&self) -> String {
        format!("{:016x}.rec", self.hash())
    }
}

impl Default for StoreKey {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_carry_the_version_prefix_and_hash_their_content() {
        let mut a = StoreKey::new();
        assert_eq!(a.bytes()[0], crate::KEY_FORMAT_VERSION);
        a.push_u64(7);
        let mut b = StoreKey::new();
        b.push_u64(7);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
        b.push_u8(1);
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.object_name(), format!("{:016x}.rec", a.hash()));
    }
}
