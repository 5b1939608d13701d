//! Content digests for golden-trace locks, and the one seeded mix.
//!
//! Both golden-file suites — the memory-hierarchy trace lock in this
//! crate's tests and the scheduling trace oracle in `sim-core` — fold an
//! ordered event stream into one 64-bit content hash that is committed to
//! the repository and compared on every run. They must agree on the byte
//! layout so a digest printed by one tool can be re-derived by another,
//! hence this shared implementation: FNV-1a over the little-endian bytes
//! of each `u64` word, word by word, in stream order.
//!
//! FNV-1a is deliberate: it is stable across platforms and Rust releases
//! (unlike `DefaultHasher`), trivially reimplementable from the committed
//! constants, and fast enough to disappear next to the simulation
//! producing the stream.

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a-64 over a stream of `u64` words.
///
/// ```
/// use sim_mem::TraceDigest;
///
/// let mut d = TraceDigest::new();
/// d.update(7);
/// d.update_all([1, 2, 3]);
/// let once = d.finish();
/// assert_eq!(once, TraceDigest::of([7, 1, 2, 3]), "order-sensitive, restartable");
/// assert_ne!(once, TraceDigest::of([1, 7, 2, 3]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    state: u64,
}

impl TraceDigest {
    /// A fresh digest at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        TraceDigest { state: FNV_OFFSET }
    }

    /// Folds one word into the digest.
    #[inline]
    pub fn update(&mut self, v: u64) {
        let mut s = self.state;
        for b in v.to_le_bytes() {
            s ^= u64::from(b);
            s = s.wrapping_mul(FNV_PRIME);
        }
        self.state = s;
    }

    /// Folds a sequence of words into the digest, in order.
    pub fn update_all(&mut self, vs: impl IntoIterator<Item = u64>) {
        for v in vs {
            self.update(v);
        }
    }

    /// Folds raw bytes into the digest, in order. Byte streams compose with
    /// the word API: `update(v)` is exactly
    /// `update_bytes(&v.to_le_bytes())`, so a digest over a byte encoding
    /// (the result-store key/checksum machinery) and one over the
    /// equivalent word stream agree.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= u64::from(b);
            s = s.wrapping_mul(FNV_PRIME);
        }
        self.state = s;
    }

    /// One-shot digest of a byte slice.
    #[must_use]
    pub fn of_bytes(bytes: &[u8]) -> u64 {
        let mut d = TraceDigest::new();
        d.update_bytes(bytes);
        d.finish()
    }

    /// The digest value so far. The digest remains usable; `finish` is a
    /// read, not a terminator.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// One-shot digest of a word sequence.
    #[must_use]
    pub fn of(vs: impl IntoIterator<Item = u64>) -> u64 {
        let mut d = TraceDigest::new();
        d.update_all(vs);
        d.finish()
    }
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest::new()
    }
}

/// SplitMix64 finalizer: a full-avalanche, dependency-free mix of one
/// word. The storage fault planner derives every decision from it, so a
/// schedule is a pure function of its inputs and is stable across
/// platforms and Rust releases.
///
/// ```
/// use sim_mem::splitmix64;
///
/// assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
/// assert_ne!(splitmix64(1), splitmix64(2));
/// ```
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_is_the_offset_basis() {
        assert_eq!(TraceDigest::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn matches_reference_bytewise_fnv1a() {
        // Reference: the classic byte-at-a-time formulation over the
        // little-endian encoding of the word stream.
        let words = [0u64, 1, u64::MAX, 0xDEAD_BEEF, 42];
        let mut expect = FNV_OFFSET;
        for w in words {
            for b in w.to_le_bytes() {
                expect ^= u64::from(b);
                expect = expect.wrapping_mul(FNV_PRIME);
            }
        }
        assert_eq!(TraceDigest::of(words), expect);
    }

    #[test]
    fn byte_and_word_streams_compose() {
        let mut a = TraceDigest::new();
        a.update(0xDEAD_BEEF_0BAD_F00D);
        a.update_bytes(&[1, 2, 3]);
        let mut b = TraceDigest::new();
        b.update_bytes(&0xDEAD_BEEF_0BAD_F00Du64.to_le_bytes());
        b.update_bytes(&[1]);
        b.update_bytes(&[2, 3]);
        assert_eq!(a.finish(), b.finish());
        assert_eq!(
            TraceDigest::of_bytes(&42u64.to_le_bytes()),
            TraceDigest::of([42])
        );
    }

    #[test]
    fn incremental_equals_oneshot_and_is_order_sensitive() {
        let mut d = TraceDigest::new();
        d.update(3);
        d.update_all([1, 4]);
        assert_eq!(d.finish(), TraceDigest::of([3, 1, 4]));
        assert_ne!(TraceDigest::of([3, 1, 4]), TraceDigest::of([3, 4, 1]));
        assert_ne!(TraceDigest::of([0]), TraceDigest::of([0, 0]));
    }
}
