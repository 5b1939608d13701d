//! A tiny FxHash-style hasher for the simulator's internal integer-keyed
//! maps (e.g. in-flight load counts, probed every load rename/retire).
//! SipHash's per-lookup cost is measurable on the hot path and its DoS
//! resistance buys nothing for PC-keyed simulator state.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-and-rotate hasher over the written words.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Whole words straight from the slice; only a short tail is padded.
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` with [`FastHasher`]; drop-in for integer keys.
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_behaves_like_hashmap() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        for pc in (0..1000u64).map(|i| 0x40_0000 + i * 4) {
            *m.entry(pc).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&0x40_0000], 1);
    }

    /// A byte write mixes whole little-endian words, then the tail
    /// zero-padded to a word — the same as writing those words directly.
    #[test]
    fn byte_writes_mix_words_then_the_padded_tail() {
        let bytes: Vec<u8> = (1..=13).collect();
        let mut by_bytes = FastHasher::default();
        by_bytes.write(&bytes);
        let mut by_words = FastHasher::default();
        by_words.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        by_words.write_u64(u64::from_le_bytes([9, 10, 11, 12, 13, 0, 0, 0]));
        assert_eq!(by_bytes.finish(), by_words.finish());
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        use std::collections::HashSet;
        let mut hashes = HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FastHasher::default();
            h.write_u64(i * 64);
            hashes.insert(h.finish());
        }
        assert_eq!(hashes.len(), 10_000, "sequential line addresses collided");
    }
}
