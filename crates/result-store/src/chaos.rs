//! Seeded I/O fault injection.
//!
//! The repo's one seeded fault planner: a pure function of
//! `(seed, key hash)` over the shared [`sim_mem::splitmix64`] that
//! targets the storage layer: torn object writes and payload bit flips.
//! Faults are injected *after* the store's atomic write path has run, so
//! the recovery path — checksum verify, then quarantine — is exercised
//! exactly as it would be by real disk damage, and deterministically per
//! seed.

use sim_mem::splitmix64;

/// A storage fault scheduled for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Truncate the object file mid-body after the write lands (simulated
    /// torn write / power cut between write and durability).
    TornWrite,
    /// Flip one payload bit in the object file (bit rot). The bit index is
    /// derived from the same seed stream, so the damage is reproducible.
    BitFlip,
}

/// Deterministic fault schedule for the store, seeded from the CLI.
#[derive(Debug, Clone, Copy)]
pub struct IoChaosPlan {
    seed: u64,
    /// Inject on roughly `rate_num / 16` of puts.
    rate_num: u64,
}

impl IoChaosPlan {
    /// Default plan: ~4/16 of written records are damaged.
    pub fn new(seed: u64) -> Self {
        IoChaosPlan { seed, rate_num: 4 }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn roll(&self, stream: u64, key_hash: u64) -> u64 {
        splitmix64(self.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ key_hash)
    }

    /// Fault (if any) to inject right after the object for `key_hash` is
    /// durably written. Pure function of `(seed, key_hash)`.
    pub fn fault_for_put(&self, key_hash: u64) -> Option<IoFault> {
        let r = self.roll(1, key_hash);
        if r % 16 >= self.rate_num {
            return None;
        }
        Some(if r & 0x10000 == 0 {
            IoFault::BitFlip
        } else {
            IoFault::TornWrite
        })
    }

    /// Payload bit index to flip for a [`IoFault::BitFlip`] on this key,
    /// reduced modulo the payload length by the caller.
    pub fn flip_bit_index(&self, key_hash: u64) -> u64 {
        self.roll(2, key_hash)
    }

    /// Bytes to tear off the end of the object for [`IoFault::TornWrite`]
    /// (at least 1; caller clamps to the body).
    pub fn tear_len(&self, key_hash: u64) -> u64 {
        1 + self.roll(3, key_hash) % 96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = IoChaosPlan::new(7);
        let b = IoChaosPlan::new(7);
        let c = IoChaosPlan::new(8);
        let mut diverged = false;
        for key in 0..256u64 {
            assert_eq!(a.fault_for_put(key), b.fault_for_put(key));
            if a.fault_for_put(key) != c.fault_for_put(key) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must produce different schedules");
    }

    #[test]
    fn rate_is_roughly_a_quarter_and_both_faults_occur() {
        let plan = IoChaosPlan::new(1234);
        let mut flips = 0;
        let mut tears = 0;
        for key in 0..1024u64 {
            match plan.fault_for_put(key) {
                Some(IoFault::BitFlip) => flips += 1,
                Some(IoFault::TornWrite) => tears += 1,
                None => {}
            }
        }
        let hit = flips + tears;
        assert!((128..=384).contains(&hit), "rate off: {hit}/1024");
        assert!(flips > 0 && tears > 0);
    }

    #[test]
    fn tear_len_is_bounded_and_nonzero() {
        let plan = IoChaosPlan::new(99);
        for key in 0..64u64 {
            let t = plan.tear_len(key);
            assert!((1..=96).contains(&t));
        }
    }
}
