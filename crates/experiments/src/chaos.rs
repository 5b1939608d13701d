//! Deterministic chaos injection for the sweep pipeline.
//!
//! A [`ChaosPlan`] is a pure function from (seed, workload, config
//! fingerprint) to an optional [`ChaosFault`]: the same seed always kills
//! the same cells, so a chaos run is reproducible end to end and the
//! isolation tests can compare the *surviving* cells bit-for-bit against a
//! clean run. Roughly 3/16 of cells draw a fault; the rest are untouched.
//!
//! Enabled only by explicit opt-in: the `--chaos <seed>` flag or the
//! `SIM_CHAOS=<seed>` environment variable.

use sim_mem::splitmix64;

/// The fault a chaos-selected cell is handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Panic on the pool worker before the simulation starts — exercises
    /// the catch_unwind boundary and poisoned-scratch disposal.
    Panic,
    /// Wedge the core mid-run (retirement stops, the pipeline starves) —
    /// exercises the forward-progress watchdog.
    Stall,
    /// Corrupt the golden-mismatch counter after a clean run — exercises
    /// the §8.5 verification path and first-divergence reporting.
    CorruptDigest,
}

/// Seeded, deterministic fault schedule over sweep cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    seed: u64,
}

impl ChaosPlan {
    /// A plan with the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosPlan { seed }
    }

    /// Reads `SIM_CHAOS=<seed>` (any u64) from the environment.
    pub fn from_env() -> Option<Self> {
        let v = std::env::var("SIM_CHAOS").ok()?;
        v.trim().parse().ok().map(ChaosPlan::new)
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault (if any) this plan injects into the given cell. Pure —
    /// callers may re-ask to classify a failure after the fact.
    pub fn fault_for(&self, workload: &str, fingerprint: u64) -> Option<ChaosFault> {
        let mut h = splitmix64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        for b in workload.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ fingerprint);
        match h % 16 {
            0 => Some(ChaosFault::Panic),
            1 => Some(ChaosFault::Stall),
            2 => Some(ChaosFault::CorruptDigest),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::new(7);
        let b = ChaosPlan::new(7);
        let c = ChaosPlan::new(8);
        let mut diverged = false;
        for fp in 0..256u64 {
            assert_eq!(a.fault_for("w", fp), b.fault_for("w", fp));
            diverged |= a.fault_for("w", fp) != c.fault_for("w", fp);
        }
        assert!(diverged, "different seeds must produce different schedules");
    }

    #[test]
    fn every_fault_class_is_reachable_at_a_sane_rate() {
        let plan = ChaosPlan::new(1);
        let mut counts = [0usize; 3];
        let total = 4096;
        for fp in 0..total as u64 {
            match plan.fault_for("workload", fp) {
                Some(ChaosFault::Panic) => counts[0] += 1,
                Some(ChaosFault::Stall) => counts[1] += 1,
                Some(ChaosFault::CorruptDigest) => counts[2] += 1,
                None => {}
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "fault class {i} never drawn");
        }
        let injected: usize = counts.iter().sum();
        // ~3/16 of cells (768/4096); allow generous slack.
        assert!((500..1100).contains(&injected), "rate off: {injected}");
    }
}
