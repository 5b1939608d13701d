//! Oracle machinery for the headroom studies (§4.4, Fig 7).
//!
//! *Ideal Constable* identifies all global-stable loads offline and
//! eliminates both component operations of their execution. The oracle here
//! is a set of static load PCs produced by the load-inspector analysis pass;
//! the core consults it instead of the SLD in ideal configurations.

use std::collections::HashSet;

/// An offline oracle of global-stable load PCs.
#[derive(Debug, Clone, Default)]
pub struct IdealOracle {
    stable: HashSet<u64>,
}

impl IdealOracle {
    /// Creates an oracle from the global-stable PC set.
    pub fn new(stable_pcs: impl IntoIterator<Item = u64>) -> Self {
        IdealOracle {
            stable: stable_pcs.into_iter().collect(),
        }
    }

    /// Whether the static load at `pc` is global-stable.
    pub fn is_stable(&self, pc: u64) -> bool {
        self.stable.contains(&pc)
    }

    /// Number of global-stable static loads known to the oracle.
    pub fn len(&self) -> usize {
        self.stable.len()
    }

    /// Whether the oracle is empty.
    pub fn is_empty(&self) -> bool {
        self.stable.is_empty()
    }

    /// The PC set in sorted order — the canonical form the result store's
    /// stable key encoding uses, so the oracle encodes identically
    /// regardless of insertion order.
    pub fn sorted_pcs(&self) -> Vec<u64> {
        let mut pcs: Vec<u64> = self.stable.iter().copied().collect();
        pcs.sort_unstable();
        pcs
    }
}

/// The oracle-driven headroom configurations of Fig 7 (its 2× load-width
/// bar is a plain load-port count, not an oracle mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdealConfig {
    /// Perfect value prediction of global-stable loads; the loads still
    /// execute fully (address generation + data fetch) to verify.
    IdealStableLvp,
    /// Perfect value prediction; the load executes only through address
    /// generation (data fetch eliminated).
    IdealStableLvpNoFetch,
    /// Eliminate both address generation and data fetch (the full headroom).
    IdealConstable,
}

impl IdealConfig {
    /// Stable one-byte code for the result store's key encoding (explicit
    /// match, never the compiler-assigned discriminant).
    pub fn stable_code(self) -> u8 {
        match self {
            IdealConfig::IdealStableLvp => 1,
            IdealConfig::IdealStableLvpNoFetch => 2,
            // Code 3 belonged to the retired `DoubleLoadWidth` mode;
            // never reuse it.
            IdealConfig::IdealConstable => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_membership() {
        let o = IdealOracle::new([0x400, 0x404]);
        assert!(o.is_stable(0x400));
        assert!(!o.is_stable(0x408));
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
        assert!(IdealOracle::default().is_empty());
    }
}
