//! Store-sets memory dependence predictor (Chrysos & Emer [51]),
//! the baseline's "aggressive out-of-order load scheduling with memory
//! dependence prediction" (Table 2).
//!
//! Loads normally issue speculatively past older stores with unresolved
//! addresses. When that speculation causes a memory-ordering violation, the
//! offending load and store PCs are placed in the same *store set*; future
//! instances of the load wait for in-flight members of the set.

/// A store-set identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ssid(pub u16);

/// The store-sets predictor: SSIT (PC → SSID) + LFST handled by the caller.
#[derive(Debug, Clone)]
pub struct StoreSets {
    /// Store-Set Identifier Table, indexed by hashed PC.
    ssit: Vec<Option<Ssid>>,
    next_ssid: u16,
}

impl StoreSets {
    /// Creates a predictor with a 4K-entry SSIT.
    pub fn new() -> Self {
        StoreSets {
            ssit: vec![None; 1 << 12],
            next_ssid: 0,
        }
    }

    fn idx(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.ssit.len() - 1)
    }

    /// The store set of the instruction at `pc`, if any.
    pub fn set_of(&self, pc: u64) -> Option<Ssid> {
        self.ssit[self.idx(pc)]
    }

    /// Records a memory-ordering violation between `load_pc` and `store_pc`,
    /// merging them into one store set.
    pub fn on_violation(&mut self, load_pc: u64, store_pc: u64) {
        let li = self.idx(load_pc);
        let si = self.idx(store_pc);
        match (self.ssit[li], self.ssit[si]) {
            (Some(a), None) => self.ssit[si] = Some(a),
            (None, Some(b)) => self.ssit[li] = Some(b),
            (Some(a), Some(b)) => {
                // Merge: the smaller SSID wins (paper's rule of thumb).
                let winner = Ssid(a.0.min(b.0));
                self.ssit[li] = Some(winner);
                self.ssit[si] = Some(winner);
            }
            (None, None) => {
                let id = Ssid(self.next_ssid);
                self.next_ssid = self.next_ssid.wrapping_add(1);
                self.ssit[li] = Some(id);
                self.ssit[si] = Some(id);
            }
        }
    }

    /// Periodic clearing keeps stale sets from over-serializing (hardware
    /// clears SSIT every ~1M cycles).
    pub fn clear(&mut self) {
        self.ssit.iter_mut().for_each(|e| *e = None);
    }
}

impl Default for StoreSets {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_creates_shared_set() {
        let mut s = StoreSets::new();
        assert!(s.set_of(0x100).is_none());
        s.on_violation(0x100, 0x200);
        let a = s.set_of(0x100).unwrap();
        let b = s.set_of(0x200).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sets_merge_on_cross_violation() {
        let mut s = StoreSets::new();
        s.on_violation(0x100, 0x200);
        s.on_violation(0x300, 0x400);
        s.on_violation(0x100, 0x400); // bridges the two sets
        assert_eq!(s.set_of(0x100), s.set_of(0x400));
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = StoreSets::new();
        s.on_violation(0x100, 0x200);
        s.clear();
        assert!(s.set_of(0x100).is_none());
        assert!(s.set_of(0x200).is_none());
    }
}
