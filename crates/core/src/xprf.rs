//! xPRF — the small extra register file holding the values of in-flight
//! eliminated loads (§6.3).
//!
//! Writing eliminated-load values to the main PRF would need extra write
//! ports or arbitration; the paper instead uses a dedicated 32-entry file.
//! If no xPRF register is free, the load is simply not eliminated (observed
//! in only ~0.2% of instances with 32 entries).

/// An xPRF slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct XprfSlot(pub u8);

/// The extra physical register file (free-list allocator).
#[derive(Debug, Clone)]
pub struct Xprf {
    free: Vec<u8>,
    capacity: usize,
    /// Allocation attempts that failed because the file was full.
    pub full_misses: u64,
    /// Successful allocations.
    pub allocations: u64,
}

impl Xprf {
    /// Creates an xPRF with `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity <= 256, "xPRF slots are u8-indexed");
        Xprf {
            free: (0..capacity as u8).rev().collect(),
            capacity,
            full_misses: 0,
            allocations: 0,
        }
    }

    /// Allocates a register for an eliminated load's value.
    pub fn alloc(&mut self) -> Option<XprfSlot> {
        match self.free.pop() {
            Some(s) => {
                self.allocations += 1;
                Some(XprfSlot(s))
            }
            None => {
                self.full_misses += 1;
                None
            }
        }
    }

    /// Frees a register at retirement (or squash) of its eliminated load.
    ///
    /// # Panics
    /// Panics on double-free in debug builds.
    pub fn free(&mut self, slot: XprfSlot) {
        debug_assert!(
            !self.free.contains(&slot.0),
            "xPRF double free of slot {}",
            slot.0
        );
        self.free.push(slot.0);
    }

    /// Registers currently in use.
    pub fn in_use(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut x = Xprf::new(2);
        let a = x.alloc().unwrap();
        let b = x.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(x.in_use(), 2);
        assert!(x.alloc().is_none(), "full file refuses");
        assert_eq!(x.full_misses, 1);
        x.free(a);
        assert!(x.alloc().is_some());
    }

    #[test]
    fn all_slots_distinct() {
        let mut x = Xprf::new(32);
        let mut seen = std::collections::HashSet::new();
        while let Some(s) = x.alloc() {
            assert!(seen.insert(s.0));
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    #[cfg(debug_assertions)] // the guard is a debug_assert
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut x = Xprf::new(4);
        let s = x.alloc().unwrap();
        x.free(s);
        x.free(s);
    }
}
