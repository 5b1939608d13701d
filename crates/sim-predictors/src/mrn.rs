//! Memory Renaming (MRN) — store→load communication prediction
//! (Tyson & Austin [177], Moshovos & Sohi [120]; baseline feature in §8.1).
//!
//! MRN learns which static store last produced the value a static load
//! consumes. At rename, a confident load is given the *youngest in-flight or
//! recently retired* instance of its producer store's data speculatively,
//! breaking the load's data dependence. The load still executes to verify
//! the forwarded value — which is exactly the resource-dependence limitation
//! Constable removes (§3).

/// Prediction: forward from the given store PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrnPrediction {
    /// The producing store's PC.
    pub store_pc: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct PairEntry {
    load_tag: u32,
    store_pc: u64,
    conf: u8,
}

const CONF_USE: u8 = 4;

/// Writer-table geometry: 64K direct-mapped entries.
const WRITER_BITS: u32 = 16;

/// The MRN predictor: a store-load pair table trained from observed
/// memory dataflow at load execution.
#[derive(Debug, Clone)]
pub struct Mrn {
    pairs: Vec<PairEntry>,
    /// Last store PC to write each address (bounded training helper —
    /// hardware derives this from the store queue / memory cloaking table).
    /// Direct-mapped `(addr + 1, store_pc)` entries: one multiply-hash
    /// index per executed store or load, no per-store heap traffic — the
    /// previous `HashMap` paid SipHash plus growth on every retired store.
    /// The +1 bias makes the all-zero entry mean "empty" (tagged simulator
    /// addresses never wrap), so construction is a zeroing `calloc`
    /// instead of streaming a 1 MiB sentinel pattern per core build.
    last_writer: Vec<(u64, u64)>,
}

impl Mrn {
    /// Creates an MRN predictor with a 1K-entry pair table.
    pub fn new() -> Self {
        Mrn {
            pairs: vec![PairEntry::default(); 1 << 10],
            last_writer: vec![(0, 0); 1 << WRITER_BITS],
        }
    }

    fn idx(&self, load_pc: u64) -> usize {
        (load_pc >> 2) as usize & (self.pairs.len() - 1)
    }

    /// Writer-table slot for `addr` — the same multiply-rotate policy as
    /// `sim-core`'s `FastHasher`, taking the top bits of the product.
    #[inline]
    fn writer_idx(addr: u64) -> usize {
        (addr.wrapping_mul(0x51_7c_c1_b7_27_22_0a_95) >> (64 - WRITER_BITS)) as usize
    }

    /// Records a committed/executed store (trains the dataflow map). A
    /// direct-mapped collision simply forgets the older writer — bounded
    /// loss, exactly like the hardware table this stands in for.
    pub fn on_store(&mut self, store_pc: u64, addr: u64) {
        self.last_writer[Self::writer_idx(addr)] = (addr + 1, store_pc);
    }

    /// Trains on an executed load: associates it with the store that last
    /// wrote its address.
    pub fn on_load(&mut self, load_pc: u64, addr: u64) {
        let (slot_addr, writer) = self.last_writer[Self::writer_idx(addr)];
        if slot_addr != addr + 1 {
            return;
        }
        let idx = self.idx(load_pc);
        let e = &mut self.pairs[idx];
        if e.load_tag == (load_pc >> 2) as u32 {
            if e.store_pc == writer {
                e.conf = (e.conf + 1).min(7);
            } else {
                e.conf = e.conf.saturating_sub(2);
                if e.conf == 0 {
                    e.store_pc = writer;
                }
            }
        } else {
            *e = PairEntry {
                load_tag: (load_pc >> 2) as u32,
                store_pc: writer,
                conf: 1,
            };
        }
    }

    /// Predicts the producer store for the load at `load_pc`, if confident.
    pub fn predict(&self, load_pc: u64) -> Option<MrnPrediction> {
        let e = &self.pairs[self.idx(load_pc)];
        (e.load_tag == (load_pc >> 2) as u32 && e.conf >= CONF_USE).then_some(MrnPrediction {
            store_pc: e.store_pc,
        })
    }
}

impl Default for Mrn {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_stable_store_load_pair() {
        let mut m = Mrn::new();
        for i in 0..16u64 {
            m.on_store(0x100, 0x8000 + i % 2); // same store PC
            m.on_load(0x200, 0x8000 + i % 2);
        }
        let p = m.predict(0x200).expect("pair must be learned");
        assert_eq!(p.store_pc, 0x100);
    }

    #[test]
    fn unrelated_load_is_not_predicted() {
        let m = Mrn::new();
        assert!(m.predict(0xdead).is_none());
    }

    #[test]
    fn alternating_producers_suppress_confidence() {
        let mut m = Mrn::new();
        for i in 0..32u64 {
            let store_pc = if i % 2 == 0 { 0x100 } else { 0x104 };
            m.on_store(store_pc, 0x9000);
            m.on_load(0x200, 0x9000);
        }
        assert!(
            m.predict(0x200).is_none(),
            "flapping producer must not reach confidence"
        );
    }

    #[test]
    fn writer_table_is_fixed_size_and_still_learns_after_pressure() {
        let mut m = Mrn::new();
        // Flood the table with twice its capacity in distinct addresses.
        for a in 0..(1u64 << 17) {
            m.on_store(0x100, a * 8);
        }
        assert_eq!(m.last_writer.len(), 1 << 16, "storage must stay fixed");
        // A live store→load pair still trains through the pressure.
        for _ in 0..16 {
            m.on_store(0x100, 0x9000);
            m.on_load(0x200, 0x9000);
        }
        assert_eq!(m.predict(0x200), Some(MrnPrediction { store_pc: 0x100 }));
    }
}
