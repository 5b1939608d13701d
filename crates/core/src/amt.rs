//! Address Monitor Table (AMT) — §6.1, §6.4.3–6.4.4, §6.6.
//!
//! A physical-address-indexed set-associative table; each entry holds the
//! PCs of currently-eliminated loads fetching from that address. A store's
//! generated address or an incoming snoop probes the AMT, resets the listed
//! PCs' `can_eliminate` flags in the SLD, and evicts the entry (Condition 2
//! enforcement). Indexed at cacheline granularity by default; the
//! full-address variant (§6.6) matches stores exactly (snoops, which only
//! carry a line address, always match at line granularity).

use crate::config::ConstableConfig;

const LINE_SHIFT: u32 = 6;

#[derive(Debug, Clone, Default)]
struct AmtEntry {
    valid: bool,
    /// Full address in full-address mode; used for store matching.
    addr: u64,
    pcs: Vec<u64>,
    lru: u64,
}

/// The Address Monitor Table.
#[derive(Debug, Clone)]
pub struct Amt {
    sets: usize,
    ways: usize,
    pcs_per_entry: usize,
    full_address: bool,
    entries: Vec<AmtEntry>,
    clock: u64,
}

impl Amt {
    /// Creates an AMT per the configuration.
    pub fn new(cfg: &ConstableConfig) -> Self {
        Amt {
            sets: cfg.amt_sets,
            ways: cfg.amt_ways,
            pcs_per_entry: cfg.amt_pcs_per_entry,
            full_address: cfg.amt_full_address,
            entries: vec![AmtEntry::default(); cfg.amt_sets * cfg.amt_ways],
            clock: 0,
        }
    }

    /// The granularity key the AMT indexes on.
    fn key(&self, addr: u64) -> u64 {
        if self.full_address {
            addr
        } else {
            addr >> LINE_SHIFT
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key as usize) & (self.sets - 1)
    }

    fn find(&self, key: u64) -> Option<usize> {
        let set = self.set_of(key);
        (0..self.ways)
            .map(|w| set * self.ways + w)
            .find(|&i| self.entries[i].valid && self.key(self.entries[i].addr) == key)
    }

    /// Inserts `load_pc` as a watcher of `addr` (Fig 8 step 5).
    ///
    /// Returns PCs whose elimination must be reset because they lost
    /// monitoring: either the PCs of a victim entry (set conflict) or a PC
    /// displaced from a full entry list.
    pub fn insert(&mut self, addr: u64, load_pc: u64) -> Vec<u64> {
        self.clock += 1;
        let clock = self.clock;
        let key = self.key(addr);
        if let Some(i) = self.find(key) {
            let pcs_per_entry = self.pcs_per_entry;
            let e = &mut self.entries[i];
            e.lru = clock;
            if e.pcs.contains(&load_pc) {
                return Vec::new();
            }
            let mut displaced = Vec::new();
            if e.pcs.len() >= pcs_per_entry {
                displaced.push(e.pcs.remove(0));
            }
            e.pcs.push(load_pc);
            return displaced;
        }
        // Allocate: LRU victim.
        let set = self.set_of(key);
        let victim = (0..self.ways)
            .map(|w| set * self.ways + w)
            .min_by_key(|&i| (self.entries[i].valid, self.entries[i].lru))
            .expect("amt set nonempty");
        let old = std::mem::replace(
            &mut self.entries[victim],
            AmtEntry {
                valid: true,
                addr,
                pcs: vec![load_pc],
                lru: clock,
            },
        );
        if old.valid {
            old.pcs
        } else {
            Vec::new()
        }
    }

    /// Probes with a store's generated address (Fig 8 step 9): returns the
    /// watching PCs and evicts the entry. In full-address mode only an exact
    /// address match triggers (stores to other bytes of the line don't).
    pub fn probe_store(&mut self, addr: u64) -> Vec<u64> {
        let key = self.key(addr);
        match self.find(key) {
            Some(i) if !self.full_address || self.entries[i].addr == addr => {
                let e = std::mem::take(&mut self.entries[i]);
                e.pcs
            }
            _ => Vec::new(),
        }
    }

    /// Probes with a snoop's cacheline address (Fig 8 step 10): returns the
    /// watching PCs of every entry on that line and evicts them.
    pub fn probe_snoop(&mut self, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if self.full_address {
            // Entries of one line may live in different sets: scan.
            for e in &mut self.entries {
                if e.valid && e.addr >> LINE_SHIFT == line {
                    out.extend(std::mem::take(e).pcs);
                }
            }
        } else if let Some(i) = self.find(line) {
            out.extend(std::mem::take(&mut self.entries[i]).pcs);
        }
        out
    }

    /// Probes with an evicted L1-D line (Constable-AMT-I variant, App A.3).
    pub fn probe_l1_evict(&mut self, line: u64) -> Vec<u64> {
        self.probe_snoop(line)
    }

    /// Clears the table (context switch / physical remap, §6.7.3).
    pub fn clear(&mut self) {
        self.entries
            .iter_mut()
            .for_each(|e| *e = AmtEntry::default());
    }

    /// Number of valid entries (for stats).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amt() -> Amt {
        Amt::new(&ConstableConfig::paper())
    }

    fn full_amt() -> Amt {
        let cfg = ConstableConfig {
            amt_full_address: true,
            ..ConstableConfig::paper()
        };
        Amt::new(&cfg)
    }

    #[test]
    fn store_probe_returns_watchers_and_evicts() {
        let mut a = amt();
        a.insert(0x8000, 0x400);
        a.insert(0x8008, 0x500); // same line
        let pcs = a.probe_store(0x8010); // same line, other bytes
        assert_eq!(
            pcs,
            vec![0x400, 0x500],
            "line-granular AMT matches the line"
        );
        assert!(
            a.probe_store(0x8000).is_empty(),
            "entry evicted after probe"
        );
    }

    #[test]
    fn full_address_mode_ignores_same_line_different_byte() {
        let mut a = full_amt();
        a.insert(0x8000, 0x400);
        assert!(
            a.probe_store(0x8010).is_empty(),
            "full-address AMT must not false-positive within the line"
        );
        assert_eq!(a.probe_store(0x8000), vec![0x400]);
    }

    #[test]
    fn snoop_probe_matches_lines_in_both_modes() {
        for mut a in [amt(), full_amt()] {
            a.insert(0x8000, 0x400);
            a.insert(0x8038, 0x500);
            let mut pcs = a.probe_snoop(0x8000 >> 6);
            pcs.sort_unstable();
            assert_eq!(pcs, vec![0x400, 0x500]);
            assert_eq!(a.occupancy(), 0);
        }
    }

    #[test]
    fn entry_pc_list_displacement_is_reported() {
        let mut a = amt();
        let mut displaced = Vec::new();
        for i in 0..6u64 {
            displaced.extend(a.insert(0x9000, 0x400 + i * 4));
        }
        assert_eq!(displaced, vec![0x400, 0x404], "4-PC entry displaces oldest");
    }

    #[test]
    fn set_conflict_reports_victim_watchers() {
        let mut a = amt();
        // 32 sets at line granularity: addresses 64*32 apart collide.
        let stride = 64 * 32;
        let mut victims = Vec::new();
        for i in 0..9u64 {
            victims.extend(a.insert(0x10_0000 + i * stride, 0x400 + i * 4));
        }
        assert_eq!(
            victims,
            vec![0x400],
            "9th insert into 8-way set evicts first"
        );
    }

    #[test]
    fn duplicate_watcher_not_added_twice() {
        let mut a = amt();
        a.insert(0x8000, 0x400);
        a.insert(0x8000, 0x400);
        assert_eq!(a.probe_store(0x8000), vec![0x400]);
    }

    #[test]
    fn clear_empties_table() {
        let mut a = amt();
        a.insert(0x8000, 0x400);
        a.clear();
        assert_eq!(a.occupancy(), 0);
    }
}
