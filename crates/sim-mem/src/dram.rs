//! DDR4-like main-memory model (Table 2: 4 channels, 2 ranks/channel,
//! 8 banks/rank, 2 KB row buffer, tCAS = tRCD = tRP = 22 ns at 3.2 GHz).

use sim_stats::Counter;

/// DRAM timing/geometry parameters, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    pub channels: usize,
    pub ranks: usize,
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Column access latency (row-buffer hit), cycles.
    pub t_cas: u64,
    /// Activate latency, cycles.
    pub t_rcd: u64,
    /// Precharge latency, cycles.
    pub t_rp: u64,
    /// Data-bus occupancy per access, cycles (64B over a 64-bit DDR bus).
    pub t_bus: u64,
}

impl DramConfig {
    /// Appends the stable on-disk key encoding of every field to `out`
    /// (little-endian, declaration order), for the result-store key format.
    /// Exhaustive destructuring: adding a field breaks this at compile time.
    pub fn stable_encode(&self, out: &mut Vec<u8>) {
        let DramConfig {
            channels,
            ranks,
            banks,
            row_bytes,
            t_cas,
            t_rcd,
            t_rp,
            t_bus,
        } = self;
        for v in [
            *channels as u64,
            *ranks as u64,
            *banks as u64,
            *row_bytes,
            *t_cas,
            *t_rcd,
            *t_rp,
            *t_bus,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        // 22 ns at 3.2 GHz ≈ 70 cycles.
        DramConfig {
            channels: 4,
            ranks: 2,
            banks: 8,
            row_bytes: 2048,
            t_cas: 70,
            t_rcd: 70,
            t_rp: 70,
            t_bus: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// Divide/modulo helper that lowers to shift/mask when the divisor is a
/// power of two (every default geometry parameter is), falling back to the
/// hardware divider otherwise. Address mapping runs once per DRAM access —
/// on memory-bound workloads that is once per simulated miss.
#[derive(Debug, Clone, Copy)]
struct PowMap {
    n: u64,
    mask: u64,
    shift: u32,
    pow2: bool,
}

impl PowMap {
    fn new(n: u64) -> Self {
        let pow2 = n.is_power_of_two();
        PowMap {
            n,
            mask: n.wrapping_sub(1),
            shift: if pow2 { n.trailing_zeros() } else { 0 },
            pow2,
        }
    }

    #[inline]
    fn rem(&self, x: u64) -> u64 {
        if self.pow2 {
            x & self.mask
        } else {
            x % self.n
        }
    }

    #[inline]
    fn div(&self, x: u64) -> u64 {
        if self.pow2 {
            x >> self.shift
        } else {
            x / self.n
        }
    }
}

/// DRAM access statistics.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    pub accesses: Counter,
    pub row_hits: Counter,
    pub row_misses: Counter,
    pub row_conflicts: Counter,
}

/// Bank-aware open-row DRAM latency model.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Precomputed channel / row / bank-in-channel mapping (shift/mask).
    ch_map: PowMap,
    row_map: PowMap,
    bank_map: PowMap,
    per_channel: usize,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM model from `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        let per_channel = cfg.ranks * cfg.banks;
        let n = cfg.channels * per_channel;
        Dram {
            cfg,
            banks: vec![Bank::default(); n],
            ch_map: PowMap::new(cfg.channels as u64),
            row_map: PowMap::new(cfg.row_bytes),
            bank_map: PowMap::new(per_channel as u64),
            per_channel,
            stats: DramStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Closes every row, idles every bank and zeroes the statistics: the
    /// state [`Dram::new`] builds.
    pub fn reset(&mut self) {
        self.banks.fill(Bank::default());
        self.stats = DramStats::default();
    }

    #[inline]
    fn map(&self, addr: u64) -> (usize, u64) {
        // Channel and rank/bank interleave on line and row bits respectively.
        let line = addr / 64;
        let channel = self.ch_map.rem(line) as usize;
        let row = self.row_map.div(addr);
        let bank_in_channel = self.bank_map.rem(row) as usize;
        (channel * self.per_channel + bank_in_channel, row)
    }

    /// Returns the access latency for `addr` starting at cycle `now`,
    /// updating bank state.
    pub fn access(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.accesses.inc();
        let (bank_idx, row) = self.map(addr);
        let cfg = self.cfg;
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.busy_until);
        let queue_wait = start - now;
        let service = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits.inc();
                cfg.t_cas
            }
            Some(_) => {
                self.stats.row_conflicts.inc();
                cfg.t_rp + cfg.t_rcd + cfg.t_cas
            }
            None => {
                self.stats.row_misses.inc();
                cfg.t_rcd + cfg.t_cas
            }
        };
        bank.open_row = Some(row);
        bank.busy_until = start + service.min(cfg.t_cas) + cfg.t_bus;
        queue_wait + service + cfg.t_bus
    }
}

impl Default for Dram {
    fn default() -> Self {
        Self::new(DramConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_faster_than_row_conflict() {
        let mut d = Dram::default();
        let first = d.access(0x10_0000, 0);
        let hit = d.access(0x10_0008, first); // same row
        let conflict = d.access(0x10_0000 + 4 * 2048 * 16, first + hit); // same bank, other row
        assert!(hit < first, "open-row hit beats first access");
        assert!(conflict > hit, "row conflict pays precharge+activate");
    }

    #[test]
    fn busy_bank_queues_requests() {
        let mut d = Dram::default();
        let l1 = d.access(0x2000, 0);
        // Immediately hit the same bank again: must wait for the bus/bank.
        let l2 = d.access(0x2000, 0);
        assert!(
            l2 > l1 - DramConfig::default().t_rcd,
            "second access sees queueing"
        );
        assert_eq!(d.stats().accesses.get(), 2);
    }

    #[test]
    fn different_channels_do_not_queue() {
        let mut d = Dram::default();
        let a = d.access(0, 0);
        let b = d.access(64, 0); // next line → different channel
        assert_eq!(a, b);
    }

    #[test]
    fn pow2_fast_map_matches_generic_division() {
        // Same access stream through a power-of-two geometry (shift/mask
        // path) and the reference computation.
        let cfg = DramConfig::default();
        let d = Dram::new(cfg);
        let mut x = 7u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = x % (1 << 30);
            let (bank, row) = d.map(addr);
            let line = addr / 64;
            let per_channel = cfg.ranks * cfg.banks;
            let want_bank = (line as usize % cfg.channels) * per_channel
                + (addr / cfg.row_bytes) as usize % per_channel;
            assert_eq!(bank, want_bank);
            assert_eq!(row, addr / cfg.row_bytes);
        }
    }

    #[test]
    fn non_pow2_geometry_still_maps_in_range() {
        let cfg = DramConfig {
            channels: 3,
            banks: 6,
            ..DramConfig::default()
        };
        let mut d = Dram::new(cfg);
        let banks = cfg.channels * cfg.ranks * cfg.banks;
        let mut x = 13u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (bank, _) = d.map(x % (1 << 30));
            assert!(bank < banks);
        }
        assert!(d.access(0x1234, 0) > 0);
    }
}
