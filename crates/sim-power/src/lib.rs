//! # sim-power — event-based core dynamic power model
//!
//! Substitute for the paper's RTL-validated internal power model (§8.2):
//! dynamic energy is accumulated per microarchitectural event (fetch,
//! rename, RS allocation, ALU execution, L1-D access, …) and divided by run
//! time to give power. The core breakdown follows the paper's reporting
//! units — FE, OOO (RS / RAT / ROB), EU, MEU (L1-D / DTLB), Others — and,
//! as in §8.2, Constable's SLD and RMT energy is reported inside the RAT
//! component while AMT energy is reported inside L1-D.
//!
//! Constable's structure energies are the paper's Table 3 numbers (CACTI
//! 7.0 at 22 nm scaled to 14 nm); [`cacti`] provides the analytic estimator
//! used for sweeps over non-paper geometries.

pub mod cacti;

use sim_core::CoreStats;

/// Per-event dynamic energies (pJ) and implicit unit structure.
///
/// Absolute values are plausible 14 nm-class estimates; every result in the
/// evaluation is reported *normalized to the baseline*, which is robust to
/// absolute calibration error.
#[derive(Debug, Clone, Copy)]
pub struct EnergyParams {
    pub fetch_pj: f64,
    pub decode_pj: f64,
    pub rat_pj: f64,
    pub rs_alloc_pj: f64,
    pub rs_wakeup_pj: f64,
    pub rob_alloc_pj: f64,
    pub rob_retire_pj: f64,
    pub alu_pj: f64,
    pub agu_pj: f64,
    pub l1d_pj: f64,
    pub dtlb_pj: f64,
    pub background_pj_per_cycle: f64,
    /// EVES is a 32 KB predictor (CVP-1 budget track).
    pub eves_access_pj: f64,
    // Constable structures — Table 3, exact.
    pub sld_read_pj: f64,
    pub sld_write_pj: f64,
    pub rmt_access_pj: f64,
    pub amt_read_pj: f64,
    pub amt_write_pj: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            fetch_pj: 9.0,
            decode_pj: 6.0,
            rat_pj: 4.0,
            rs_alloc_pj: 6.5,
            rs_wakeup_pj: 4.0,
            rob_alloc_pj: 3.5,
            rob_retire_pj: 2.0,
            alu_pj: 8.0,
            agu_pj: 4.0,
            l1d_pj: 22.0,
            dtlb_pj: 4.0,
            background_pj_per_cycle: 14.0,
            eves_access_pj: 13.0,
            sld_read_pj: cacti::TABLE3_SLD.read_pj,
            sld_write_pj: cacti::TABLE3_SLD.write_pj,
            rmt_access_pj: cacti::TABLE3_RMT.read_pj,
            amt_read_pj: cacti::TABLE3_AMT.read_pj,
            amt_write_pj: cacti::TABLE3_AMT.write_pj,
        }
    }
}

/// Core clock used to convert leakage power into energy (Table 2: 3.2 GHz).
pub const CORE_GHZ: f64 = 3.2;

/// Dynamic energy breakdown of one run, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    pub fe: f64,
    pub ooo_rs: f64,
    pub ooo_rat: f64,
    pub ooo_rob: f64,
    pub eu: f64,
    pub meu_l1d: f64,
    pub meu_dtlb: f64,
    pub others: f64,
}

impl PowerBreakdown {
    /// Total OOO-unit energy (RS + RAT + ROB).
    pub fn ooo(&self) -> f64 {
        self.ooo_rs + self.ooo_rat + self.ooo_rob
    }

    /// Total MEU energy (L1-D + DTLB).
    pub fn meu(&self) -> f64 {
        self.meu_l1d + self.meu_dtlb
    }

    /// Total core dynamic energy.
    pub fn total(&self) -> f64 {
        self.fe + self.ooo() + self.eu + self.meu() + self.others
    }

    /// Average power in watts given the run length in cycles.
    pub fn watts(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let seconds = cycles as f64 / (CORE_GHZ * 1e9);
        self.total() * 1e-9 / seconds
    }
}

/// Which optional units were active (their energy must be accounted).
#[derive(Debug, Clone, Copy, Default)]
pub struct ActiveUnits {
    pub constable: bool,
    pub eves: bool,
}

/// Computes the dynamic-energy breakdown of a run from its event counts.
pub fn core_energy(stats: &CoreStats, units: ActiveUnits, p: &EnergyParams) -> PowerBreakdown {
    let f = |c: u64| c as f64;
    let mut b = PowerBreakdown {
        fe: f(stats.fetched + stats.fetched_wrong_path) * p.fetch_pj
            + f(stats.decoded) * p.decode_pj,
        ooo_rs: f(stats.rs_allocs) * (p.rs_alloc_pj + p.rs_wakeup_pj),
        ooo_rat: f(stats.renamed) * p.rat_pj,
        ooo_rob: f(stats.rob_allocs) * p.rob_alloc_pj + f(stats.retired) * p.rob_retire_pj,
        eu: f(stats.alu_execs) * p.alu_pj + f(stats.agu_uses) * p.agu_pj,
        meu_l1d: f(stats.l1d_accesses) * p.l1d_pj,
        // Every L1-D access translates through the DTLB.
        meu_dtlb: f(stats.l1d_accesses) * p.dtlb_pj,
        others: f(stats.cycles) * p.background_pj_per_cycle,
    };
    if units.constable {
        // §8.2: SLD + RMT reported under RAT, AMT under L1-D.
        let sld_writes = stats.sld_writes + (stats.retired_loads - stats.loads_eliminated);
        b.ooo_rat += f(stats.sld_reads) * p.sld_read_pj
            + f(sld_writes) * p.sld_write_pj
            + f(stats.sld_writes) * p.rmt_access_pj;
        b.meu_l1d += f(stats.amt_probes) * (p.amt_read_pj + p.amt_write_pj) / 2.0;
        // Structure leakage.
        let seconds = stats.cycles as f64 / (CORE_GHZ * 1e9);
        let leak_nj =
            (cacti::TABLE3_SLD.leak_mw + cacti::TABLE3_RMT.leak_mw + cacti::TABLE3_AMT.leak_mw)
                * 1e-3
                * seconds
                * 1e9;
        b.others += leak_nj;
    }
    if units.eves {
        b.others += f(stats.eves_lookups + stats.retired_loads) * p.eves_access_pj;
    }
    // Convert pJ → nJ.
    b.fe /= 1000.0;
    b.ooo_rs /= 1000.0;
    b.ooo_rat /= 1000.0;
    b.ooo_rob /= 1000.0;
    b.eu /= 1000.0;
    b.meu_l1d /= 1000.0;
    b.meu_dtlb /= 1000.0;
    b.others /= 1000.0;
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rs: u64, l1: u64, cycles: u64) -> CoreStats {
        CoreStats {
            cycles,
            retired: 1000,
            retired_loads: 300,
            fetched: 1100,
            decoded: 1100,
            renamed: 1100,
            rs_allocs: rs,
            rob_allocs: 1100,
            alu_execs: 600,
            agu_uses: 350,
            l1d_accesses: l1,
            ..CoreStats::default()
        }
    }

    #[test]
    fn fewer_rs_allocs_and_l1_accesses_reduce_energy() {
        let p = EnergyParams::default();
        let base = core_energy(&stats(1000, 400, 500), ActiveUnits::default(), &p);
        let opt = core_energy(&stats(900, 300, 480), ActiveUnits::default(), &p);
        assert!(opt.total() < base.total());
        assert!(opt.ooo_rs < base.ooo_rs);
        assert!(opt.meu_l1d < base.meu_l1d);
    }

    #[test]
    fn constable_structures_add_rat_and_l1_energy() {
        let p = EnergyParams::default();
        let mut s = stats(1000, 400, 500);
        s.sld_reads = 300;
        s.sld_writes = 40;
        s.amt_probes = 50;
        s.loads_eliminated = 100;
        let without = core_energy(&s, ActiveUnits::default(), &p);
        let with = core_energy(
            &s,
            ActiveUnits {
                constable: true,
                eves: false,
            },
            &p,
        );
        assert!(with.ooo_rat > without.ooo_rat);
        assert!(with.meu_l1d > without.meu_l1d);
    }

    #[test]
    fn watts_are_finite_and_positive() {
        let p = EnergyParams::default();
        let b = core_energy(&stats(1000, 400, 500), ActiveUnits::default(), &p);
        let w = b.watts(500);
        assert!(w.is_finite() && w > 0.0, "watts = {w}");
        assert_eq!(b.watts(0), 0.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = EnergyParams::default();
        let b = core_energy(&stats(1000, 400, 500), ActiveUnits::default(), &p);
        let manual = b.fe + b.ooo() + b.eu + b.meu() + b.others;
        assert!((manual - b.total()).abs() < 1e-9);
    }
}
