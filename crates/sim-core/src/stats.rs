//! Core statistics: every counter a paper figure needs.

use constable::ConstableStats;
use sim_stats::Histogram;

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreStats {
    // Progress.
    pub cycles: u64,
    pub retired: u64,
    pub retired_loads: u64,
    pub retired_stores: u64,
    pub retired_branches: u64,

    // Front end.
    pub fetched: u64,
    pub fetched_wrong_path: u64,
    pub branch_mispredicts: u64,

    // Allocation (Fig 18a, Fig 21b).
    pub rob_allocs: u64,
    pub rs_allocs: u64,
    pub lb_allocs: u64,
    pub sb_allocs: u64,

    // Issue/port occupancy (Fig 6).
    pub load_utilized_cycles: u64,
    /// Load-utilized cycles where a global-stable load held a port while a
    /// non-global-stable load was ready and waiting for one.
    pub load_cycles_stable_blocking: u64,
    /// Load-utilized cycles where a global-stable load held a port with no
    /// non-stable load waiting.
    pub load_cycles_stable_free: u64,
    pub loads_issued: u64,
    pub agu_uses: u64,

    // Value speculation.
    pub vp_used: u64,
    pub vp_wrong: u64,
    pub mrn_forwarded: u64,
    pub mrn_wrong: u64,

    // Constable (Figs 9, 11–17, 21–22).
    pub loads_eliminated: u64,
    pub elim_violations: u64,
    pub rename_stalls_sld_read: u64,
    pub rename_stalls_sld_write: u64,
    pub sld_updates_per_cycle: Histogram,
    pub cv_pins: u64,
    /// Arming requests suppressed by the writeback-time monitoring-gap
    /// guard (a younger register writer or overlapping store slipped in
    /// between the load's rename and its writeback).
    pub arm_guard_blocked: u64,
    /// The Constable engine's own counters at the end of the run (all zero
    /// without Constable). Not folded into `SimResult::stats_digest`.
    pub constable: ConstableStats,

    // Prior works (Fig 15).
    pub elar_resolved: u64,
    pub rfp_address_hits: u64,

    // Memory disambiguation (Fig 21).
    pub ordering_violations: u64,

    // Golden functional check (§8.5): must be zero.
    pub golden_mismatches: u64,

    // Memory events forwarded from the hierarchy (power model, Fig 18b).
    pub l1d_accesses: u64,
    pub l2_accesses: u64,
    pub dram_accesses: u64,
    pub snoops_delivered: u64,

    /// Per static load PC: (eliminated instances, total instances).
    /// Populated only when `CoreConfig::track_per_pc` is set.
    pub per_pc_loads: std::collections::HashMap<u64, (u64, u64)>,
    /// Per static load PC: value mispredictions (track_per_pc only).
    pub vp_wrong_pcs: std::collections::HashMap<u64, u64>,

    // Per-unit event counts for the power model.
    pub decoded: u64,
    pub renamed: u64,
    pub alu_execs: u64,
    pub dtlb_accesses: u64,
    pub sld_reads: u64,
    pub sld_writes: u64,
    pub amt_probes: u64,
    pub eves_lookups: u64,
}

impl Default for CoreStats {
    fn default() -> Self {
        CoreStats {
            cycles: 0,
            retired: 0,
            retired_loads: 0,
            retired_stores: 0,
            retired_branches: 0,
            fetched: 0,
            fetched_wrong_path: 0,
            branch_mispredicts: 0,
            rob_allocs: 0,
            rs_allocs: 0,
            lb_allocs: 0,
            sb_allocs: 0,
            load_utilized_cycles: 0,
            load_cycles_stable_blocking: 0,
            load_cycles_stable_free: 0,
            loads_issued: 0,
            agu_uses: 0,
            vp_used: 0,
            vp_wrong: 0,
            mrn_forwarded: 0,
            mrn_wrong: 0,
            loads_eliminated: 0,
            elim_violations: 0,
            rename_stalls_sld_read: 0,
            rename_stalls_sld_write: 0,
            sld_updates_per_cycle: Histogram::new(&[1, 2, 3, 4]),
            cv_pins: 0,
            arm_guard_blocked: 0,
            constable: ConstableStats::default(),
            elar_resolved: 0,
            rfp_address_hits: 0,
            ordering_violations: 0,
            golden_mismatches: 0,
            per_pc_loads: std::collections::HashMap::new(),
            vp_wrong_pcs: std::collections::HashMap::new(),
            l1d_accesses: 0,
            l2_accesses: 0,
            dram_accesses: 0,
            snoops_delivered: 0,
            decoded: 0,
            renamed: 0,
            alu_execs: 0,
            dtlb_accesses: 0,
            sld_reads: 0,
            sld_writes: 0,
            amt_probes: 0,
            eves_lookups: 0,
        }
    }
}

impl CoreStats {
    /// Instructions per cycle over the run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Fraction of retired loads whose execution Constable eliminated.
    pub fn elimination_coverage(&self) -> f64 {
        if self.retired_loads == 0 {
            0.0
        } else {
            self.loads_eliminated as f64 / self.retired_loads as f64
        }
    }

    /// Fraction of retired loads that consumed a used value prediction.
    pub fn vp_coverage(&self) -> f64 {
        if self.retired_loads == 0 {
            0.0
        } else {
            self.vp_used as f64 / self.retired_loads as f64
        }
    }

    /// Union coverage: loads either eliminated or value-predicted (Fig 16).
    pub fn combined_coverage(&self) -> f64 {
        if self.retired_loads == 0 {
            0.0
        } else {
            (self.loads_eliminated + self.vp_used) as f64 / self.retired_loads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_safe_on_empty_run() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn coverage_ratios() {
        let s = CoreStats {
            retired_loads: 100,
            loads_eliminated: 23,
            vp_used: 27,
            ..CoreStats::default()
        };
        assert!((s.elimination_coverage() - 0.23).abs() < 1e-12);
        assert!((s.vp_coverage() - 0.27).abs() < 1e-12);
        assert!((s.combined_coverage() - 0.50).abs() < 1e-12);
    }
}
