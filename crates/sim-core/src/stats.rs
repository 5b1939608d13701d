//! Core statistics: every counter a paper figure needs.
//!
//! Each counter is declared once, in the `core_stats!` list below, which
//! generates the [`CoreStats`] struct, its `Default` and the
//! [`CoreStats::counters`] / [`CoreStats::counters_mut`] accessors that
//! the digest and the store's payload codec walk. Adding a counter is one
//! line, and its group decides whether [`crate::SimResult::stats_digest`]
//! covers it:
//!
//! * `digested` — folded into the digest in list order, so adding one
//!   moves every committed `stats:` golden column (a re-bless);
//! * `kept_out` — carried and persisted but not digested, so adding one
//!   moves no golden.
//!
//! Either way the payload layout changes, which needs a
//! `PAYLOAD_VERSION` bump in `experiments::persist`. Fields that are not
//! plain counters (the histogram, the engine's own counters, the per-PC
//! maps) sit in the `other` group with their default value, and the codec
//! names them.

use constable::ConstableStats;
use sim_stats::Histogram;
use std::collections::HashMap;

/// What capped a simulated cycle: that it did work, or the blocker that
/// kept it idle.
///
/// Classification is a pure function of the core's frozen state, so a span
/// of idle cycles the event-driven fast-forward skips classifies exactly as
/// the same cycles executed one by one — the shortcut-validation tests rely
/// on this to compare shortcut-enabled and shortcut-disabled runs.
///
/// Under SMT2 a class describes the whole core with the dominant blocker
/// winning: a cycle is [`StallClass::Memory`] when *any* thread's oldest
/// unretired µop is an issued load (the DRAM-bound sibling gates how long
/// the core idles, regardless of what the other thread waits on), and the
/// window counts as empty only when *every* thread's is. The per-thread
/// disjunction keeps classification span-constant, so SMT2 fast-forward
/// spans bulk-record exactly like single-thread ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StallClass {
    /// Some phase did work this cycle (fetched, renamed, issued, completed,
    /// retired, or flushed something).
    Active = 0,
    /// Rename is stalled waiting out SLD write-port pressure.
    RenameBlocked = 1,
    /// The oldest unretired µop (of any thread, under SMT) is an issued
    /// load still in the memory hierarchy.
    Memory = 2,
    /// The oldest unretired µop is issued (non-load) or waiting on
    /// producers/ports: backend execution latency.
    Execution = 3,
    /// The window is empty (every thread's, under SMT) and fetch is riding
    /// out a redirect.
    FetchRedirect = 4,
    /// The window is empty and the front end delivered nothing.
    FrontEnd = 5,
}

impl StallClass {
    /// Number of classes (array sizing).
    pub const COUNT: usize = 6;
}

/// The words of a counter field: one `u64`, or a fixed stack of them.
trait Words {
    const WORDS: usize;
    fn words(&self) -> &[u64];
    fn words_mut(&mut self) -> &mut [u64];
}

impl Words for u64 {
    const WORDS: usize = 1;
    fn words(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    fn words_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
}

impl<const N: usize> Words for [u64; N] {
    const WORDS: usize = N;
    fn words(&self) -> &[u64] {
        self
    }
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

macro_rules! core_stats {
    (
        digested { $($(#[$dm:meta])* $d:ident: $dt:ty,)* }
        kept_out { $($(#[$km:meta])* $k:ident: $kt:ty,)* }
        other { $($(#[$om:meta])* $o:ident: $ot:ty = $ov:expr,)* }
    ) => {
        /// Aggregate statistics of one simulation run.
        #[derive(Debug, Clone, PartialEq)]
        pub struct CoreStats {
            $($(#[$dm])* pub $d: $dt,)*
            $($(#[$km])* pub $k: $kt,)*
            $($(#[$om])* pub $o: $ot,)*
        }

        impl Default for CoreStats {
            fn default() -> Self {
                CoreStats {
                    $($d: Default::default(),)*
                    $($k: Default::default(),)*
                    $($o: $ov,)*
                }
            }
        }

        impl CoreStats {
            /// Length of the prefix of [`CoreStats::counters`] that
            /// [`crate::SimResult::stats_digest`] folds: the `digested`
            /// group.
            pub const DIGESTED: usize = 0 $(+ <$dt as Words>::WORDS)*;

            /// Every counter in declaration order, the digested group
            /// first; an array counter yields its elements in index order.
            pub fn counters(&self) -> impl Iterator<Item = u64> + '_ {
                [$(self.$d.words(),)* $(self.$k.words(),)*]
                    .into_iter()
                    .flatten()
                    .copied()
            }

            /// Mutable access to the words of [`CoreStats::counters`], in
            /// the same order.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(self.$d.words_mut(),)* $(self.$k.words_mut(),)*]
                    .into_iter()
                    .flatten()
            }
        }
    };
}

core_stats! {
    digested {
        // Progress.
        cycles: u64,
        retired: u64,
        retired_loads: u64,
        retired_stores: u64,
        retired_branches: u64,

        // Front end.
        fetched: u64,
        fetched_wrong_path: u64,
        branch_mispredicts: u64,

        // Allocation (Fig 18a, Fig 21b).
        rob_allocs: u64,
        rs_allocs: u64,
        lb_allocs: u64,
        sb_allocs: u64,

        // Issue/port occupancy (Fig 6).
        load_utilized_cycles: u64,
        /// Load-utilized cycles where a global-stable load held a port while a
        /// non-global-stable load was ready and waiting for one.
        load_cycles_stable_blocking: u64,
        /// Load-utilized cycles where a global-stable load held a port with no
        /// non-stable load waiting.
        load_cycles_stable_free: u64,
        loads_issued: u64,
        agu_uses: u64,
        alu_execs: u64,

        // Value speculation.
        vp_used: u64,
        vp_wrong: u64,
        mrn_forwarded: u64,
        mrn_wrong: u64,

        // Constable (Figs 9, 11–17, 21–22).
        loads_eliminated: u64,
        elim_violations: u64,

        // Memory disambiguation (Fig 21).
        ordering_violations: u64,

        // Golden functional check (§8.5): must be zero.
        golden_mismatches: u64,

        // Memory events forwarded from the hierarchy (power model, Fig 18b);
        // `l1d_accesses` also bills the DTLB.
        l1d_accesses: u64,
        l2_accesses: u64,
        dram_accesses: u64,
        snoops_delivered: u64,

        // Constable's structures: per-unit events (power model) and SLD
        // port stalls at rename.
        sld_reads: u64,
        sld_writes: u64,
        amt_probes: u64,
        cv_pins: u64,
        rename_stalls_sld_read: u64,
        rename_stalls_sld_write: u64,

        // Prior works (Fig 15) and the remaining per-unit counts.
        elar_resolved: u64,
        rfp_address_hits: u64,
        eves_lookups: u64,
        decoded: u64,
        renamed: u64,
    }
    kept_out {
        /// Arming requests suppressed by the writeback-time monitoring-gap
        /// guard (a younger register writer or overlapping store slipped in
        /// between the load's rename and its writeback).
        arm_guard_blocked: u64,
        /// Cycles per [`StallClass`] (index = discriminant), classified every
        /// cycle with or without a tracer; sums to `cycles`.
        stall_cycles: [u64; StallClass::COUNT],
    }
    other {
        sld_updates_per_cycle: Histogram = Histogram::new(&[1, 2, 3, 4]),
        /// The Constable engine's own counters at the end of the run (all zero
        /// without Constable). Not folded into `SimResult::stats_digest`.
        constable: ConstableStats = ConstableStats::default(),
        /// Per static load PC: (eliminated instances, total instances).
        /// Populated only when `CoreConfig::track_per_pc` is set.
        per_pc_loads: HashMap<u64, (u64, u64)> = HashMap::new(),
        /// Per static load PC: value mispredictions (track_per_pc only).
        vp_wrong_pcs: HashMap<u64, u64> = HashMap::new(),
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

    #[test]
    fn counters_walk_the_declared_list_in_order() {
        let mut s = CoreStats::default();
        for (i, w) in s.counters_mut().enumerate() {
            *w = i as u64 + 1;
        }
        let words: Vec<u64> = s.counters().collect();
        assert_eq!(words, (1..=words.len() as u64).collect::<Vec<_>>());
        // The digested prefix, then `arm_guard_blocked`, then the stack.
        assert_eq!(CoreStats::DIGESTED, 41);
        assert_eq!(words.len(), CoreStats::DIGESTED + 1 + StallClass::COUNT);
        assert_eq!((s.cycles, s.renamed), (1, 41));
        assert_eq!(s.arm_guard_blocked, 42);
        assert_eq!(s.stall_cycles, [43, 44, 45, 46, 47, 48]);
    }
}
