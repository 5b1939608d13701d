//! Structured simulation faults (§8.5 verification as data, not aborts).
//!
//! A simulation that diverges from its functional execution, wedges, or
//! overruns its cycle budget used to kill the whole process via
//! `assert!`/`panic!` at the first caller that noticed. This module turns
//! those conditions into values: the core records the *first* golden
//! divergence with full forensics ([`GoldenMismatch`]), the forward-progress
//! watchdog freezes the machine state it aborted ([`FrozenSnapshot`]), and
//! [`crate::SimResult::verify`] folds everything into one [`SimError`] the
//! experiments harness can quarantine per cell instead of dying.
//!
//! All capture paths are cold: the mismatch record is written at most once
//! per run (on the first failing retire), and the watchdog is a per-cycle
//! `Option` test that is `None` in every golden/benchmark configuration.

/// Forensics of the first §8.5 golden-check divergence of a run: the
/// retiring load whose (address, value) did not match the functional
/// execution, with both sides of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenMismatch {
    /// Hardware thread of the diverging load.
    pub thread: usize,
    /// Dynamic sequence number (per thread, correct path).
    pub seq: u64,
    /// Thread-tagged PC of the load.
    pub pc: u64,
    /// Address the pipeline retired with.
    pub addr: u64,
    /// Address the functional execution computed.
    pub expect_addr: u64,
    /// Value the pipeline retired with.
    pub value: u64,
    /// Value the functional execution loaded.
    pub expect_value: u64,
    /// Whether Constable eliminated this instance (the only source of
    /// divergent values: executed loads take theirs from the functional
    /// record).
    pub eliminated: bool,
    /// Cycle the load retired (and the divergence was detected).
    pub cycle: u64,
}

impl std::fmt::Display for GoldenMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "load pc={:#x} t{} seq={} at cycle {}: addr {:#x} vs functional {:#x}, \
             value {:#x} vs functional {:#x}{}",
            self.pc,
            self.thread,
            self.seq,
            self.cycle,
            self.addr,
            self.expect_addr,
            self.value,
            self.expect_value,
            if self.eliminated {
                " (Constable-eliminated)"
            } else {
                ""
            }
        )
    }
}

/// Machine state frozen by the forward-progress watchdog when no thread
/// retired anything for the configured budget
/// ([`crate::CoreConfig::watchdog_no_retire`]) and it aborted the run:
/// enough to tell *where* the pipeline stopped without keeping the whole
/// core alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenSnapshot {
    /// Cycle the watchdog fired.
    pub cycle: u64,
    /// Cycle of the last retirement (any thread).
    pub last_retire_cycle: u64,
    /// Instructions retired per thread at the freeze.
    pub retired_per_thread: Vec<u64>,
    /// ROB occupancy per thread at the freeze.
    pub rob_occupancy: Vec<usize>,
    /// Per thread: PC and state discriminant of the ROB head, if any.
    pub rob_head: Vec<Option<(u64, &'static str)>>,
    /// Next pending time-gated event, if any (a wedge with no event can
    /// only spin; one *with* an event is livelocked past the budget).
    pub next_event: Option<u64>,
}

impl std::fmt::Display for FrozenSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no retirement for {} cycles (frozen at cycle {}; retired {:?}; rob {:?}; heads {:?}; next event {:?})",
            self.cycle - self.last_retire_cycle,
            self.cycle,
            self.retired_per_thread,
            self.rob_occupancy,
            self.rob_head,
            self.next_event,
        )
    }
}

/// A structured simulation failure, produced by [`crate::SimResult::verify`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The §8.5 golden functional check failed `count` times; `first`
    /// carries the forensics of the earliest divergence.
    GoldenMismatch {
        count: u64,
        first: Option<GoldenMismatch>,
    },
    /// The run overran the generous cycle guard without reaching its
    /// retirement target.
    CycleGuard {
        cycle: u64,
        retired_per_thread: Vec<u64>,
    },
    /// The forward-progress watchdog aborted the run.
    Watchdog(FrozenSnapshot),
}

impl SimError {
    /// Short stable label for tables and exit-code mapping.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::GoldenMismatch { .. } => "golden-mismatch",
            SimError::CycleGuard { .. } => "cycle-guard",
            SimError::Watchdog(_) => "watchdog",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::GoldenMismatch { count, first } => {
                write!(f, "golden functional check failed ({count} mismatches")?;
                match first {
                    Some(m) => write!(f, "; first: {m})"),
                    None => write!(f, ")"),
                }
            }
            SimError::CycleGuard {
                cycle,
                retired_per_thread,
            } => write!(
                f,
                "cycle guard tripped at cycle {cycle} (retired {retired_per_thread:?})"
            ),
            SimError::Watchdog(snap) => write!(f, "watchdog abort: {snap}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_forensics() {
        let m = GoldenMismatch {
            thread: 0,
            seq: 42,
            pc: 0x400,
            addr: 0x8000,
            expect_addr: 0x8000,
            value: 7,
            expect_value: 9,
            eliminated: true,
            cycle: 1234,
        };
        let e = SimError::GoldenMismatch {
            count: 3,
            first: Some(m),
        };
        let s = e.to_string();
        assert!(s.contains("3 mismatches"), "{s}");
        assert!(s.contains("0x400"), "{s}");
        assert!(s.contains("Constable-eliminated"), "{s}");
        assert_eq!(e.kind(), "golden-mismatch");
    }

    #[test]
    fn watchdog_display_names_the_stall() {
        let e = SimError::Watchdog(FrozenSnapshot {
            cycle: 60_000,
            last_retire_cycle: 10_000,
            retired_per_thread: vec![123],
            rob_occupancy: vec![512],
            rob_head: vec![Some((0x400, "Waiting"))],
            next_event: None,
        });
        let s = e.to_string();
        assert!(s.contains("no retirement for 50000 cycles"), "{s}");
        assert_eq!(e.kind(), "watchdog");
    }
}
