//! What one sweep cell is and how figures compare them: the run length,
//! the verified [`RunOutcome`] a cell yields, the watchdog budget every
//! cell runs under, and the geomean speedup of one suite over another.
//! Cells themselves run in [`crate::sweep`], on the session's one pool.

use sim_core::SimResult;
use sim_workload::Category;

/// Forward-progress watchdog budget the harness runs every cell under: a
/// cell in which no thread retires anything for this many cycles aborts
/// with a frozen-state snapshot instead of spinning toward the (much
/// larger) cycle guard. Far above any legitimate stall span — a dependent
/// DRAM-miss chain is a few thousand cycles.
pub const WATCHDOG_BUDGET: u64 = 200_000;

/// How long each run is, in retired instructions per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength(pub u64);

impl RunLength {
    /// Full-length run used for the published numbers.
    pub fn full() -> Self {
        RunLength(150_000)
    }

    /// Short run for smoke tests and `cargo bench`.
    pub fn quick() -> Self {
        RunLength(40_000)
    }
}

/// Outcome of one (workload, configuration) simulation.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub workload: String,
    pub category: Category,
    pub result: SimResult,
}

impl RunOutcome {
    /// IPC of this run.
    pub fn ipc(&self) -> f64 {
        self.result.ipc()
    }
}

/// Geomean speedup of `opt` over `base`, matching runs by workload name.
pub fn geomean_speedup(base: &[RunOutcome], opt: &[RunOutcome]) -> f64 {
    let speedups = opt.iter().zip(base).map(|(o, b)| {
        debug_assert_eq!(o.workload, b.workload);
        o.ipc() / b.ipc()
    });
    sim_stats::geomean(speedups)
}
