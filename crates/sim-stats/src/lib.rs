//! # sim-stats — measurement utilities for the Constable reproduction
//!
//! Small, dependency-light statistics toolkit used by the simulator and the
//! experiment harness: event counters, bucketed histograms, box-and-whiskers
//! summaries (the paper reports several results as box plots, e.g. Fig 9 and
//! Fig 18), geometric means of speedups, and plain-text table rendering that
//! mimics the paper's figures.

mod histogram;
mod summary;
mod table;

pub use histogram::Histogram;
pub use summary::{geomean, BoxStats};
pub use table::{pct, speedup, Table};

/// A named saturating event counter.
///
/// ```
/// use sim_stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Adds `n` (saturating).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }

    /// This counter as a fraction of `total` (0.0 when `total` is 0).
    pub fn frac_of(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Ratio helper: `a / b` as `f64`, 0.0 when `b == 0`.
#[inline]
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Percentage-change helper: `(new - old) / old * 100`, 0.0 when `old == 0`.
#[inline]
pub fn pct_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert!((c.frac_of(40) - 0.25).abs() < 1e-12);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert!((ratio(1, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pct_change_basics() {
        assert!((pct_change(100.0, 105.0) - 5.0).abs() < 1e-9);
        assert_eq!(pct_change(0.0, 10.0), 0.0);
    }
}
