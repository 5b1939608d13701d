//! Bucketed histograms.

/// A histogram over `u64` samples with caller-defined bucket upper bounds.
///
/// Used for distributions the paper buckets explicitly, e.g. the
/// inter-occurrence distance of global-stable loads (Fig 3c uses buckets
/// `[0,50) [50,100) [100,250) 250+`) and SLD updates per cycle (Fig 9a).
///
/// ```
/// use sim_stats::Histogram;
/// let mut h = Histogram::new(&[50, 100, 250]);
/// h.record(10);
/// h.record(75);
/// h.record(10_000);
/// assert_eq!(h.bucket_counts(), &[1, 1, 0, 1]);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Exclusive upper bounds of each bucket; one overflow bucket follows.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// Creates a histogram with buckets `[0,b0) [b0,b1) … [b_last, ∞)`.
    ///
    /// # Panics
    /// Panics if `bounds` is not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples in one bucket update (used by the
    /// event-driven core to account a fast-forwarded stall region's
    /// per-cycle zero samples without looping).
    pub fn record_n(&mut self, value: u64, n: u64) {
        let idx = self.bounds.partition_point(|&b| b <= value);
        self.counts[idx] += n;
        self.total += n;
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Rebuilds a histogram from its raw parts, the inverse of
    /// ([`bounds`](Histogram::bounds), [`bucket_counts`](Histogram::bucket_counts),
    /// [`sum_raw`](Histogram::sum_raw)) — the persistence path of the
    /// result store. `total` is re-derived from `counts`.
    ///
    /// # Panics
    /// Panics if `bounds` is not strictly increasing or `counts` does not
    /// have exactly one entry more than `bounds`.
    pub fn from_parts(bounds: Vec<u64>, counts: Vec<u64>, sum: u128) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert_eq!(
            counts.len(),
            bounds.len() + 1,
            "counts must cover every bucket plus overflow"
        );
        let total = counts.iter().sum();
        Histogram {
            bounds,
            counts,
            total,
            sum,
        }
    }

    /// Exclusive per-bucket upper bounds (the overflow bucket follows).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Raw sum of all samples, for exact round-trips of [`mean`](Histogram::mean).
    pub fn sum_raw(&self) -> u128 {
        self.sum
    }

    /// Per-bucket sample counts (the last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values_go_to_upper_bucket() {
        let mut h = Histogram::new(&[50, 100]);
        h.record(49);
        h.record(50); // boundary: belongs to [50,100)
        h.record(100); // boundary: overflow bucket
        assert_eq!(h.bucket_counts(), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut h = Histogram::new(&[50, 100, 250]);
        for v in [10, 75, 300, 300, 50] {
            h.record(v);
        }
        let back =
            Histogram::from_parts(h.bounds().to_vec(), h.bucket_counts().to_vec(), h.sum_raw());
        assert_eq!(back, h);
        assert_eq!(back.total(), h.total());
        assert_eq!(back.mean().to_bits(), h.mean().to_bits());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn from_parts_rejects_short_counts() {
        let _ = Histogram::from_parts(vec![10, 20], vec![1, 2], 0);
    }

    #[test]
    fn mean_tracks_samples() {
        let mut h = Histogram::new(&[100]);
        h.record(10);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }
}
