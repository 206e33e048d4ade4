//! Latency summaries over raw samples.
//!
//! Every latency the benchmark reports is an order statistic of the raw
//! samples (`offchip_stats::Summary`), never a bucketed histogram:
//! `offchip_obs::Histogram` keeps log2 buckets, whose quantiles are
//! bucket bounds (a 76 µs mean printed as a 127 µs p50).

/// Percentiles a tail may report, from highest to lowest.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Highest percentile an end-to-end tail metric reports: p95 and p99 of
/// a run's own work measure the shared host's scheduling more than the
/// program.
pub const METRIC_TAIL: f64 = 90.0;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values`, which must be non-empty and finite.
pub fn median(values: &[f64]) -> f64 {
    offchip_stats::Summary::new(values)
        .median()
        .expect("median of no values")
}

/// A latency summary: the median and the highest percentile of
/// [`TAIL_LADDER`], up to a cap, that still has [`MIN_BEYOND`] samples
/// above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (e.g. 99.0).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples` with a tail of at most the `max_pct`-th
    /// percentile; `None` when there are too few samples for even the
    /// lowest ladder percentile to have [`MIN_BEYOND`] beyond it.
    pub fn of(samples: &[f64], max_pct: f64) -> Option<Summary> {
        let n = samples.len();
        // `offchip_stats` interpolates at rank p/100 × (n − 1); the
        // samples beyond it are those above the rank's upper neighbour.
        let beyond = |p: f64| n.saturating_sub(1 + (p / 100.0 * (n as f64 - 1.0)).ceil() as usize);
        let tail_pct = TAIL_LADDER
            .into_iter()
            .filter(|&p| p <= max_pct)
            .find(|&p| n > 0 && beyond(p) >= MIN_BEYOND)?;
        let s = offchip_stats::Summary::new(samples);
        Some(Summary {
            n,
            p50: s.median()?,
            tail_pct,
            tail: s.percentile(tail_pct)?,
            mean: s.mean(),
        })
    }

    /// One human-readable line, with the sample count.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}, p{} {:.1} {unit}, mean {:.1} {unit} (n={})",
            self.p50, self.tail_pct, self.tail, self.mean, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 0..=1000: p99 sits at sample 990, with exactly 10 above it.
        let v: Vec<f64> = (0..=1000).map(f64::from).collect();
        let s = Summary::of(&v, 99.0).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1001, 500.0, 99.0, 990.0));
        // A cap keeps the tail at or below it.
        let s = Summary::of(&v, METRIC_TAIL).unwrap();
        assert_eq!((s.tail_pct, s.tail), (90.0, 900.0));
        // One sample fewer: p99 would leave only 9, so p95 is reported.
        let s = Summary::of(&v[..1000], 99.0).unwrap();
        assert_eq!(s.tail_pct, 95.0);
        assert!((s.tail - 949.05).abs() < 1e-9);
        // 108 samples (the simulator grid): p90 leaves 10.
        let s = Summary::of(&v[..108], 99.0).unwrap();
        assert_eq!(s.tail_pct, 90.0);
        assert!((s.tail - 96.3).abs() < 1e-9);
        // Too few samples for any tail.
        assert!(Summary::of(&v[..40], 99.0).is_none());
        assert!(Summary::of(&[], 99.0).is_none());
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        let mut many = Vec::new();
        for _ in 0..10 {
            many.extend_from_slice(&a);
        }
        let s = Summary::of(&many, 99.0).unwrap();
        assert_eq!((s.p50, s.tail_pct, s.tail), (5.5, 75.0, 8.0));
        assert!((s.mean - 5.5).abs() < 1e-12);
    }
}
