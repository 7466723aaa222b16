//! Q-Error summaries and distribution helpers used by every experiment.

/// The Q-Error of an estimate (Moerkotte et al.): `max(est, actual) / min(est,
/// actual)`, with both sides clamped to at least 1 row.
pub fn q_error(estimate: f64, actual: f64) -> f64 {
    let e = estimate.max(1.0);
    let a = actual.max(1.0);
    if e >= a {
        e / a
    } else {
        a / e
    }
}

/// Summary of a Q-Error distribution, matching the columns reported in the
/// paper's Table II (mean, median, 75th, 99th, max) plus a few extras.
#[derive(Debug, Clone, PartialEq)]
pub struct QErrorSummary {
    /// Number of queries evaluated.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl QErrorSummary {
    /// Summarize a set of Q-Errors. Returns an all-zero summary for an empty
    /// slice.
    pub fn from_errors(errors: &[f64]) -> Self {
        if errors.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                median: 0.0,
                p75: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted: Vec<f64> = errors.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Self {
            count: sorted.len(),
            mean,
            median: percentile_sorted(&sorted, 50.0),
            p75: percentile_sorted(&sorted, 75.0),
            p90: percentile_sorted(&sorted, 90.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: *sorted.last().expect("non-empty"),
        }
    }

    /// Summarize estimates against ground truth directly.
    pub fn from_estimates(estimates: &[f64], actuals: &[u64]) -> Self {
        assert_eq!(estimates.len(), actuals.len(), "estimate/actual length mismatch");
        let errors: Vec<f64> =
            estimates.iter().zip(actuals.iter()).map(|(&e, &a)| q_error(e, a as f64)).collect();
        Self::from_errors(&errors)
    }

    /// Render as the row format used by the experiment binaries.
    pub fn to_row(&self) -> String {
        format!(
            "mean={:>9.3} median={:>8.3} p75={:>8.3} p99={:>9.3} max={:>10.3}",
            self.mean, self.median, self.p75, self.p99, self.max
        )
    }
}

/// Linear-interpolated percentile of a pre-sorted slice (`p` in `[0, 100]`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Empirical CDF of a cardinality distribution, evaluated at `points`
/// log-spaced thresholds. Returns `(threshold, fraction <= threshold)` pairs;
/// this is what Figure 4 of the paper plots for the generated workloads.
pub fn cardinality_cdf(cardinalities: &[u64], points: usize) -> Vec<(f64, f64)> {
    if cardinalities.is_empty() || points == 0 {
        return Vec::new();
    }
    let mut sorted: Vec<u64> = cardinalities.to_vec();
    sorted.sort_unstable();
    let max = *sorted.last().expect("non-empty") as f64;
    let max = max.max(1.0);
    let n = sorted.len() as f64;
    (0..points)
        .map(|i| {
            // Log-spaced thresholds from 1 to max (the last point is pinned to
            // the exact maximum so the CDF always reaches 1.0).
            let t = if i + 1 == points {
                max
            } else {
                (max.ln() * i as f64 / (points - 1).max(1) as f64).exp()
            };
            let below = sorted.partition_point(|&c| (c as f64) <= t);
            (t, below as f64 / n)
        })
        .collect()
}

/// Simple mean helper for throughput / latency reporting.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_basic_properties() {
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert!(q_error(3.0, 3.0) >= 1.0);
    }

    #[test]
    fn q_error_zero_and_one_row_truths_clamp_to_one_row() {
        // Zero-row truths: the actual side clamps to 1 row, so the error is
        // the (clamped) estimate itself — never a division by zero or inf.
        assert_eq!(q_error(5.0, 0.0), 5.0);
        assert_eq!(q_error(0.0, 5.0), 5.0);
        assert!(q_error(1e12, 0.0).is_finite());
        // One-row truths: sub-row estimates clamp up to 1 row, so an
        // estimate of 0.3 rows against a 1-row truth is *exact*, not a 3.3x
        // error.
        assert_eq!(q_error(0.3, 1.0), 1.0);
        assert_eq!(q_error(1.0, 0.3), 1.0);
        assert_eq!(q_error(0.0, 1.0), 1.0);
        // Fractional estimates above a row still count normally.
        assert_eq!(q_error(2.0, 1.0), 2.0);
        // Negative estimates (a misbehaving model) clamp like zero.
        assert_eq!(q_error(-3.0, 10.0), 10.0);
    }

    #[test]
    fn empty_workload_summaries_are_zeroed_not_nan() {
        let s = QErrorSummary::from_estimates(&[], &[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.median, 0.0);
        assert_eq!(s.p99, 0.0);
        assert_eq!(s.max, 0.0);
        assert!(!s.mean.is_nan());
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert!(cardinality_cdf(&[], 10).is_empty());
        assert!(cardinality_cdf(&[1, 2, 3], 0).is_empty());
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn single_query_summary_degenerates_to_that_error() {
        let s = QErrorSummary::from_estimates(&[30.0], &[10]);
        assert_eq!(s.count, 1);
        for v in [s.mean, s.median, s.p75, s.p90, s.p95, s.p99, s.max] {
            assert_eq!(v, 3.0, "all statistics of one sample are the sample");
        }
    }

    #[test]
    fn all_zero_truth_workload_is_finite() {
        // A workload whose every query matches no rows (possible with
        // contradictory generated predicates) must summarize finitely.
        let s = QErrorSummary::from_estimates(&[0.0, 2.0, 100.0], &[0, 0, 0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - (1.0 + 2.0 + 100.0) / 3.0).abs() < 1e-9);
        assert!(s.median.is_finite() && s.p99.is_finite());
    }

    #[test]
    #[should_panic(expected = "estimate/actual length mismatch")]
    fn mismatched_estimate_truth_lengths_panic() {
        let _ = QErrorSummary::from_estimates(&[1.0, 2.0], &[1]);
    }

    #[test]
    fn percentile_out_of_range_is_clamped() {
        let sorted = vec![1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&sorted, -10.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 200.0), 3.0);
        // Single-element slices are every percentile.
        assert_eq!(percentile_sorted(&[7.0], 0.0), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn cdf_of_constant_and_single_value_distributions() {
        // All-equal cardinalities: every threshold ≥ the value has CDF 1.
        let cdf = cardinality_cdf(&[5, 5, 5, 5], 4);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        // A single zero-cardinality sample: max clamps to 1, no NaNs.
        let cdf = cardinality_cdf(&[0], 3);
        assert_eq!(cdf.len(), 3);
        for (t, frac) in cdf {
            assert!(t.is_finite() && frac.is_finite());
            assert!((frac - 1.0).abs() < 1e-9, "0 <= every threshold");
        }
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let errors: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = QErrorSummary::from_errors(&errors);
        assert_eq!(s.count, 100);
        assert!(s.median <= s.p75 && s.p75 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.p99);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.median - 50.5).abs() < 1.0);
    }

    #[test]
    fn summary_of_empty_slice_is_zeroed() {
        let s = QErrorSummary::from_errors(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn from_estimates_matches_manual_computation() {
        let s = QErrorSummary::from_estimates(&[10.0, 1.0], &[100, 1]);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 10.0);
        assert!((s.mean - 5.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 4.0);
        assert!((percentile_sorted(&sorted, 50.0) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let cards: Vec<u64> = (1..=1000).collect();
        let cdf = cardinality_cdf(&cards, 20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
