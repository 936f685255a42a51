//! Order statistics for the benchmark's samples.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile; with fewer, the percentile is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// The highest candidate percentile that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// lowest candidate does not.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Samples at or below the `p`-quantile of `n`; the epsilon keeps
/// `0.9 * 100` from rounding up to 91.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Whether `p` may be reported over `n` samples.
pub fn supports(n: usize, p: f64) -> bool {
    highest_supported(n, &[p]).is_some()
}

/// The `p`-quantile of `sorted` (ascending) by linear interpolation
/// between closest ranks, the same rule as Python's
/// `statistics.quantiles(method="inclusive")`.
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `xs` and returns its `p`-quantile.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, p)
}

/// `(q1, median, q3)` of `xs`.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (
        quantile_sorted(&v, 0.25),
        quantile_sorted(&v, 0.5),
        quantile_sorted(&v, 0.75),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(9, &TAIL_CANDIDATES), None);
        assert_eq!(highest_supported(20, &TAIL_CANDIDATES), Some(0.5));
        assert_eq!(highest_supported(99, &TAIL_CANDIDATES), Some(0.5));
        assert_eq!(highest_supported(100, &TAIL_CANDIDATES), Some(0.9));
        assert_eq!(highest_supported(999, &TAIL_CANDIDATES), Some(0.9));
        assert_eq!(highest_supported(1_000, &TAIL_CANDIDATES), Some(0.99));
        assert_eq!(highest_supported(10_000, &TAIL_CANDIDATES), Some(0.999));
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
    }

    #[test]
    fn picker_ignores_candidate_order() {
        assert_eq!(highest_supported(1_000, &[0.5, 0.99, 0.9]), Some(0.99));
    }

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        // statistics.quantiles([1,2,3,4], n=4, method="inclusive")
        assert_eq!(quartiles(&xs), (1.75, 2.5, 3.25));
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }
}
