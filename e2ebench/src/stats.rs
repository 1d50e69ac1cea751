//! Summary arithmetic: medians, tail percentiles and geometric means.

/// The median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN sample: every caller summarizes at least one
/// measured value.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let sorted = sorted(xs);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Percentiles a tail is read at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten samples
/// beyond it when `n` samples are taken, or `None` below eleven samples.
///
/// Callers pass the *guaranteed* sample count of a run, not the count a
/// fast run happened to reach, so the percentile a metric reports does not
/// shift with machine speed.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= 10)
}

/// The nearest-rank `p`-th percentile of `xs`.
///
/// # Panics
///
/// On an empty slice or a NaN sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let sorted = sorted(xs);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// On an empty slice or a value that is not strictly positive: a ratio of
/// two measured costs is never zero.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no values");
    assert!(
        xs.iter().all(|&x| x > 0.0 && x.is_finite()),
        "geometric mean needs positive finite values: {xs:?}"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 1.0), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        // 11 samples: the median is rank 6, five beyond; none qualifies.
        assert_eq!(tail_percentile(11), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // 42 samples: p75 is rank 32, ten beyond; p90 (rank 38) is not.
        assert_eq!(tail_percentile(42), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        for n in 11..2000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - nearest_rank(p, n) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }
}
