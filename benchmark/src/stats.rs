//! Exact order statistics over raw samples. The benchmark keeps every
//! per-op latency (no histogram buckets), so a percentile is a sample.

/// Sorts ascending. Samples are finite by construction (durations).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted vector (mean of the middle two when even).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    sort(&mut values);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — the highest one worth reporting from `n` samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (90.0, 10),
        (50.0, 2),
    ]
    .into_iter()
    .find(|&(_, one_in)| n >= 10 * one_in)
    .map(|(p, _)| p)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives — the spread the driver computes over ten runs.
pub fn quartile_spread(mut values: Vec<f64>) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    sort(&mut values);
    let n = values.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quartile(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Eleven samples: the 90th percentile is the 10th sample.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert!((quartile_spread(vec![20.0, 10.0]) - 1.0).abs() < 1e-12);
    }
}
