//! Order statistics used by every estimator in the benchmark.
//!
//! [`quantiles`] reproduces Python's `statistics.quantiles(data, n=…)`
//! (the default *exclusive* method) so the spreads `perf aa` prints are the
//! same numbers the acceptance driver computes from the same runs.

/// Sorts a copy of `values` ascending (NaNs, which no estimator produces,
/// would sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The `n - 1` cut points dividing `values` into `n` equal-probability
/// groups, as Python's `statistics.quantiles(values, n=n)` returns them.
///
/// Fewer than two values have no spread: a single value is returned for
/// every cut point and an empty input yields zeros.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two groups");
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return vec![data.first().copied().unwrap_or(0.0); n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// `(q1, median, q3)` by the same method as [`quantiles`].
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let q = quantiles(values, 4);
    (q[0], q[1], q[2])
}

/// The median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile range as a share of the median — the spread the
/// acceptance driver holds against a metric's bound.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&ten, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quantiles(&[10.0, 20.0], 4), vec![7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let pow: Vec<f64> = (0..7).map(|i| f64::from(1 << i)).collect();
        assert_eq!(quantiles(&pow, 4), vec![2.0, 8.0, 32.0]);
    }

    #[test]
    fn median_handles_odd_even_and_degenerate_inputs() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let a: Vec<f64> = (1..=10).map(f64::from).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1000.0).collect();
        assert!((relative_iqr(&a) - relative_iqr(&b)).abs() < 1e-12);
        assert!((relative_iqr(&a) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[9, 1, 5], 50.0), 5);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
