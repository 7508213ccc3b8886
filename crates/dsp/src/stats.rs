//! Descriptive statistics used when reporting experiment results.
//!
//! The paper reports mean error, 90th-percentile error, medians and CDFs
//! (Figs. 12, 13); this module computes them the same way.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance. Returns 0 for slices shorter than 2.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64
}

/// `p`-th percentile (0 ≤ p ≤ 100) with linear interpolation between order
/// statistics (the "linear" / type-7 method used by NumPy's default).
/// Samples are ordered by [`f64::total_cmp`], so a NaN sample never
/// panics: a positive NaN sorts above every number, a negative one below.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if data.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median (50th percentile).
pub fn median(data: &[f64]) -> f64 {
    percentile(data, 50.0)
}

/// Empirical CDF evaluated at each sorted data point: returns
/// `(value, P(X ≤ value))` pairs, suitable for plotting Fig. 12b-style
/// curves. Ordered by [`f64::total_cmp`], like [`percentile`].
pub fn empirical_cdf(data: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Mean absolute value — the "mean error" statistic of Figs. 12a/13.
pub fn mean_abs(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().map(|x| x.abs()).sum::<f64>() / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&d), 5.0);
        assert_eq!(variance(&d), 4.0);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(mean_abs(&[]), 0.0);
        assert!(empirical_cdf(&[]).is_empty());
    }

    #[test]
    fn percentile_interpolation() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&d, 0.0), 1.0);
        assert_eq!(percentile(&d, 100.0), 4.0);
        assert_eq!(percentile(&d, 50.0), 2.5);
        assert!((percentile(&d, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let d = [0.5, 0.1, 0.9, 0.3];
        let cdf = empirical_cdf(&d);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn nan_samples_sort_last_without_panicking() {
        let d = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&d, 0.0), 1.0);
        assert_eq!(median(&d), 2.5);
        assert!(percentile(&d, 100.0).is_nan());
        let cdf = empirical_cdf(&d);
        let values: Vec<f64> = cdf.iter().map(|&(v, _)| v).collect();
        assert_eq!(&values[..3], &[1.0, 2.0, 3.0]);
        assert!(values[3].is_nan());
        assert_eq!(cdf[3].1, 1.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }
}
