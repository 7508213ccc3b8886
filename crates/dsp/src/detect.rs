//! Peak detection and spectral-peak refinement.
//!
//! Used by the AP's range processing (finding the node's beat-frequency
//! peak), the AP's orientation estimator (strongest reflected chirp
//! frequency) and the node's orientation estimator (the two power peaks of
//! the triangular chirp).

/// A detected peak in a sampled sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Index of the local maximum.
    pub index: usize,
    /// Value at the maximum.
    pub value: f64,
    /// Sub-sample refined position (parabolic interpolation), in samples.
    pub refined: f64,
}

/// Index of the largest element. Returns `None` on an empty slice.
pub fn argmax(data: &[f64]) -> Option<usize> {
    data.iter()
        .enumerate()
        .filter(|(_, v)| !v.is_nan())
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

/// Parabolic (quadratic) interpolation of a peak at index `i` of `data`.
/// Returns the refined peak position in fractional samples. Falls back to
/// `i` at the boundaries or when the neighborhood is degenerate.
pub fn parabolic_refine(data: &[f64], i: usize) -> f64 {
    if i == 0 || i + 1 >= data.len() {
        return i as f64;
    }
    let (a, b, c) = (data[i - 1], data[i], data[i + 1]);
    let denom = a - 2.0 * b + c;
    if denom.abs() < 1e-300 {
        return i as f64;
    }
    let delta = 0.5 * (a - c) / denom;
    // A true local max gives |delta| <= 0.5; clamp to be safe against noise.
    i as f64 + delta.clamp(-0.5, 0.5)
}

/// Finds all local maxima above `threshold`, enforcing a minimum spacing of
/// `min_separation` samples between retained peaks (strongest-first greedy
/// selection). Peaks are returned sorted by descending value.
pub fn find_peaks(data: &[f64], threshold: f64, min_separation: usize) -> Vec<Peak> {
    let n = data.len();
    let mut candidates: Vec<Peak> = Vec::new();
    for i in 0..n {
        let v = data[i];
        if v < threshold || v.is_nan() {
            continue;
        }
        let left_ok = i == 0 || data[i - 1] <= v;
        let right_ok = i + 1 >= n || data[i + 1] < v;
        if left_ok && right_ok {
            candidates.push(Peak {
                index: i,
                value: v,
                refined: parabolic_refine(data, i),
            });
        }
    }
    candidates.sort_by(|a, b| b.value.total_cmp(&a.value));
    let mut kept: Vec<Peak> = Vec::new();
    for p in candidates {
        if kept
            .iter()
            .all(|q| p.index.abs_diff(q.index) >= min_separation)
        {
            kept.push(p);
        }
    }
    kept
}

/// Mean of the values strictly below the `q`-quantile — a simple robust
/// noise-floor estimate for thresholding spectra. Sorts into the
/// caller-owned `scratch` (an unstable sort reorders only equal values,
/// which cannot change the sorted value sequence), so it performs zero
/// allocations once `scratch` has grown to `data.len()`.
pub fn noise_floor_with(data: &[f64], q: f64, scratch: &mut Vec<f64>) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if data.is_empty() {
        return 0.0;
    }
    crate::buffer::track_growth(scratch, data.len());
    scratch.clear();
    scratch.extend(data.iter().copied().filter(|v| !v.is_nan()));
    scratch.sort_unstable_by(f64::total_cmp);
    let k = ((scratch.len() as f64 * q) as usize)
        .max(1)
        .min(scratch.len());
    scratch[..k].iter().sum::<f64>() / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_basic() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 2.0, 1.0]), Some(1));
    }

    #[test]
    fn parabolic_refine_recovers_true_vertex() {
        // Sample a parabola with vertex at x = 5.3.
        let data: Vec<f64> = (0..11).map(|i| 10.0 - (i as f64 - 5.3).powi(2)).collect();
        let i = argmax(&data).unwrap();
        let refined = parabolic_refine(&data, i);
        assert!((refined - 5.3).abs() < 1e-9, "refined {refined}");
    }

    #[test]
    fn parabolic_refine_boundary_falls_back() {
        let data = [5.0, 1.0, 0.0];
        assert_eq!(parabolic_refine(&data, 0), 0.0);
        assert_eq!(parabolic_refine(&data, 2), 2.0);
    }

    #[test]
    fn refine_on_flat_data_is_stable() {
        let data = [1.0, 1.0, 1.0];
        assert_eq!(parabolic_refine(&data, 1), 1.0);
    }

    #[test]
    fn refined_argmax_on_sinc() {
        let data: Vec<f64> = (0..64)
            .map(|i| {
                let x = (i as f64 - 20.25) * 0.7;
                if x.abs() < 1e-12 {
                    1.0
                } else {
                    (x.sin() / x).powi(2)
                }
            })
            .collect();
        let i = argmax(&data).unwrap();
        assert_eq!(i, 20);
        let refined = parabolic_refine(&data, i);
        assert!((refined - 20.25).abs() < 0.1, "refined {refined}");
    }

    #[test]
    fn find_peaks_respects_threshold_and_separation() {
        let mut data = vec![0.0; 100];
        data[10] = 5.0;
        data[12] = 4.0; // too close to index 10, weaker → dropped
        data[50] = 3.0;
        data[90] = 0.5; // below threshold
        let peaks = find_peaks(&data, 1.0, 5);
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![10, 50]);
    }

    #[test]
    fn find_peaks_orders_by_value() {
        let mut data = vec![0.0; 50];
        data[5] = 2.0;
        data[25] = 7.0;
        data[45] = 4.0;
        let peaks = find_peaks(&data, 0.5, 3);
        let vals: Vec<f64> = peaks.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![7.0, 4.0, 2.0]);
    }

    #[test]
    fn noise_floor_estimate() {
        let mut data = vec![1.0; 90];
        data.extend(vec![100.0; 10]);
        let nf = noise_floor_with(&data, 0.5, &mut Vec::new());
        assert!((nf - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_empty() {
        assert_eq!(noise_floor_with(&[], 0.5, &mut Vec::new()), 0.0);
    }

    #[test]
    fn noise_floor_with_reused_scratch_is_bitwise_stable() {
        let data: Vec<f64> = (0..500)
            .map(|i| ((i * 7919) % 251) as f64 * 0.013 + 0.1)
            .collect();
        let mut scratch = Vec::new();
        for q in [0.1, 0.5, 0.9] {
            let expect = noise_floor_with(&data, q, &mut Vec::new());
            // Reused scratch across quantiles must not perturb results.
            assert_eq!(noise_floor_with(&data, q, &mut scratch), expect);
            assert_eq!(noise_floor_with(&data, q, &mut scratch), expect);
        }
    }
}
