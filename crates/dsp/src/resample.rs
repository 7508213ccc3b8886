//! Rate conversion: block-average decimation and arbitrary-time sampling.
//! (Filtered complex decimation is [`crate::filter::Fir::decimate_into`].)
//!
//! The node's MCU samples the envelope-detector outputs at 1 MHz while the
//! RF-level simulation runs at GS/s rates; this module bridges the two.

use std::ops::Range;

/// Decimates a real-valued sequence by integer factor `m` with a moving
/// average of length `m` as the anti-alias filter (the natural model of an
/// ADC that integrates over its sample period).
pub fn decimate_real_avg(input: &[f64], m: usize) -> Vec<f64> {
    assert!(m >= 1, "decimation factor must be >= 1");
    if m == 1 {
        return input.to_vec();
    }
    input
        .chunks(m)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Samples a real sequence (at rate `fs`) at arbitrary time `t` seconds by
/// linear interpolation between the two samples around `t` (see
/// [`sample_at_reads`]). At the last sample it returns that sample;
/// outside the sequence, 0.
pub fn sample_at(input: &[f64], fs: f64, t: f64) -> f64 {
    let reads = sample_at_reads(input.len(), fs, t);
    match input[reads.clone()] {
        [a, b] => {
            let frac = t * fs - reads.start as f64;
            a * (1.0 - frac) + b * frac
        }
        [v] => v,
        _ => 0.0,
    }
}

/// The indices [`sample_at`] reads from a `len`-sample sequence at
/// rate `fs` for time `t`: the interpolation pair `i..i + 2`, just
/// `i..i + 1` at the last sample, or nothing outside the sequence.
pub fn sample_at_reads(len: usize, fs: f64, t: f64) -> Range<usize> {
    if len == 0 || t < 0.0 {
        return 0..0;
    }
    let i = (t * fs).floor() as usize;
    i.min(len)..i.saturating_add(2).min(len)
}

/// Resamples a real sequence from rate `fs_in` to rate `fs_out` by linear
/// interpolation (no anti-alias filter — intended for upsampling or for
/// already-smooth envelopes).
pub fn resample_linear(input: &[f64], fs_in: f64, fs_out: f64) -> Vec<f64> {
    assert!(fs_in > 0.0 && fs_out > 0.0, "rates must be positive");
    if input.is_empty() {
        return Vec::new();
    }
    let duration = input.len() as f64 / fs_in;
    let n_out = (duration * fs_out).floor() as usize;
    (0..n_out)
        .map(|i| sample_at(input, fs_in, i as f64 / fs_out))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimate_real_averages_blocks() {
        let v = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(decimate_real_avg(&v, 2), vec![2.0, 6.0, 9.0]);
        assert_eq!(decimate_real_avg(&v, 1), v.to_vec());
    }

    #[test]
    fn sample_at_interpolates() {
        let v = [0.0, 10.0, 20.0];
        assert_eq!(sample_at(&v, 1.0, 0.5), 5.0);
        assert_eq!(sample_at(&v, 1.0, 1.0), 10.0);
        assert_eq!(sample_at(&v, 1.0, 2.0), 20.0);
        assert_eq!(sample_at(&v, 1.0, 5.0), 0.0);
        assert_eq!(sample_at(&v, 1.0, -1.0), 0.0);
        assert_eq!(sample_at(&[], 1.0, 0.0), 0.0);
    }

    #[test]
    fn sample_at_reads_names_the_interpolated_samples() {
        let v = [3.0, 10.0, 20.0];
        for t in [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0] {
            let reads = sample_at_reads(v.len(), 1.0, t);
            // Poisoning every other sample leaves the value unchanged.
            let mut poisoned = [f64::NAN; 3];
            for i in reads.clone() {
                poisoned[i] = v[i];
            }
            assert_eq!(
                sample_at(&poisoned, 1.0, t).to_bits(),
                sample_at(&v, 1.0, t).to_bits(),
                "t = {t}, reads {reads:?}"
            );
        }
        assert_eq!(sample_at_reads(3, 1.0, 0.5), 0..2);
        assert_eq!(sample_at_reads(3, 1.0, 2.0), 2..3);
        assert_eq!(sample_at_reads(3, 1.0, 5.0), 3..3);
        assert_eq!(sample_at_reads(3, 1.0, -1.0), 0..0);
        assert_eq!(sample_at_reads(0, 1.0, 0.0), 0..0);
    }

    #[test]
    fn resample_linear_preserves_ramp() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let out = resample_linear(&v, 100.0, 200.0);
        assert_eq!(out.len(), 200);
        // At output index 50 (t = 0.25 s) the ramp value is 25.
        assert!((out[50] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn resample_downsamples_too() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let out = resample_linear(&v, 100.0, 50.0);
        assert_eq!(out.len(), 50);
        assert!((out[10] - 20.0).abs() < 1e-9);
    }
}
