//! Rate conversion: arbitrary-time sampling of a real sequence.
//!
//! The node's MCU samples the envelope-detector outputs at 1 MHz while the
//! RF-level simulation runs at GS/s rates; this module bridges the two.

use std::ops::Range;

/// Samples a real sequence (at rate `fs`) at arbitrary time `t` seconds by
/// linear interpolation between the two samples around `t` (see
/// [`sample_at_reads`]). At the last sample it returns that sample;
/// outside the sequence, 0.
pub fn sample_at(input: &[f64], fs: f64, t: f64) -> f64 {
    sample_at_with(input.len(), fs, t, |i| input[i])
}

/// [`sample_at`] over a `len`-sample sequence given by `value(i)`, called
/// only at the indices [`sample_at_reads`] names: bitwise
/// `sample_at(&seq, fs, t)` when `value(i) == seq[i]` there.
pub fn sample_at_with(len: usize, fs: f64, t: f64, mut value: impl FnMut(usize) -> f64) -> f64 {
    let reads = sample_at_reads(len, fs, t);
    match reads.len() {
        2 => {
            let (a, b) = (value(reads.start), value(reads.start + 1));
            let frac = t * fs - reads.start as f64;
            a * (1.0 - frac) + b * frac
        }
        1 => value(reads.start),
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
