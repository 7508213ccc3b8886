//! Fast Fourier transforms.
//!
//! Provides an iterative radix-2 Cooley-Tukey FFT for power-of-two sizes and
//! a Bluestein (chirp-z) fallback for arbitrary sizes, so callers never have
//! to care about the length of their capture buffers. The AP's range
//! processing, background subtraction and spectrum analysis are all built on
//! this module.
//!
//! Conventions: `fft` computes the unnormalized forward DFT
//! `X[k] = Σ_n x[n]·exp(-j2πkn/N)`; `ifft` applies the `1/N` factor, so
//! `ifft(fft(x)) == x`.
//!
//! These free functions are thin wrappers over the cached plans in
//! [`crate::plan`]: twiddle tables, bit-reversal permutations and the
//! Bluestein chirp/filter spectra are computed once per size per thread and
//! reused, so repeated transforms of the same length (the common case in
//! Monte-Carlo sweeps) pay only the butterfly cost. Explicit
//! [`crate::plan::FftPlan`] usage produces bitwise-identical results.

use crate::num::Cpx;
use crate::plan;

/// Returns true when `n` is a power of two (and non-zero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Next power of two ≥ `n`.
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// Forward FFT of arbitrary length. Power-of-two inputs take the radix-2
/// path; other lengths use the Bluestein chirp-z algorithm.
pub fn fft(input: &[Cpx]) -> Vec<Cpx> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if is_pow2(n) {
        plan::with_plan(n, |p| p.forward(input))
    } else {
        plan::bluestein_cached(input, false)
    }
}

/// Inverse FFT of arbitrary length, normalized by `1/N` so that
/// `ifft(fft(x)) == x`.
pub fn ifft(input: &[Cpx]) -> Vec<Cpx> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if is_pow2(n) {
        plan::with_plan(n, |p| p.inverse(input))
    } else {
        let mut out = plan::bluestein_cached(input, true);
        let inv_n = 1.0 / n as f64;
        for c in out.iter_mut() {
            *c *= inv_n;
        }
        out
    }
}

/// Frequency (Hz) of each FFT bin for a transform of length `n` at sample
/// rate `fs`, in natural FFT order: `[0, fs/n, …, fs/2, -fs/2+fs/n, …, -fs/n]`.
pub fn fft_freqs(n: usize, fs: f64) -> Vec<f64> {
    let step = fs / n as f64;
    (0..n)
        .map(|k| {
            if k <= (n - 1) / 2 {
                k as f64 * step
            } else {
                (k as f64 - n as f64) * step
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::{J, ZERO};
    use std::f64::consts::PI;

    /// Naive O(N²) DFT used as the reference implementation.
    fn dft(input: &[Cpx]) -> Vec<Cpx> {
        let n = input.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| input[t] * Cpx::cis(-2.0 * PI * (k * t) as f64 / n as f64))
                    .sum()
            })
            .collect()
    }

    fn assert_close(a: &[Cpx], b: &[Cpx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    fn ramp(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| Cpx::new(i as f64 * 0.37 - 1.0, (i as f64 * 0.11).sin()))
            .collect()
    }

    #[test]
    fn matches_naive_dft_pow2() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let x = ramp(n);
            assert_close(&fft(&x), &dft(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn matches_naive_dft_non_pow2() {
        for n in [3usize, 5, 6, 7, 12, 100, 257] {
            let x = ramp(n);
            assert_close(&fft(&x), &dft(&x), 1e-7 * n as f64);
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [1usize, 2, 8, 15, 64, 100] {
            let x = ramp(n);
            assert_close(&ifft(&fft(&x)), &x, 1e-9 * n as f64);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![ZERO; 32];
        x[0] = Cpx::new(1.0, 0.0);
        let y = fft(&x);
        for c in y {
            assert!((c - Cpx::new(1.0, 0.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 128;
        let k0 = 17;
        let x: Vec<Cpx> = (0..n)
            .map(|t| Cpx::cis(2.0 * PI * (k0 * t) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, c) in y.iter().enumerate() {
            if k == k0 {
                assert!((c.abs() - n as f64).abs() < 1e-8);
            } else {
                assert!(c.abs() < 1e-7, "leakage at bin {k}: {}", c.abs());
            }
        }
    }

    #[test]
    fn parseval_theorem() {
        let x = ramp(200);
        let y = fft(&x);
        let time_energy: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let freq_energy: f64 = y.iter().map(|c| c.norm_sq()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn linearity() {
        let a = ramp(96);
        let b: Vec<Cpx> = ramp(96)
            .iter()
            .map(|c| *c * J + Cpx::new(0.5, 0.0))
            .collect();
        let sum: Vec<Cpx> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let expect: Vec<Cpx> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_close(&fsum, &expect, 1e-8);
    }

    #[test]
    fn fft_freqs_layout() {
        let f = fft_freqs(8, 800.0);
        assert_eq!(
            f,
            vec![0.0, 100.0, 200.0, 300.0, -400.0, -300.0, -200.0, -100.0]
        );
        let f = fft_freqs(5, 500.0);
        assert_eq!(f, vec![0.0, 100.0, 200.0, -200.0, -100.0]);
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }
}
