//! Golden-vector regression tests for the DSP substrate.
//!
//! Each test pins a transform against an independent reference: a
//! closed-form spectrum or a naive O(n²) DFT. These are the cross-checks
//! that guard the planned-FFT refactor — if the plan cache, Bluestein
//! path, or twiddle tables ever drift, one of these fails before any
//! experiment-level test notices.

use milback_dsp::fft::{fft, ifft};
use milback_dsp::num::{Cpx, ZERO};
use milback_dsp::plan::{with_plan, FftPlan};
use std::f64::consts::PI;

/// Reference O(n²) DFT, straight from the definition.
fn naive_dft(input: &[Cpx]) -> Vec<Cpx> {
    let n = input.len();
    (0..n)
        .map(|k| {
            input
                .iter()
                .enumerate()
                .map(|(m, &x)| x * Cpx::cis(-2.0 * PI * (k * m) as f64 / n as f64))
                .fold(ZERO, |a, b| a + b)
        })
        .collect()
}

/// A deterministic pseudo-random test vector (no RNG dependency needed:
/// a fixed irrational-stride phase walk covers the spectrum densely).
fn test_vector(n: usize) -> Vec<Cpx> {
    (0..n)
        .map(|i| Cpx::cis(i as f64 * 0.7548776662) * (1.0 + 0.5 * (i as f64 * 0.1).sin()))
        .collect()
}

#[test]
fn impulse_transforms_to_flat_spectrum() {
    // δ[0] → X[k] = 1 for all k, exactly.
    for n in [8usize, 16, 64, 100, 255] {
        let mut x = vec![ZERO; n];
        x[0] = Cpx::new(1.0, 0.0);
        for v in fft(&x) {
            assert!((v - Cpx::new(1.0, 0.0)).abs() < 1e-9, "n={n}");
        }
    }
}

#[test]
fn single_tone_lands_in_one_bin() {
    // x[m] = e^{j2πkm/n} → X[k] = n, all other bins zero.
    let n = 128;
    let k = 17;
    let x: Vec<Cpx> = (0..n)
        .map(|m| Cpx::cis(2.0 * PI * (k * m) as f64 / n as f64))
        .collect();
    let spec = fft(&x);
    for (bin, v) in spec.iter().enumerate() {
        let expect = if bin == k { n as f64 } else { 0.0 };
        assert!(
            (v.abs() - expect).abs() < 1e-8,
            "bin {bin}: |X| = {}",
            v.abs()
        );
    }
}

#[test]
fn fft_matches_naive_dft() {
    use rand::{Rng, SeedableRng};
    // Power-of-two (radix-2 path) and composite/prime (Bluestein path)
    // phase walks, plus a seeded uniform-random 32-point vector.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x60E7);
    let random: Vec<Cpx> = (0..32)
        .map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let inputs = [2usize, 8, 32, 64, 256, 12, 15, 17, 31, 100]
        .map(test_vector)
        .into_iter()
        .chain([random]);
    for x in inputs {
        let n = x.len();
        let fast = fft(&x);
        let slow = naive_dft(&x);
        let scale: f64 = slow.iter().map(|c| c.abs()).fold(1.0, f64::max);
        for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                (*a - *b).abs() < 1e-9 * scale,
                "n={n} bin {k}: fft {a:?} vs dft {b:?}"
            );
        }
    }
}

#[test]
fn ifft_round_trips_fft() {
    for n in [1usize, 2, 16, 64, 21, 97, 256] {
        let x = test_vector(n);
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-9, "n={n}");
        }
    }
}

#[test]
fn in_place_round_trip_is_near_exact() {
    let x = test_vector(1024);
    let mut buf = x.clone();
    let plan = FftPlan::new(buf.len());
    plan.forward_in_place(&mut buf);
    plan.inverse_in_place(&mut buf);
    for (a, b) in x.iter().zip(&buf) {
        assert!((*a - *b).abs() < 1e-10);
    }
}

#[test]
fn planned_and_unplanned_transforms_are_bitwise_identical() {
    // The free functions are wrappers over the cached plans, and a fresh
    // plan computes the same tables — results must match to the bit.
    for n in [8usize, 64, 1024] {
        let x = test_vector(n);
        let via_free = fft(&x);
        let via_cache = with_plan(n, |p| p.forward(&x));
        let via_fresh = FftPlan::new(n).forward(&x);
        assert_eq!(via_free, via_cache, "n={n}: free fn vs cached plan");
        assert_eq!(via_cache, via_fresh, "n={n}: cached vs fresh plan");
    }
    // Bluestein path: the free fft() and a repeat call (warm cache) agree.
    for n in [12usize, 17, 100] {
        let x = test_vector(n);
        let first = fft(&x);
        let second = fft(&x);
        assert_eq!(first, second, "n={n}: cold vs warm Bluestein cache");
    }
}

#[test]
fn linearity_golden_check() {
    // FFT(a·x + b·y) == a·FFT(x) + b·FFT(y), to rounding.
    let n = 96; // composite → Bluestein
    let x = test_vector(n);
    let y: Vec<Cpx> = (0..n).map(|i| Cpx::cis(-(i as f64) * 0.31)).collect();
    let (a, b) = (Cpx::new(2.0, -1.0), Cpx::new(0.5, 0.25));
    let mixed: Vec<Cpx> = x.iter().zip(&y).map(|(&u, &v)| u * a + v * b).collect();
    let lhs = fft(&mixed);
    let fx = fft(&x);
    let fy = fft(&y);
    for (k, l) in lhs.iter().enumerate() {
        let r = fx[k] * a + fy[k] * b;
        assert!((*l - r).abs() < 1e-8, "bin {k}");
    }
}
