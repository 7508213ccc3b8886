//! Noise generation and thermal-noise arithmetic.
//!
//! Every stochastic experiment in the workspace draws its noise from here,
//! through caller-provided seeded RNGs, so runs are reproducible. Gaussian
//! variates are produced with the Box-Muller transform to avoid pulling in
//! `rand_distr`.

use crate::num::Cpx;
use crate::signal::Signal;
use rand::Rng;
use std::f64::consts::PI;

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Standard noise reference temperature in kelvin.
pub const T0_KELVIN: f64 = 290.0;

/// Draws one standard-normal variate via Box-Muller.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1] so the log is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Advances `rng` past `k` standard-normal variates without computing
/// them: the same two uniforms per variate that [`gaussian`] consumes,
/// so the RNG ends in the state `k` calls to [`gaussian`] leave it in.
pub fn skip_gaussians<R: Rng + ?Sized>(rng: &mut R, k: usize) {
    for _ in 0..k {
        let _: f64 = rng.gen();
        let _: f64 = rng.gen();
    }
}

/// Draws a circularly-symmetric complex Gaussian with total variance
/// `variance` (i.e. `variance/2` per component).
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, variance: f64) -> Cpx {
    let s = (variance / 2.0).sqrt();
    Cpx::new(gaussian(rng) * s, gaussian(rng) * s)
}

/// Thermal noise power in watts over bandwidth `bw` Hz at temperature `T0`,
/// with receiver noise figure `nf_db`.
///
/// `P = k·T₀·B·F` — the −174 dBm/Hz floor plus `10·log10(B)` plus NF.
pub fn thermal_noise_power(bw: f64, nf_db: f64) -> f64 {
    BOLTZMANN * T0_KELVIN * bw * 10f64.powf(nf_db / 10.0)
}

/// Thermal noise power in dBm over bandwidth `bw` Hz with noise figure
/// `nf_db`.
pub fn thermal_noise_dbm(bw: f64, nf_db: f64) -> f64 {
    watts_to_dbm(thermal_noise_power(bw, nf_db))
}

/// Converts watts to dBm.
pub fn watts_to_dbm(w: f64) -> f64 {
    10.0 * (w * 1e3).log10()
}

/// Converts dBm to watts.
pub fn dbm_to_watts(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0) * 1e-3
}

/// Converts a power ratio to decibels.
pub fn ratio_to_db(r: f64) -> f64 {
    10.0 * r.log10()
}

/// Converts decibels to a power ratio.
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Adds complex AWGN of total power `noise_power` (watts, i.e. |n|² mean) to
/// every sample of `sig`.
pub fn add_awgn<R: Rng + ?Sized>(sig: &mut Signal, noise_power: f64, rng: &mut R) {
    if noise_power <= 0.0 {
        return;
    }
    for c in sig.samples.iter_mut() {
        *c += complex_gaussian(rng, noise_power);
    }
}

/// Generates a pure complex-AWGN signal of `n` samples with total power
/// `noise_power` watts.
pub fn awgn_signal<R: Rng + ?Sized>(
    fs: f64,
    fc: f64,
    n: usize,
    noise_power: f64,
    rng: &mut R,
) -> Signal {
    let samples = (0..n).map(|_| complex_gaussian(rng, noise_power)).collect();
    Signal::new(fs, fc, samples)
}

/// Adds real-valued Gaussian noise with standard deviation `sigma` to a real
/// sample vector (e.g. an envelope-detector output).
pub fn add_real_noise<R: Rng + ?Sized>(samples: &mut [f64], sigma: f64, rng: &mut R) {
    if sigma <= 0.0 {
        return;
    }
    for v in samples.iter_mut() {
        *v += gaussian(rng) * sigma;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn skipping_gaussians_matches_drawing_them() {
        for k in [0, 1, 2, 7, 1000] {
            let mut drawn = StdRng::seed_from_u64(0x5EED ^ k as u64);
            let mut skipped = drawn.clone();
            for _ in 0..k {
                gaussian(&mut drawn);
            }
            skip_gaussians(&mut skipped, k);
            let next = |rng: &mut StdRng| -> [u64; 4] { std::array::from_fn(|_| rng.gen()) };
            assert_eq!(
                next(&mut skipped),
                next(&mut drawn),
                "RNG state differs after {k} variates"
            );
        }
    }

    #[test]
    fn complex_gaussian_power() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let p: f64 = (0..n)
            .map(|_| complex_gaussian(&mut rng, 0.25).norm_sq())
            .sum::<f64>()
            / n as f64;
        assert!((p - 0.25).abs() < 0.01, "power {p}");
    }

    #[test]
    fn thermal_floor_matches_minus_174() {
        // kT0 at 1 Hz ≈ −173.98 dBm/Hz.
        let dbm = thermal_noise_dbm(1.0, 0.0);
        assert!((dbm + 174.0).abs() < 0.1, "{dbm}");
        // 1 GHz bandwidth → −84 dBm.
        let dbm = thermal_noise_dbm(1e9, 0.0);
        assert!((dbm + 84.0).abs() < 0.1, "{dbm}");
        // Noise figure adds straight on.
        let dbm_nf = thermal_noise_dbm(1e9, 5.0);
        assert!((dbm_nf - dbm - 5.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_round_trip() {
        for dbm in [-100.0, -30.0, 0.0, 27.0] {
            assert!((watts_to_dbm(dbm_to_watts(dbm)) - dbm).abs() < 1e-9);
        }
        assert!((dbm_to_watts(30.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_watts(27.0) - 0.501).abs() < 1e-3);
    }

    #[test]
    fn db_ratio_round_trip() {
        for db in [-40.0, -3.0, 0.0, 13.0] {
            assert!((ratio_to_db(db_to_ratio(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn awgn_power_matches_request() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Signal::zeros(1e6, 0.0, 50_000);
        add_awgn(&mut s, 1e-9, &mut rng);
        assert!((s.power() / 1e-9 - 1.0).abs() < 0.05);
    }

    #[test]
    fn zero_noise_is_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = Signal::tone(1e6, 0.0, 0.0, 1.0, 100);
        let before = s.clone();
        add_awgn(&mut s, 0.0, &mut rng);
        assert_eq!(s, before);
        let mut v = vec![1.0; 10];
        add_real_noise(&mut v, 0.0, &mut rng);
        assert!(v.iter().all(|x| *x == 1.0));
    }

    #[test]
    fn seeded_noise_is_reproducible() {
        let a = awgn_signal(1e6, 0.0, 64, 1.0, &mut StdRng::seed_from_u64(7));
        let b = awgn_signal(1e6, 0.0, 64, 1.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn real_noise_sigma() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v = vec![0.0; 100_000];
        add_real_noise(&mut v, 0.5, &mut rng);
        let var = v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64;
        assert!((var - 0.25).abs() < 0.01);
    }
}
