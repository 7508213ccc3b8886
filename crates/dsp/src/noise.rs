//! Noise generation and thermal-noise arithmetic.
//!
//! Every stochastic experiment in the workspace draws its noise from here,
//! through caller-provided seeded RNGs, so runs are reproducible. Gaussian
//! variates are produced with the Box-Muller transform to avoid pulling in
//! `rand_distr`.
//!
//! Long fills ([`add_awgn`], [`add_real_noise`]) split across two cores
//! when [`par::claim`] finds one idle: the helper fills the head from a
//! clone of the starting RNG while the caller skips the head's variates
//! and fills the tail. Every sample gets the uniforms the serial loop
//! would give it, and the caller's RNG ends where the serial loop leaves
//! it, so the output is bitwise the same (DESIGN.md §17.4).

use crate::num::Cpx;
use crate::par;
use crate::signal::Signal;
use rand::rngs::StdRng;
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

/// Fills shorter than this run serially: below it the two-core
/// handshake costs a large share of what the split saves.
pub const SPLIT_MIN: usize = 2048;

/// The helper claim a fill of `n` samples splits with: `None` below
/// [`SPLIT_MIN`] or when [`par::claim`] fails.
fn split_claim(n: usize) -> Option<par::Claim> {
    (n >= SPLIT_MIN).then(par::claim).flatten()
}

/// Adds `add(x, rng)` to every sample, where each call draws exactly
/// `variates` standard normals. Without a claim this is the serial
/// loop. With one, the helper fills the head from a clone of `rng`
/// while the caller skips the head's variates and fills the tail: the
/// same draws per sample, and `rng` ends where the serial loop leaves
/// it.
fn noise_fill<T: Send>(
    claim: Option<par::Claim>,
    xs: &mut [T],
    variates: usize,
    rng: &mut StdRng,
    add: impl Fn(&mut T, &mut StdRng) + Sync,
) {
    let Some(claim) = claim else {
        for x in xs.iter_mut() {
            add(x, rng);
        }
        return;
    };
    let (head, tail) = xs.split_at_mut(xs.len() / 2);
    let head_variates = variates * head.len();
    let mut head_rng = rng.clone();
    let add = &add;
    claim.join(
        || {
            skip_gaussians(rng, head_variates);
            for x in tail {
                add(x, rng);
            }
        },
        || {
            for x in head {
                add(x, &mut head_rng);
            }
        },
    );
}

/// Standard normals [`add_awgn`] draws for `n` samples at `noise_power`:
/// two per sample, or none when the power is at most zero.
pub fn awgn_variates(n: usize, noise_power: f64) -> usize {
    if noise_power <= 0.0 {
        0
    } else {
        2 * n
    }
}

/// Adds complex AWGN of total power `noise_power` (watts, i.e. |n|² mean) to
/// every sample of `sig`.
pub fn add_awgn(sig: &mut Signal, noise_power: f64, rng: &mut StdRng) {
    awgn_fill(split_claim(sig.len()), &mut sig.samples, noise_power, rng);
}

fn awgn_fill(claim: Option<par::Claim>, xs: &mut [Cpx], noise_power: f64, rng: &mut StdRng) {
    if awgn_variates(xs.len(), noise_power) == 0 {
        return;
    }
    noise_fill(claim, xs, 2, rng, |c, rng| {
        *c += complex_gaussian(rng, noise_power);
    });
}

/// Adds real-valued Gaussian noise with standard deviation `sigma` to a real
/// sample vector (e.g. an envelope-detector output).
pub fn add_real_noise(samples: &mut [f64], sigma: f64, rng: &mut StdRng) {
    real_noise_fill(split_claim(samples.len()), samples, sigma, rng);
}

fn real_noise_fill(claim: Option<par::Claim>, xs: &mut [f64], sigma: f64, rng: &mut StdRng) {
    if sigma <= 0.0 {
        return;
    }
    noise_fill(claim, xs, 1, rng, |v, rng| *v += gaussian(rng) * sigma);
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
        let fill = || {
            let mut s = Signal::zeros(1e6, 0.0, 64);
            add_awgn(&mut s, 1.0, &mut StdRng::seed_from_u64(7));
            s
        };
        assert_eq!(fill(), fill());
    }

    fn next4(rng: &mut StdRng) -> [u64; 4] {
        std::array::from_fn(|_| rng.gen())
    }

    /// A helper claim, waiting out other tests that hold it; `None` on
    /// a 1-core host.
    fn forced_claim() -> Option<par::Claim> {
        if par::cores() < 2 {
            return None;
        }
        loop {
            if let Some(c) = par::claim() {
                return Some(c);
            }
            std::thread::yield_now();
        }
    }

    /// Every fill path — the public function (split or not, as the
    /// helper allows), a forced split and the serial loop — against a
    /// per-sample reference loop: sample bits and the next four RNG
    /// outputs.
    #[test]
    fn split_fills_match_a_per_sample_loop() {
        type Fill<T> = fn(&mut [T], &mut StdRng, u8);
        let awgn: Fill<Cpx> = |xs, rng, path| match path {
            0 => {
                let mut sig = Signal::new(1e9, 0.0, xs.to_vec());
                add_awgn(&mut sig, 0.3, rng);
                xs.copy_from_slice(&sig.samples);
            }
            1 => awgn_fill(forced_claim(), xs, 0.3, rng),
            _ => awgn_fill(None, xs, 0.3, rng),
        };
        let real: Fill<f64> = |xs, rng, path| match path {
            0 => add_real_noise(xs, 0.7, rng),
            1 => real_noise_fill(forced_claim(), xs, 0.7, rng),
            _ => real_noise_fill(None, xs, 0.7, rng),
        };
        for n in [0, 1, SPLIT_MIN - 1, SPLIT_MIN + 1, 10_001, 323_572] {
            let seed = 0xF111 ^ n as u64;
            let start: Vec<Cpx> = (0..n).map(|i| Cpx::new(i as f64, -(i as f64))).collect();
            let mut reference = start.clone();
            let mut ref_rng = StdRng::seed_from_u64(seed);
            for c in reference.iter_mut() {
                let s = (0.3f64 / 2.0).sqrt();
                let re = gaussian(&mut ref_rng) * s;
                let im = gaussian(&mut ref_rng) * s;
                *c += Cpx::new(re, im);
            }
            let ref_next = next4(&mut ref_rng);
            let bits = |xs: &[Cpx]| -> Vec<(u64, u64)> {
                xs.iter()
                    .map(|c| (c.re.to_bits(), c.im.to_bits()))
                    .collect()
            };
            for path in 0..3 {
                let mut xs = start.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                awgn(&mut xs, &mut rng, path);
                assert!(
                    bits(&xs) == bits(&reference),
                    "AWGN bits, n={n} path {path}"
                );
                assert_eq!(next4(&mut rng), ref_next, "AWGN RNG, n={n} path {path}");
            }

            let start: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
            let mut reference = start.clone();
            let mut ref_rng = StdRng::seed_from_u64(seed);
            for v in reference.iter_mut() {
                *v += gaussian(&mut ref_rng) * 0.7;
            }
            let ref_next = next4(&mut ref_rng);
            let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|v| v.to_bits()).collect() };
            for path in 0..3 {
                let mut xs = start.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                real(&mut xs, &mut rng, path);
                assert!(
                    bits(&xs) == bits(&reference),
                    "real-noise bits, n={n} path {path}"
                );
                assert_eq!(
                    next4(&mut rng),
                    ref_next,
                    "real-noise RNG, n={n} path {path}"
                );
            }
        }
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
