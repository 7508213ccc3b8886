//! Statistical oracle for the Gaussian noise generator.
//!
//! Bit pins cannot judge a generator that changes on purpose; these
//! tests judge the distribution instead. Every fill uses a fixed seed,
//! and every bound is stated as a multiple of the statistic's standard
//! error under the null hypothesis (the fill is i.i.d. N(0, σ²)), or as
//! a tabulated critical value. A correct generator passes each bound
//! with a margin of at least 4 standard errors; a planted σ × 1.05
//! fails the variance, Kolmogorov–Smirnov and tail checks.

use milback_dsp::noise::{add_awgn, add_real_noise_keyed, fill_key};
use milback_dsp::signal::Signal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Real-fill length: 2²¹ samples.
const N: usize = 1 << 21;

/// Standard errors a statistic may stray from its null value: a
/// false failure has probability below 6·10⁻⁷ per check.
const Z: f64 = 5.0;

/// The standard normal CDF, through `erfc` (Numerical Recipes'
/// Chebyshev fit, fractional error < 1.2·10⁻⁷ everywhere — far below
/// the Kolmogorov–Smirnov bound at this `N`).
fn phi(x: f64) -> f64 {
    let z = x.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let erfc = t * poly.exp();
    if x >= 0.0 {
        1.0 - 0.5 * erfc
    } else {
        0.5 * erfc
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Central moment of order `k`.
fn moment(xs: &[f64], k: i32) -> f64 {
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(k)).sum::<f64>() / xs.len() as f64
}

/// Sample correlation coefficient of two equal-length sequences.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (mean(a), mean(b));
    let (mut ab, mut aa, mut bb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        ab += (x - ma) * (y - mb);
        aa += (x - ma) * (x - ma);
        bb += (y - mb) * (y - mb);
    }
    ab / (aa * bb).sqrt()
}

/// Kolmogorov–Smirnov distance between the empirical CDF of `xs` and Φ.
fn ks_distance(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = phi(x);
            (f - i as f64 / n).max((i + 1) as f64 / n - f)
        })
        .fold(0.0, f64::max)
}

/// Asserts that standard-normal `xs` (already divided by σ) has the
/// moments, CDF, tail mass and whiteness of N(0, 1).
fn assert_standard_normal(xs: &[f64], what: &str) {
    let n = xs.len() as f64;
    let se = 1.0 / n.sqrt();
    let m = mean(xs);
    assert!(m.abs() < Z * se, "{what}: mean {m}");
    // Var(s²) = 2/n and Var(m₄) = (105 − 9)/n under N(0, 1).
    let var = moment(xs, 2);
    assert!(
        (var - 1.0).abs() < Z * (2.0 / n).sqrt(),
        "{what}: variance {var}"
    );
    let m4 = moment(xs, 4);
    assert!((m4 - 3.0).abs() < Z * (96.0 / n).sqrt(), "{what}: m4 {m4}");
    // The odd third moment has Var(m₃) = 15/n.
    let m3 = moment(xs, 3);
    assert!(m3.abs() < Z * (15.0 / n).sqrt(), "{what}: m3 {m3}");
    // 1.63/√n is the asymptotic 1% critical value of D.
    let d = ks_distance(xs);
    assert!(d < 1.63 * se, "{what}: KS distance {d}");
    // Tail mass beyond 3σ: p = 2(1 − Φ(3)), binomial standard error.
    // The KS distance is blind out here.
    let p = 2.0 * (1.0 - phi(3.0));
    let tail = xs.iter().filter(|x| x.abs() > 3.0).count() as f64 / n;
    assert!(
        (tail - p).abs() < Z * (p * (1.0 - p) / n).sqrt(),
        "{what}: tail mass {tail} vs {p}"
    );
    let r1 = correlation(&xs[..xs.len() - 1], &xs[1..]);
    assert!(r1.abs() < Z * se, "{what}: lag-1 autocorrelation {r1}");
}

/// A real fill of `n` samples at `sigma`, keyed from the caller's RNG.
fn real_fill(n: usize, sigma: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut xs = vec![0.0; n];
    let key = fill_key(rng, sigma).expect("positive sigma");
    add_real_noise_keyed(&mut xs, sigma, key);
    xs
}

/// A complex fill of `n` samples at total power `power`, split into
/// its components.
fn complex_fill(n: usize, power: f64, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let mut sig = Signal::zeros(1e9, 0.0, n);
    add_awgn(&mut sig, power, rng);
    sig.samples.iter().map(|c| (c.re, c.im)).unzip()
}

#[test]
fn real_fill_is_standard_normal_times_sigma() {
    let sigma = 0.37;
    let xs = real_fill(N, sigma, &mut StdRng::seed_from_u64(0x0_5EED_0001));
    let unit: Vec<f64> = xs.iter().map(|x| x / sigma).collect();
    assert_standard_normal(&unit, "real fill");
}

#[test]
fn complex_fill_is_circular_with_the_requested_power() {
    let power = 2.5e-9;
    let (re, im) = complex_fill(N / 2, power, &mut StdRng::seed_from_u64(0x0_5EED_0002));
    let s = (power / 2.0).sqrt();
    let re: Vec<f64> = re.iter().map(|x| x / s).collect();
    let im: Vec<f64> = im.iter().map(|x| x / s).collect();
    assert_standard_normal(&re, "complex fill, real part");
    assert_standard_normal(&im, "complex fill, imaginary part");
    // Circularity: E[re·im] = 0 and equal component powers, so the
    // pseudo-covariance E[z²] = E[re²] − E[im²] + 2j·E[re·im] vanishes.
    let n = re.len() as f64;
    let rho = correlation(&re, &im);
    assert!(rho.abs() < Z / n.sqrt(), "re/im correlation {rho}");
    let ratio = moment(&re, 2) / moment(&im, 2);
    // Var(ratio) ≈ 4/n for two independent unit variances.
    assert!(
        (ratio - 1.0).abs() < Z * (4.0 / n).sqrt(),
        "component power ratio {ratio}"
    );
}

#[test]
fn consecutive_fills_are_uncorrelated() {
    // Fills from one RNG, back to back: real, then complex.
    let n = 1 << 18;
    let se = 1.0 / (n as f64).sqrt();
    let mut rng = StdRng::seed_from_u64(0x0_5EED_0003);
    let a = real_fill(n, 1.0, &mut rng);
    let b = real_fill(n, 1.0, &mut rng);
    let rho = correlation(&a, &b);
    assert!(rho.abs() < Z * se, "consecutive real fills: {rho}");
    let (are, aim) = complex_fill(n, 2.0, &mut rng);
    let (bre, bim) = complex_fill(n, 2.0, &mut rng);
    for (x, y, what) in [
        (&are, &bre, "re/re"),
        (&aim, &bim, "im/im"),
        (&are, &bim, "re/im"),
        (&aim, &bre, "im/re"),
        (&b, &are, "real/re"),
    ] {
        let rho = correlation(x, y);
        assert!(
            rho.abs() < Z * se,
            "consecutive complex fills {what}: {rho}"
        );
    }
    // Many short fills (below any split threshold) in a row: the first
    // sample of each is independent of the first sample of the next.
    let firsts: Vec<f64> = (0..n).map(|_| real_fill(3, 1.0, &mut rng)[0]).collect();
    assert_standard_normal(&firsts, "first samples of short fills");
    let joined: Vec<f64> = (0..4096)
        .flat_map(|_| real_fill(64, 1.0, &mut rng))
        .collect();
    assert_standard_normal(&joined, "concatenated 64-sample fills");
}

#[test]
fn different_seeds_give_uncorrelated_fills() {
    let n = 1 << 18;
    let a = real_fill(n, 1.0, &mut StdRng::seed_from_u64(41));
    let b = real_fill(n, 1.0, &mut StdRng::seed_from_u64(42));
    let rho = correlation(&a, &b);
    assert!(rho.abs() < Z / (n as f64).sqrt(), "seed 41 vs 42: {rho}");
}
