//! Window functions for spectral analysis.
//!
//! The AP's range FFT uses a Hann window to keep strong clutter returns from
//! leaking over the node's weak backscatter peak; the other classic windows
//! are provided for experimentation and for the ablation benches.

use std::f64::consts::PI;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Window {
    /// Rectangular (no) window: best resolution, worst leakage.
    Rect,
    /// Hann window: −31 dB first side lobe, the default for range processing.
    Hann,
    /// Hamming window: −41 dB first side lobe, slightly wider main lobe.
    Hamming,
    /// Blackman window: −58 dB side lobes for clutter-dominated scenes.
    Blackman,
    /// 4-term Blackman-Harris: −92 dB side lobes.
    BlackmanHarris,
}

impl Window {
    /// Evaluates the window at sample `i` of an `n`-point window.
    ///
    /// Uses the *periodic* (DFT-even) convention, which is the right one for
    /// spectral analysis with an `n`-point FFT.
    pub fn coeff(self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = 2.0 * PI * i as f64 / n as f64;
        match self {
            Window::Rect => 1.0,
            Window::Hann => 0.5 - 0.5 * x.cos(),
            Window::Hamming => 0.54 - 0.46 * x.cos(),
            Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
            }
        }
    }

    /// Generates the full `n`-point window.
    pub fn generate(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coeff(i, n)).collect()
    }

    /// Coherent gain: mean of the window coefficients. Dividing a windowed
    /// FFT peak by `n * coherent_gain` recovers the amplitude of a tone.
    pub fn coherent_gain(self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        self.generate(n).iter().sum::<f64>() / n as f64
    }

    /// Noise-equivalent bandwidth in bins. Multiplying the per-bin noise
    /// power by this factor gives the effective noise power under the peak.
    pub fn enbw(self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let w = self.generate(n);
        let s1: f64 = w.iter().sum();
        let s2: f64 = w.iter().map(|v| v * v).sum();
        n as f64 * s2 / (s1 * s1)
    }
}

/// Zeroth-order modified Bessel function of the first kind, via its
/// rapidly-converging power series — the kernel of the Kaiser window.
pub fn bessel_i0(x: f64) -> f64 {
    let mut sum = 1.0;
    let mut term = 1.0;
    let half_x = x / 2.0;
    for k in 1..64 {
        term *= (half_x / k as f64) * (half_x / k as f64);
        sum += term;
        if term < 1e-18 * sum {
            break;
        }
    }
    sum
}

/// Generates an `n`-point Kaiser window with shape parameter `beta`.
/// Kaiser trades main-lobe width against side-lobe level continuously:
/// β ≈ 0 is rectangular, β ≈ 8.6 matches Blackman.
pub fn kaiser(n: usize, beta: f64) -> Vec<f64> {
    assert!(beta >= 0.0, "beta must be non-negative");
    if n <= 1 {
        return vec![1.0; n];
    }
    let denom = bessel_i0(beta);
    let m = (n - 1) as f64;
    (0..n)
        .map(|i| {
            let r = 2.0 * i as f64 / m - 1.0;
            bessel_i0(beta * (1.0 - r * r).sqrt()) / denom
        })
        .collect()
}

/// Kaiser β for a desired side-lobe attenuation `atten_db` (Kaiser's
/// empirical formula).
pub fn kaiser_beta(atten_db: f64) -> f64 {
    if atten_db > 50.0 {
        0.1102 * (atten_db - 8.7)
    } else if atten_db >= 21.0 {
        0.5842 * (atten_db - 21.0).powf(0.4) + 0.07886 * (atten_db - 21.0)
    } else {
        0.0
    }
}

/// Multiplies a complex signal by a window in place.
pub fn apply_window(data: &mut [crate::num::Cpx], window: Window) {
    let n = data.len();
    for (i, c) in data.iter_mut().enumerate() {
        *c *= window.coeff(i, n);
    }
}

/// Per-thread cache of generated window coefficient vectors, keyed by
/// `(shape, length)`. A 16384-point Hann window costs 16384 `cos` calls
/// to generate; the range pipeline applies it on *every* chirp, so the
/// hot paths multiply by the cached table instead (the range FFT's
/// padded gather, `FftPlan::forward_padded_into`). Coefficients come
/// from the same [`Window::coeff`] formula, so scaling by the table is
/// bitwise identical to [`apply_window`].
const MAX_CACHED_WINDOWS: usize = 64;

type WindowCache =
    std::cell::RefCell<std::collections::HashMap<(Window, usize), std::rc::Rc<[f64]>>>;

thread_local! {
    static WINDOW_CACHE: WindowCache = std::cell::RefCell::new(std::collections::HashMap::new());
}

/// The cached `n`-point coefficient table for `window` (built on first
/// use per thread). Clear-on-overflow capped like the waveform template
/// cache, so pathological size churn cannot grow memory unboundedly.
pub fn cached_coeffs(window: Window, n: usize) -> std::rc::Rc<[f64]> {
    WINDOW_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if let Some(w) = cache.get(&(window, n)) {
            milback_telemetry::counter_add("dsp.window_cache.hit.local", 1);
            return w.clone();
        }
        milback_telemetry::counter_add("dsp.window_cache.miss.local", 1);
        if cache.len() >= MAX_CACHED_WINDOWS {
            cache.clear();
        }
        let w: std::rc::Rc<[f64]> = window.generate(n).into();
        cache.insert((window, n), w.clone());
        w
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::Cpx;

    #[test]
    fn rect_is_all_ones() {
        assert!(Window::Rect.generate(16).iter().all(|v| *v == 1.0));
        assert!((Window::Rect.coherent_gain(16) - 1.0).abs() < 1e-12);
        assert!((Window::Rect.enbw(16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let w = Window::Hann.generate(64);
        assert!(w[0].abs() < 1e-12); // periodic Hann starts at 0
        assert!((w[32] - 1.0).abs() < 1e-12); // peak at n/2
    }

    #[test]
    fn windows_bounded_zero_one() {
        for win in [
            Window::Rect,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::BlackmanHarris,
        ] {
            for v in win.generate(97) {
                assert!(
                    (-1e-9..=1.0 + 1e-9).contains(&v),
                    "{win:?} out of range: {v}"
                );
            }
        }
    }

    #[test]
    fn hann_coherent_gain_is_half() {
        assert!((Window::Hann.coherent_gain(1024) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hann_enbw_is_1_5() {
        assert!((Window::Hann.enbw(1024) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(Window::Hann.generate(0).len(), 0);
        assert_eq!(Window::Hann.generate(1), vec![1.0]);
        assert_eq!(Window::Blackman.coherent_gain(0), 1.0);
    }

    #[test]
    fn bessel_i0_known_values() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-15);
        // I0(1) ≈ 1.2660658, I0(5) ≈ 27.2398718.
        assert!((bessel_i0(1.0) - 1.2660658).abs() < 1e-6);
        assert!((bessel_i0(5.0) - 27.2398718).abs() < 1e-5);
    }

    #[test]
    fn kaiser_shape() {
        let w = kaiser(65, 8.0);
        // Symmetric, peak 1 at the center, small at the edges.
        assert!((w[32] - 1.0).abs() < 1e-12);
        for i in 0..32 {
            assert!((w[i] - w[64 - i]).abs() < 1e-12, "asymmetry at {i}");
        }
        assert!(w[0] < 0.01);
        // Zero beta is rectangular.
        assert!(kaiser(16, 0.0).iter().all(|v| (*v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn kaiser_beta_formula() {
        assert_eq!(kaiser_beta(10.0), 0.0);
        assert!((kaiser_beta(60.0) - 0.1102 * 51.3).abs() < 1e-9);
        let b30 = kaiser_beta(30.0);
        assert!(b30 > 1.0 && b30 < 3.5, "{b30}");
    }

    #[test]
    fn kaiser_sidelobes_meet_spec() {
        use crate::fft::fft;
        use crate::num::Cpx;
        // 60 dB design: window's FFT side lobes must sit ≤ −55 dB.
        let n = 128;
        let w = kaiser(n, kaiser_beta(60.0));
        let mut buf: Vec<Cpx> = w.iter().map(|v| Cpx::new(*v, 0.0)).collect();
        buf.resize(n * 8, crate::num::ZERO);
        let spec: Vec<f64> = fft(&buf).iter().map(|c| c.norm_sq()).collect();
        let peak = spec[0];
        // Skip the main lobe (≈6 window bins at this β = 48 padded bins).
        let worst = spec[48..spec.len() / 2]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        let rel_db = 10.0 * (worst / peak).log10();
        assert!(rel_db < -55.0, "side lobes {rel_db} dB");
    }

    #[test]
    fn cached_coeffs_scale_like_apply_window_bitwise() {
        for win in [
            Window::Rect,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::BlackmanHarris,
        ] {
            for n in [1usize, 7, 64, 1000] {
                let base: Vec<Cpx> = (0..n)
                    .map(|i| Cpx::new(i as f64 * 0.3 - 1.0, -(i as f64) * 0.7))
                    .collect();
                let mut plain = base.clone();
                apply_window(&mut plain, win);
                // Twice: the second lookup hits the cache.
                for pass in 0..2 {
                    let w = cached_coeffs(win, n);
                    let scaled: Vec<Cpx> =
                        base.iter().zip(w.iter()).map(|(c, k)| *c * *k).collect();
                    assert_eq!(plain, scaled, "{win:?} n={n} pass {pass}");
                }
            }
        }
    }

    #[test]
    fn apply_window_scales_samples() {
        let mut v = vec![Cpx::new(2.0, 0.0); 8];
        apply_window(&mut v, Window::Hann);
        assert!(v[0].abs() < 1e-12);
        assert!((v[4].re - 2.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_tone_amplitude_recovery() {
        use crate::fft::fft;
        use std::f64::consts::PI;
        let n = 256;
        let amp = 3.0;
        let k0 = 40;
        let mut x: Vec<Cpx> = (0..n)
            .map(|t| Cpx::from_polar(amp, 2.0 * PI * (k0 * t) as f64 / n as f64))
            .collect();
        apply_window(&mut x, Window::Hann);
        let y = fft(&x);
        let peak = y[k0].abs();
        let recovered = peak / (n as f64 * Window::Hann.coherent_gain(n));
        assert!((recovered - amp).abs() < 1e-9);
    }
}
