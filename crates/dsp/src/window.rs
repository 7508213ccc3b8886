//! Window functions for spectral analysis.
//!
//! The AP's range FFT uses a Hann window to keep strong clutter returns from
//! leaking over the node's weak backscatter peak; the rectangular and
//! Blackman windows are the window ablation's alternatives.

use std::f64::consts::PI;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Window {
    /// Rectangular (no) window: best resolution, worst leakage.
    Rect,
    /// Hann window: −31 dB first side lobe, the default for range processing.
    Hann,
    /// Blackman window: −58 dB side lobes for clutter-dominated scenes.
    Blackman,
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
            Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
        }
    }

    /// Generates the full `n`-point window.
    pub fn generate(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coeff(i, n)).collect()
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
/// use per thread). Clear-on-overflow capped, so pathological size
/// churn cannot grow memory unboundedly.
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
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let w = Window::Hann.generate(64);
        assert!(w[0].abs() < 1e-12); // periodic Hann starts at 0
        assert!((w[32] - 1.0).abs() < 1e-12); // peak at n/2
    }

    #[test]
    fn windows_bounded_zero_one() {
        for win in [Window::Rect, Window::Hann, Window::Blackman] {
            for v in win.generate(97) {
                assert!(
                    (-1e-9..=1.0 + 1e-9).contains(&v),
                    "{win:?} out of range: {v}"
                );
            }
        }
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(Window::Hann.generate(0).len(), 0);
        assert_eq!(Window::Hann.generate(1), vec![1.0]);
    }

    #[test]
    fn cached_coeffs_scale_like_apply_window_bitwise() {
        for win in [Window::Rect, Window::Hann, Window::Blackman] {
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
        // Coherent gain: the mean window coefficient.
        let coherent_gain = Window::Hann.generate(n).iter().sum::<f64>() / n as f64;
        let recovered = peak / (n as f64 * coherent_gain);
        assert!((recovered - amp).abs() < 1e-9);
    }
}
