//! Digital filters: windowed-sinc FIR design with a decimating kernel,
//! the single-pole low-pass used to model envelope-detector video
//! bandwidth, and a moving-average smoother.
//!
//! The AP's uplink receive chain (paper Fig. 7) mixes the received signal
//! with each query tone and low-pass filters the product down to the
//! processing rate, rejecting the f_A±f_B cross-tone mixing images.
//! Those decimating FIRs live here.

use crate::num::{Cpx, ZERO};
use std::f64::consts::PI;

// ---------------------------------------------------------------------------
// FIR
// ---------------------------------------------------------------------------

/// A finite-impulse-response filter with real taps, applied to complex
/// signals. The default holds no taps: a buffer to design into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fir {
    /// Filter taps.
    pub taps: Vec<f64>,
}

impl Fir {
    /// Designs a windowed-sinc low-pass with an explicit window choice.
    /// The window sets the stopband floor (Hamming ≈ −53 dB, Blackman ≈
    /// −74 dB, Blackman-Harris ≈ −92 dB) — pick Blackman-Harris when a
    /// strong out-of-band interferer must be crushed, e.g. the cross-tone
    /// clutter in the uplink mixer chain.
    pub fn lowpass_with_window(
        cutoff: f64,
        fs: f64,
        n_taps: usize,
        window: crate::window::Window,
    ) -> Self {
        let mut fir = Self::default();
        fir.redesign_lowpass(cutoff, fs, n_taps, window);
        fir
    }

    /// [`Fir::lowpass_with_window`] in place: overwrites the taps with
    /// that design, bit for bit, reusing their capacity.
    pub fn redesign_lowpass(
        &mut self,
        cutoff: f64,
        fs: f64,
        n_taps: usize,
        window: crate::window::Window,
    ) {
        assert!(cutoff > 0.0 && cutoff < fs / 2.0, "cutoff out of range");
        assert!(n_taps >= 3, "need at least 3 taps");
        let fc = cutoff / fs;
        let m = (n_taps - 1) as f64 / 2.0;
        self.taps.clear();
        self.taps.extend((0..n_taps).map(|i| {
            let x = i as f64 - m;
            let sinc = if x == 0.0 {
                2.0 * fc
            } else {
                (2.0 * PI * fc * x).sin() / (PI * x)
            };
            sinc * window.coeff(i, n_taps - 1)
        }));
        let sum: f64 = self.taps.iter().sum();
        for t in self.taps.iter_mut() {
            *t /= sum;
        }
    }

    /// Convolves the filter with a complex signal ("same" mode: output
    /// has the input length, aligned to remove the group delay) into a
    /// pooled buffer: `out` is cleared and refilled (reusing its
    /// capacity). The same kernel as [`Fir::decimate_into`] at factor 1.
    pub fn apply_into(&self, input: &[Cpx], out: &mut Vec<Cpx>) {
        self.decimate_into(input, 1, out);
    }

    /// Filters and decimates in one pass: `out` is cleared and refilled
    /// with outputs `0, factor, 2·factor, …` of [`Fir::apply_into`], and no
    /// other output is computed. Each one accumulates from zero over the
    /// taps in order `j = 0..k`, exactly as the full-rate filter does, so
    /// the result is bitwise the full-rate output strided by `factor`.
    ///
    /// Outputs whose whole window lies inside `input` run four at a time
    /// over slices with no per-tap bounds check: four independent
    /// accumulators, each summed in tap order, so their adds overlap
    /// without reordering any one sum. The rest (edge outputs, whose
    /// window overhangs the input, and the last few interior ones) run
    /// a loop that tests each index.
    ///
    /// # Panics
    ///
    /// If `factor` is 0.
    pub fn decimate_into(&self, input: &[Cpx], factor: usize, out: &mut Vec<Cpx>) {
        assert!(factor >= 1, "decimation factor must be at least 1");
        let n = input.len();
        let k = self.taps.len();
        // Output i corresponds to full-convolution index i + delay: it
        // reads input[i + delay - j] for tap j.
        let delay = (k - 1) / 2;
        // Outputs in [first, end) read a window that lies in the input.
        let first = k - 1 - delay;
        let end = n.saturating_sub(delay);
        // The window of interior output i, in tap order.
        let window = |i: usize| input[i + delay + 1 - k..=i + delay].iter().rev();
        out.clear();
        out.reserve(n.div_ceil(factor));
        let mut i = 0;
        while i < n {
            if (first..end).contains(&i) && (end - i - 1) / factor >= 3 {
                let mut acc = [ZERO; 4];
                let lanes = window(i)
                    .zip(window(i + factor))
                    .zip(window(i + 2 * factor).zip(window(i + 3 * factor)));
                for (t, ((x0, x1), (x2, x3))) in self.taps.iter().zip(lanes) {
                    acc[0] += *x0 * *t;
                    acc[1] += *x1 * *t;
                    acc[2] += *x2 * *t;
                    acc[3] += *x3 * *t;
                }
                out.extend_from_slice(&acc);
                i += 4 * factor;
            } else {
                let mut acc = ZERO;
                for (j, t) in self.taps.iter().enumerate() {
                    let idx = (i + delay) as isize - j as isize;
                    if idx >= 0 && (idx as usize) < n {
                        acc += input[idx as usize] * *t;
                    }
                }
                out.push(acc);
                i = i.saturating_add(factor);
            }
        }
    }

    /// Magnitude response at frequency `f` (Hz) for sample rate `fs`.
    pub fn response_at(&self, f: f64, fs: f64) -> f64 {
        let w = 2.0 * PI * f / fs;
        let h: Cpx = self
            .taps
            .iter()
            .enumerate()
            .map(|(n, t)| Cpx::from_polar(*t, -w * n as f64))
            .sum();
        h.abs()
    }
}

// ---------------------------------------------------------------------------
// Single-pole low-pass (RC)
// ---------------------------------------------------------------------------

/// First-order RC low-pass, used to model the finite video bandwidth
/// (rise/fall time) of the envelope detectors: `y[n] = y[n-1] + α(x[n] −
/// y[n-1])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePole {
    alpha: f64,
    state: f64,
}

impl OnePole {
    /// Creates a one-pole low-pass with 3 dB corner `f3db` Hz at sample rate
    /// `fs`.
    pub fn new(f3db: f64, fs: f64) -> Self {
        assert!(f3db > 0.0 && fs > 0.0, "invalid one-pole parameters");
        // Exact impulse-invariant mapping.
        let alpha = 1.0 - (-2.0 * PI * f3db / fs).exp();
        Self { alpha, state: 0.0 }
    }

    /// Processes one sample.
    pub fn step(&mut self, x: f64) -> f64 {
        self.state += self.alpha * (x - self.state);
        self.state
    }
}

/// Simple moving-average smoother over a window of `w` samples (w ≥ 1).
pub fn moving_average(input: &[f64], w: usize) -> Vec<f64> {
    assert!(w >= 1, "window must be at least 1");
    if input.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(input.len());
    let mut acc = 0.0;
    for i in 0..input.len() {
        acc += input[i];
        if i >= w {
            acc -= input[i - w];
        }
        let n = (i + 1).min(w);
        out.push(acc / n as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;
    use crate::window::Window;

    fn hamming_lowpass(cutoff: f64, fs: f64, n_taps: usize) -> Fir {
        Fir::lowpass_with_window(cutoff, fs, n_taps, Window::Hamming)
    }

    fn apply(f: &Fir, input: &[Cpx]) -> Vec<Cpx> {
        let mut out = Vec::new();
        f.apply_into(input, &mut out);
        out
    }

    #[test]
    fn fir_lowpass_passes_dc_rejects_high() {
        let f = hamming_lowpass(0.1e6, 1e6, 63);
        assert!((f.response_at(0.0, 1e6) - 1.0).abs() < 1e-6);
        assert!(f.response_at(0.4e6, 1e6) < 0.01);
        // In-band tone survives, out-of-band tone is crushed.
        let inband = Signal::tone(1e6, 0.0, 0.02e6, 1.0, 2000);
        let out = apply(&f, &inband.samples);
        let p: f64 = out[500..1500].iter().map(|c| c.norm_sq()).sum::<f64>() / 1000.0;
        assert!((p - 1.0).abs() < 0.05, "in-band power {p}");
        let highband = Signal::tone(1e6, 0.0, 0.45e6, 1.0, 2000);
        let out = apply(&f, &highband.samples);
        let p: f64 = out[500..1500].iter().map(|c| c.norm_sq()).sum::<f64>() / 1000.0;
        assert!(p < 1e-3, "out-of-band power {p}");
    }

    #[test]
    fn fir_decimate_keeps_low_frequency_tone() {
        let fs = 1e6;
        let s = Signal::tone(fs, 0.0, 5e3, 1.0, 8000);
        let f = hamming_lowpass(0.4 * fs / 10.0, fs, 63);
        let mut d = Vec::new();
        f.decimate_into(&s.samples, 10, &mut d);
        assert_eq!(d.len(), 800);
        // Power preserved for an in-band tone (away from filter edges).
        let p: f64 = d[100..700].iter().map(|c| c.norm_sq()).sum::<f64>() / 600.0;
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn fir_decimate_suppresses_aliasing_tone() {
        let fs = 1e6;
        // 90 kHz tone would alias to 10 kHz after /10 decimation (Nyquist 50 kHz).
        let s = Signal::tone(fs, 0.0, 90e3, 1.0, 8000);
        let f = hamming_lowpass(0.4 * fs / 10.0, fs, 63);
        let mut d = Vec::new();
        f.decimate_into(&s.samples, 10, &mut d);
        let p: f64 = d[100..700].iter().map(|c| c.norm_sq()).sum::<f64>() / 600.0;
        assert!(p < 0.02, "aliased power {p}");
    }

    #[test]
    fn fir_decimate_by_one_is_the_full_filter() {
        let s = Signal::tone(1e6, 0.0, 1e3, 1.0, 100);
        let f = hamming_lowpass(0.1e6, 1e6, 63);
        let mut d = Vec::new();
        f.decimate_into(&s.samples, 1, &mut d);
        assert_eq!(d, apply(&f, &s.samples));
        // Lengths round up: outputs 0, 3, …, 99.
        f.decimate_into(&s.samples, 3, &mut d);
        assert_eq!(d.len(), 34);
    }

    #[test]
    #[should_panic(expected = "decimation factor must be at least 1")]
    fn fir_decimate_by_zero_panics() {
        hamming_lowpass(0.1e6, 1e6, 63).decimate_into(&[ZERO; 4], 0, &mut Vec::new());
    }

    #[test]
    fn one_pole_step_response_rise_time() {
        let fs = 1e9;
        let rise = 10e-9; // 10 ns, like a fast envelope detector
                          // 10–90% rise time t_r ≈ 0.35 / f3db.
        let mut lp = OnePole::new(0.35 / rise, fs);
        let y: Vec<f64> = (0..100).map(|_| lp.step(1.0)).collect();
        // Find 10% and 90% crossing times.
        let t10 = y.iter().position(|v| *v >= 0.1).unwrap() as f64 / fs;
        let t90 = y.iter().position(|v| *v >= 0.9).unwrap() as f64 / fs;
        let measured = t90 - t10;
        assert!(
            (measured - rise).abs() < 0.35 * rise,
            "rise time {measured} vs requested {rise}"
        );
    }

    #[test]
    fn one_pole_tracks_dc() {
        let mut lp = OnePole::new(1e6, 1e9);
        let last = (0..10_000).map(|_| lp.step(2.5)).last().unwrap();
        assert!((last - 2.5).abs() < 1e-6);
    }

    #[test]
    fn moving_average_smooths() {
        let v = [0.0, 0.0, 4.0, 4.0, 4.0, 4.0];
        let y = moving_average(&v, 4);
        assert_eq!(y[0], 0.0);
        assert_eq!(y[3], 2.0); // window covers samples 0..=3 → (0+0+4+4)/4
        assert_eq!(y[5], 4.0); // window covers samples 2..=5 → all 4.0
        let y = moving_average(&[1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(y, vec![1.0, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let v = [3.0, -1.0, 2.0];
        assert_eq!(moving_average(&v, 1), v.to_vec());
    }
}
