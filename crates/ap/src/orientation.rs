//! AP-side orientation estimation (paper §5.2(a), §9.3).
//!
//! The node's FSA reflects strongly only while the chirp's instantaneous
//! frequency matches its beam-alignment frequency. After background
//! subtraction, the surviving (node-only) time-domain signal therefore has
//! a power bump whose *position within the chirp* encodes the alignment
//! frequency: `f(t) = f_start + slope·t`. Locating the bump and mapping
//! time → frequency → FSA beam angle gives the node's orientation.

use milback_dsp::chirp::ChirpConfig;
use milback_dsp::detect::{argmax, parabolic_refine};
use milback_dsp::filter::moving_average;
use milback_dsp::signal::Signal;
use milback_rf::fsa::{DualPortFsa, Port};

/// AP-side orientation estimator.
#[derive(Debug, Clone, Copy)]
pub struct ApOrientationEstimator {
    /// The transmitted sawtooth chirp.
    pub chirp: ChirpConfig,
    /// Envelope smoothing window as a fraction of the chirp length.
    pub smooth_frac: f64,
    /// The window the range processor applied before its FFT (undone
    /// during gated reconstruction).
    pub window: milback_dsp::window::Window,
}

impl ApOrientationEstimator {
    /// Estimator for the given chirp with ~2% smoothing, assuming the
    /// range processor's default Hann window.
    pub fn new(chirp: ChirpConfig) -> Self {
        Self {
            chirp,
            smooth_frac: 0.02,
            window: milback_dsp::window::Window::Hann,
        }
    }

    /// The RF frequency whose reflection was strongest, from a
    /// background-subtracted time-domain difference signal.
    pub fn peak_frequency(&self, diff: &Signal) -> Option<f64> {
        if diff.len() < 16 {
            return None;
        }
        let env: Vec<f64> = diff.samples.iter().map(|c| c.norm_sq()).collect();
        let w = ((env.len() as f64 * self.smooth_frac) as usize).max(1);
        let smoothed = moving_average(&env, w);
        let peak = argmax(&smoothed)?;
        if smoothed[peak] <= 0.0 {
            return None;
        }
        let refined = parabolic_refine(&smoothed, peak);
        // Moving average introduces a group delay of (w−1)/2 samples.
        let center = refined - (w as f64 - 1.0) / 2.0;
        let t = (center / diff.fs).clamp(0.0, self.chirp.duration);
        Some(self.chirp.sawtooth_freq_at(t))
    }

    /// Full estimate: peak frequency → orientation via the FSA scan law of
    /// the toggling port.
    pub fn estimate(&self, diff: &Signal, fsa: &DualPortFsa, toggling_port: Port) -> Option<f64> {
        let f_star = self.peak_frequency(diff)?;
        fsa.beam_angle(toggling_port, f_star)
    }

    /// The paper's exact §5.2(a) flow: FFT → background subtraction →
    /// **gate around the node's range bin** → IFFT → power across the
    /// chirp. Gating rejects all noise and residue outside the node's
    /// beat, which is what makes the time-domain envelope usable at
    /// realistic SNR.
    ///
    /// * `diff_profile` — one background-subtracted range-profile
    ///   difference (the pair `ws.detection` names, after
    ///   `Localizer::process_with`); it may be banded (hold only the
    ///   leading bins), as long as it covers the gate,
    /// * `node_bin` — the node's range-profile bin,
    /// * `half_width` — gate half-width in bins (cover the bump's
    ///   spectral spread),
    /// * `fs` — capture sample rate,
    /// * `n_time` — chirp length in samples (the IFFT output beyond it is
    ///   zero-padding),
    /// * `fft_len` — the range transform's length: the gated spectrum
    ///   is this long whatever `diff_profile`'s length.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's pipeline stages
    pub fn estimate_gated(
        &self,
        diff_profile: &[milback_dsp::num::Cpx],
        node_bin: usize,
        half_width: usize,
        fs: f64,
        n_time: usize,
        fft_len: usize,
        fsa: &DualPortFsa,
        toggling_port: Port,
    ) -> Option<f64> {
        let n = fft_len;
        let kept = diff_profile.len().min(n);
        if node_bin >= kept {
            return None;
        }
        // Gate in the profile domain, then map back to spectrum order
        // (profile bin k holds spectrum bin (n−k) mod n).
        let mut spec = vec![milback_dsp::num::ZERO; n];
        let lo = node_bin.saturating_sub(half_width);
        let hi = (node_bin + half_width + 1).min(kept);
        for k in lo..hi {
            spec[(n - k) % n] = diff_profile[k];
        }
        let time = milback_dsp::fft::ifft(&spec);
        // The range FFT was Hann-windowed, so the reconstructed envelope
        // is the true envelope × w(t); undo it (where the window has
        // usable amplitude) or the peak biases toward the chirp center.
        let n_keep = n_time.min(time.len());
        let samples: Vec<milback_dsp::num::Cpx> = (0..n_keep)
            .map(|i| {
                let w = self.window.coeff(i, n_time);
                if w > 0.15 {
                    time[i] / w
                } else {
                    milback_dsp::num::ZERO
                }
            })
            .collect();
        let sig = Signal::new(fs, 0.0, samples);
        self.estimate(&sig, fsa, toggling_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_dsp::num::Cpx;
    use milback_rf::geometry::{deg_to_rad, rad_to_deg};

    fn test_chirp() -> ChirpConfig {
        ChirpConfig {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: 4e-6,
            fs: 3.2e9,
            amplitude: 1.0,
        }
    }

    /// A synthetic subtracted signal: the node's reflection envelope as
    /// the chirp sweeps past the beam at `f_star`, with bump width set by
    /// the FSA beamwidth in frequency.
    fn synthetic_diff(f_star: f64) -> Signal {
        let cfg = test_chirp();
        let n = cfg.n_samples();
        let t_star = (f_star - cfg.f_start) / cfg.slope();
        let width = 0.15e-6; // seconds — ≈ beamwidth / scan rate
        let samples: Vec<Cpx> = (0..n)
            .map(|i| {
                let t = i as f64 / cfg.fs;
                let x = (t - t_star) / width;
                Cpx::from_polar(0.01 * (-x * x).exp(), 2000.0 * t)
            })
            .collect();
        Signal::new(cfg.fs, cfg.center(), samples)
    }

    #[test]
    fn peak_frequency_recovered() {
        let est = ApOrientationEstimator::new(test_chirp());
        for f in [27.0e9, 27.8e9, 28.6e9, 29.2e9] {
            let d = synthetic_diff(f);
            let got = est.peak_frequency(&d).unwrap();
            assert!((got - f).abs() < 30e6, "f {f} → {got}");
        }
    }

    #[test]
    fn orientation_from_peak_frequency() {
        let fsa = DualPortFsa::milback();
        let est = ApOrientationEstimator::new(test_chirp());
        for deg in [-25.0, -10.0, 0.0, 10.0, 25.0] {
            let orient = deg_to_rad(deg);
            let f_star = fsa.frequency_for_angle(Port::A, orient).unwrap();
            let d = synthetic_diff(f_star);
            let got = est.estimate(&d, &fsa, Port::A).unwrap();
            let err = rad_to_deg(got - orient).abs();
            assert!(err < 1.0, "{deg}°: err {err}°");
        }
    }

    #[test]
    fn empty_or_silent_diff_is_none() {
        let est = ApOrientationEstimator::new(test_chirp());
        let silent = Signal::zeros(3.2e9, 28e9, 12800);
        assert!(est.peak_frequency(&silent).is_none());
        let tiny = Signal::zeros(3.2e9, 28e9, 4);
        assert!(est.peak_frequency(&tiny).is_none());
    }

    #[test]
    fn edge_frequency_clamps() {
        // Bump at the very start of the chirp: frequency clamps to band.
        let est = ApOrientationEstimator::new(test_chirp());
        let d = synthetic_diff(26.5e9);
        let got = est.peak_frequency(&d).unwrap();
        assert!((26.5e9..26.7e9).contains(&got), "{got}");
    }
}
