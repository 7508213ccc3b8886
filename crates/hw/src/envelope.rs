//! Envelope (power) detector model (ADL6010-class).
//!
//! The envelope detector is the node's entire receive chain: it converts
//! the mmWave signal captured by an FSA port directly to a baseband
//! voltage, with no mixer or oscillator (paper §4, §6.2). The ADL6010 is a
//! *linear-in-voltage* detector: `V_out ≈ slope · |v_in|`.
//!
//! Two non-idealities matter to MilBack and are modeled here:
//!
//! * finite video bandwidth (rise/fall time) — this is what limits the
//!   downlink to 36 Mbps (paper §9.4);
//! * output noise — together with the received power this sets the
//!   downlink SINR of Figure 14.

use milback_dsp::filter::OnePole;
use milback_dsp::noise::{add_real_noise_keyed, fill_key};
use rand::rngs::StdRng;

/// An envelope detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeDetector {
    /// Voltage conversion slope, V out per V of RF envelope in.
    pub slope: f64,
    /// Video (output) bandwidth, Hz — sets the rise/fall time.
    pub video_bandwidth: f64,
    /// Output-referred noise density, V/√Hz.
    pub noise_density: f64,
    /// Input impedance, ohms (matched to the FSA port).
    pub input_impedance: f64,
    /// Static power draw, mW.
    pub power_mw: f64,
}

impl EnvelopeDetector {
    /// The ADL6010-class detector of the MilBack prototype.
    ///
    /// A 36 Mbps OOK stream needs ≈ 36 MHz of video bandwidth; the paper
    /// says the detector's rise/fall time is exactly what caps the rate
    /// there, so the model uses 36 MHz.
    pub fn adl6010() -> Self {
        Self {
            slope: 2.1,
            video_bandwidth: 36e6,
            noise_density: 60e-9,
            input_impedance: 50.0,
            power_mw: 8.0,
        }
    }

    /// RMS output noise over the full video bandwidth, volts.
    pub fn output_noise_rms(&self) -> f64 {
        self.noise_density * self.video_bandwidth.sqrt()
    }

    /// Ideal (noiseless, infinite-bandwidth) output voltage for an RF
    /// input power `p_in` watts: `slope · √(p·R)`.
    pub fn ideal_output(&self, p_in: f64) -> f64 {
        self.slope * (p_in.max(0.0) * self.input_impedance).sqrt()
    }

    /// The noise stream key of one reception: one word from `rng`, or
    /// `None` (no draw) for a noiseless detector.
    pub fn noise_key(&self, rng: &mut StdRng) -> Option<u64> {
        fill_key(rng, self.output_noise_rms())
    }

    /// Sample rate of a payload's video at `symbol_rate`: twice the
    /// video bandwidth, or 8 samples per symbol when that is faster.
    pub fn payload_video_rate(&self, symbol_rate: f64) -> f64 {
        (2.0 * self.video_bandwidth).max(8.0 * symbol_rate)
    }

    /// RMS of the output noise as a white stream at `fs`: the noise
    /// density over the stream's `fs/2` band, so that its density, not
    /// its per-sample σ, is the same at every rate. At `fs = 2·BW` it is
    /// [`Self::output_noise_rms`].
    pub fn noise_rms_at(&self, fs: f64) -> f64 {
        self.noise_density * (fs / 2.0).sqrt()
    }

    /// The video of a detector input whose RF envelope holds
    /// `envelope(k)` volts (across the input impedance) over symbol `k`
    /// of `n_symbols` at `symbol_rate`: the detector law (`slope ·
    /// |v|`) and video low-pass at `fs`, then output noise white at `fs`
    /// ([`Self::noise_rms_at`]) on the stream `key` (from
    /// [`Self::noise_key`]), into `out` (cleared first, capacity
    /// reused).
    pub fn symbol_video_into(
        &self,
        n_symbols: usize,
        envelope: impl Fn(usize) -> f64,
        symbol_rate: f64,
        fs: f64,
        key: Option<u64>,
        out: &mut Vec<f64>,
    ) {
        let mut lp = OnePole::new(self.video_bandwidth, fs);
        let n = (n_symbols as f64 * fs / symbol_rate).round() as usize;
        let symbol = |i: usize| ((i as f64 * symbol_rate / fs) as usize).min(n_symbols - 1);
        out.clear();
        out.extend((0..n).map(|i| lp.step(self.slope * envelope(symbol(i)).abs())));
        if let Some(key) = key {
            add_real_noise_keyed(out, self.noise_rms_at(fs), key);
        }
    }
}

/// The mean envelope of two tones of amplitudes `a` and `b` beating
/// at a rate far above the video bandwidth: the mean of `|a + b·e^{jθ}|`
/// over a beat period, `(2/π)(a+b)·E(m)` with `m = 4ab/(a+b)²` and `E`
/// the complete elliptic integral of the second kind, evaluated by the
/// arithmetic-geometric mean.
pub fn two_tone_envelope(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    let s = a + b;
    if a == b {
        // m = 1: E = 1 (the AGM below would not converge).
        return 2.0 * s / std::f64::consts::PI;
    }
    // E(m) = π/(2·M) · (1 − Σ 2^(n−1)·c_n²), M = AGM(1, √(1−m)),
    // with c_0² = m; here (a+b) and |a−b| stand for 1 and √(1−m).
    let (mut x, mut y) = (s, (a - b).abs());
    let (mut sum, mut weight) = (0.5 * (4.0 * a * b), 0.5);
    while x - y > 1e-15 * s {
        let c = 0.5 * (x - y);
        weight *= 2.0;
        sum += weight * c * c;
        (x, y) = (0.5 * (x + y), (x * y).sqrt());
    }
    (s * s - sum) / x
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_dsp::num::Cpx;
    use rand::SeedableRng;

    /// The noiseless video of one envelope (volts) per symbol at
    /// `symbol_rate`, rendered at `fs`.
    fn clean(det: &EnvelopeDetector, levels: &[f64], symbol_rate: f64, fs: f64) -> Vec<f64> {
        let mut out = Vec::new();
        det.symbol_video_into(levels.len(), |k| levels[k], symbol_rate, fs, None, &mut out);
        out
    }

    /// A noisy payload video of `levels` (one envelope per symbol).
    fn detect(det: &EnvelopeDetector, levels: &[f64], fs: f64, rng: &mut StdRng) -> Vec<f64> {
        let mut out = Vec::new();
        let key = det.noise_key(rng);
        det.symbol_video_into(levels.len(), |k| levels[k], 1e6, fs, key, &mut out);
        out
    }

    #[test]
    fn ideal_output_scales_with_sqrt_power() {
        let det = EnvelopeDetector::adl6010();
        let v1 = det.ideal_output(1e-6);
        let v4 = det.ideal_output(4e-6);
        assert!((v4 / v1 - 2.0).abs() < 1e-12);
        assert_eq!(det.ideal_output(-1.0), 0.0);
    }

    #[test]
    fn clean_video_settles_to_ideal() {
        let det = EnvelopeDetector::adl6010();
        let fs = 1e9;
        let p_in = 1e-6; // −30 dBm
        let amp = (p_in * det.input_impedance).sqrt();
        let out = clean(&det, &[amp; 2000], fs, fs);
        let expected = det.ideal_output(p_in);
        assert!(
            (out[1999] - expected).abs() < 1e-3 * expected,
            "settled {} vs {}",
            out[1999],
            expected
        );
    }

    #[test]
    fn video_bandwidth_limits_fast_ook() {
        let det = EnvelopeDetector::adl6010();
        let fs = 2e9;
        let amp = 1e-3;
        let ook = |n: usize| {
            (0..n)
                .map(|k| if k % 2 == 0 { amp } else { 0.0 })
                .collect::<Vec<_>>()
        };
        let swing = |out: &[f64]| {
            let late = &out[out.len() / 2..];
            let max = late.iter().cloned().fold(f64::MIN, f64::max);
            let min = late.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let full = det.ideal_output(amp * amp / det.input_impedance);
        // 200 Mbps OOK: 10 ns bits — far beyond the 36 MHz video BW. The
        // output cannot track: swing collapses toward the mean.
        let fast = swing(&clean(&det, &ook(40), 200e6, fs));
        assert!(fast < 0.6 * full, "swing {fast} vs full {full}");
        // 10 Mbps OOK: 100 ns bits — comfortably within the video BW.
        let slow = swing(&clean(&det, &ook(10), 10e6, fs));
        assert!(slow > 0.9 * full, "slow swing {slow}");
    }

    #[test]
    fn payload_noise_has_the_same_density_at_every_rate() {
        // White at the stream rate: σ² = e_n²·fs/2, which is the
        // full-band output noise at fs = 2·BW.
        let det = EnvelopeDetector::adl6010();
        let mut rng = StdRng::seed_from_u64(9);
        for fs in [2.0 * det.video_bandwidth, 1e9] {
            let out = detect(&det, &[0.0; 100], fs, &mut rng);
            let rms = (out.iter().map(|v| v * v).sum::<f64>() / out.len() as f64).sqrt();
            let expected = det.noise_density * (fs / 2.0).sqrt();
            assert!(
                (rms / expected - 1.0).abs() < 0.05,
                "fs {fs}: rms {rms} vs {expected}"
            );
        }
        let at_2bw = det.noise_rms_at(2.0 * det.video_bandwidth);
        assert!((at_2bw / det.output_noise_rms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn payload_video_settles_to_the_detector_law_per_symbol() {
        let det = EnvelopeDetector {
            noise_density: 0.0,
            ..EnvelopeDetector::adl6010()
        };
        let fs = det.payload_video_rate(1e6);
        assert_eq!(fs, 72e6);
        let levels = [1e-3, 0.0, 4e-3];
        let out = detect(&det, &levels, fs, &mut StdRng::seed_from_u64(1));
        assert_eq!(out.len(), 216);
        for (k, &v) in levels.iter().enumerate() {
            let settled = out[72 * k + 71];
            assert!(
                (settled - det.slope * v).abs() < 1e-9,
                "symbol {k}: {settled}"
            );
        }
        assert_eq!(det.payload_video_rate(20e6), 160e6);
    }

    #[test]
    fn two_tone_envelope_is_the_beat_mean() {
        // Trapezoid over one beat period converges fast on this smooth
        // periodic integrand (away from a = b, where it has a kink).
        let mean = |a: f64, b: f64| {
            let n = 4096;
            (0..n)
                .map(|i| {
                    (Cpx::new(a, 0.0)
                        + Cpx::from_polar(b, i as f64 * std::f64::consts::TAU / n as f64))
                    .abs()
                })
                .sum::<f64>()
                / n as f64
        };
        for (a, b) in [
            (1.0, 0.0),
            (1.0, 0.1),
            (0.3, 1.0),
            (2e-3, 1.5e-3),
            (1.0, 0.9),
        ] {
            let got = two_tone_envelope(a, b);
            assert!(
                (got / mean(a, b) - 1.0).abs() < 1e-9,
                "({a}, {b}): {got} vs {}",
                mean(a, b)
            );
        }
        let equal = two_tone_envelope(1.0, 1.0);
        assert!((equal - 4.0 / std::f64::consts::PI).abs() < 1e-15);
        assert_eq!(two_tone_envelope(0.0, 0.0), 0.0);
    }

    #[test]
    fn detection_is_deterministic_with_seed() {
        let det = EnvelopeDetector::adl6010();
        let a = detect(&det, &[1e-3, 0.0], 72e6, &mut StdRng::seed_from_u64(1));
        let b = detect(&det, &[1e-3, 0.0], 72e6, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }
}
