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
use milback_dsp::num::Cpx;
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

    /// Detects complex-baseband RF samples at rate `fs`, each scaled by
    /// the amplitude `gain` first (see [`EnvelopeDetector::video_into`]):
    /// envelope → slope → video low-pass → additive output noise on the
    /// stream `key` (from [`EnvelopeDetector::noise_key`]), into `out`
    /// (cleared first, capacity reused) at the input sample rate.
    ///
    /// The samples are interpreted as volts across the detector's input
    /// impedance, so instantaneous input power is `|x|²/R`.
    pub fn detect_into(
        &self,
        samples: &[Cpx],
        gain: f64,
        fs: f64,
        key: Option<u64>,
        out: &mut Vec<f64>,
    ) {
        self.video_into(samples, gain, fs, out);
        // Noise within the video bandwidth, as seen at the output sample
        // rate: the density integrates to σ² = e_n²·BW regardless of fs.
        if let Some(key) = key {
            add_real_noise_keyed(out, self.output_noise_rms(), key);
        }
    }

    /// The noiseless video output for complex samples at rate `fs`, each
    /// scaled by the amplitude `gain` before detection: `|gain·x|` →
    /// slope → video low-pass, into `out` (cleared first, capacity
    /// reused). A gain applied here is bitwise the same as scaling the
    /// signal first, without the scaled copy.
    pub fn video_into(&self, samples: &[Cpx], gain: f64, fs: f64, out: &mut Vec<f64>) {
        let mut lp = OnePole::new(self.video_bandwidth, fs);
        out.clear();
        out.reserve(samples.len());
        out.extend(
            samples
                .iter()
                .map(|c| lp.step(self.slope * (*c * gain).abs())),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_dsp::signal::Signal;
    use rand::SeedableRng;

    fn clean(det: &EnvelopeDetector, sig: &Signal) -> Vec<f64> {
        let mut out = Vec::new();
        det.video_into(&sig.samples, 1.0, sig.fs, &mut out);
        out
    }

    fn detect(det: &EnvelopeDetector, sig: &Signal, rng: &mut StdRng) -> Vec<f64> {
        let mut out = Vec::new();
        det.detect_into(&sig.samples, 1.0, sig.fs, det.noise_key(rng), &mut out);
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
        let sig = Signal::tone(fs, 28e9, 0.0, amp, 2000);
        let out = clean(&det, &sig);
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
        // 200 Mbps OOK: 10 ns bits — far beyond the 36 MHz video BW.
        let fast_bit = (fs / 200e6) as usize;
        let mut samples = Vec::new();
        for k in 0..40 {
            let on = k % 2 == 0;
            for _ in 0..fast_bit {
                samples.push(milback_dsp::num::Cpx::new(if on { amp } else { 0.0 }, 0.0));
            }
        }
        let sig = Signal::new(fs, 28e9, samples);
        let out = clean(&det, &sig);
        // The output cannot track: swing collapses toward the mean.
        let late = &out[out.len() / 2..];
        let max = late.iter().cloned().fold(f64::MIN, f64::max);
        let min = late.iter().cloned().fold(f64::MAX, f64::min);
        let full = det.ideal_output(amp * amp / det.input_impedance);
        assert!(
            (max - min) < 0.6 * full,
            "swing {} vs full {}",
            max - min,
            full
        );

        // 10 Mbps OOK: 100 ns bits — comfortably within the video BW.
        let slow_bit = (fs / 10e6) as usize;
        let mut samples = Vec::new();
        for k in 0..10 {
            let on = k % 2 == 0;
            for _ in 0..slow_bit {
                samples.push(milback_dsp::num::Cpx::new(if on { amp } else { 0.0 }, 0.0));
            }
        }
        let sig = Signal::new(fs, 28e9, samples);
        let out = clean(&det, &sig);
        let late = &out[out.len() / 2..];
        let max = late.iter().cloned().fold(f64::MIN, f64::max);
        let min = late.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - min) > 0.9 * full, "slow swing {}", max - min);
    }

    #[test]
    fn noisy_detection_statistics() {
        let det = EnvelopeDetector::adl6010();
        let mut rng = StdRng::seed_from_u64(9);
        let fs = 1e9;
        let sig = Signal::zeros(fs, 28e9, 100_000);
        let out = detect(&det, &sig, &mut rng);
        let rms = (out.iter().map(|v| v * v).sum::<f64>() / out.len() as f64).sqrt();
        let expected = det.output_noise_rms();
        assert!(
            (rms / expected - 1.0).abs() < 0.05,
            "rms {rms} vs {expected}"
        );
    }

    #[test]
    fn detection_is_deterministic_with_seed() {
        let det = EnvelopeDetector::adl6010();
        let sig = Signal::tone(1e9, 28e9, 0.0, 1e-3, 100);
        let a = detect(&det, &sig, &mut StdRng::seed_from_u64(1));
        let b = detect(&det, &sig, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }
}
