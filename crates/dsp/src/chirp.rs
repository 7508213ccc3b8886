//! FMCW chirp synthesis.
//!
//! MilBack's AP transmits two chirp shapes (paper §5, §7, §8):
//!
//! * **Sawtooth** up-chirps for localization (Field 2 of the preamble):
//!   frequency sweeps linearly from `f_start` to `f_stop` over the chirp
//!   duration, then snaps back.
//! * **Triangular** chirps for node-side orientation sensing (Field 1):
//!   frequency sweeps up for half the duration and back down, producing the
//!   V-shape whose two beam-crossing power peaks encode orientation.
//!
//! The sawtooth is synthesized at complex baseband relative to the band
//! center `fc = (f_start + f_stop)/2`, so the instantaneous baseband
//! offset sweeps `−B/2 … +B/2`. The triangular chirp is never
//! synthesized: the node's detector reads only its power at each ADC
//! instant, which follows from [`ChirpConfig::triangular_freq_at`].

use crate::num::Cpx;
use crate::signal::Signal;
use std::f64::consts::PI;

/// Parameters of an FMCW chirp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChirpConfig {
    /// Sweep start RF frequency in Hz (e.g. 26.5 GHz).
    pub f_start: f64,
    /// Sweep stop RF frequency in Hz (e.g. 29.5 GHz).
    pub f_stop: f64,
    /// Chirp duration in seconds (18 µs / 45 µs in the paper).
    pub duration: f64,
    /// Baseband sample rate in Hz. Must be ≥ the swept bandwidth.
    pub fs: f64,
    /// Transmit amplitude (volts; power = amp²).
    pub amplitude: f64,
}

impl ChirpConfig {
    /// MilBack's localization chirp: 26.5–29.5 GHz over 18 µs (paper §8,
    /// Field 2 of the preamble), sampled at 4 GS/s.
    pub fn milback_sawtooth() -> Self {
        Self {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: 18e-6,
            fs: 4e9,
            amplitude: 1.0,
        }
    }

    /// MilBack's orientation chirp: same band over 45 µs (Field 1, slower
    /// because the node's MCU samples at only 1 MHz).
    pub fn milback_triangular() -> Self {
        Self {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: 45e-6,
            fs: 4e9,
            amplitude: 1.0,
        }
    }

    /// Swept bandwidth `f_stop − f_start` in Hz.
    pub fn bandwidth(&self) -> f64 {
        self.f_stop - self.f_start
    }

    /// Band center frequency in Hz — the `fc` of the generated baseband.
    pub fn center(&self) -> f64 {
        0.5 * (self.f_start + self.f_stop)
    }

    /// Sweep slope in Hz/s (for a sawtooth chirp).
    pub fn slope(&self) -> f64 {
        self.bandwidth() / self.duration
    }

    /// Number of baseband samples in one chirp.
    pub fn n_samples(&self) -> usize {
        (self.duration * self.fs).round() as usize
    }

    fn validate(&self) {
        assert!(self.f_stop > self.f_start, "chirp must sweep upward");
        assert!(self.duration > 0.0, "chirp duration must be positive");
        assert!(
            self.fs >= self.bandwidth(),
            "sample rate {} must cover the swept bandwidth {}",
            self.fs,
            self.bandwidth()
        );
    }

    /// Generates one sawtooth up-chirp at complex baseband.
    ///
    /// Instantaneous baseband frequency at time `t` is
    /// `−B/2 + slope·t`; the phase is its integral
    /// `φ(t) = 2π(−B/2·t + slope·t²/2)`.
    pub fn sawtooth(&self) -> Signal {
        self.validate();
        let n = self.n_samples();
        let b = self.bandwidth();
        let k = self.slope();
        let dt = 1.0 / self.fs;
        let samples: Vec<Cpx> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                let phase = 2.0 * PI * (-0.5 * b * t + 0.5 * k * t * t);
                Cpx::from_polar(self.amplitude, phase)
            })
            .collect();
        Signal::new(self.fs, self.center(), samples)
    }

    /// Instantaneous RF frequency of the sawtooth chirp at time `t` seconds.
    pub fn sawtooth_freq_at(&self, t: f64) -> f64 {
        self.f_start + self.slope() * t.clamp(0.0, self.duration)
    }

    /// Instantaneous RF frequency of the triangular chirp at time `t`.
    pub fn triangular_freq_at(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, self.duration);
        let half_t = self.duration / 2.0;
        let k = self.bandwidth() / half_t;
        if t < half_t {
            self.f_start + k * t
        } else {
            self.f_stop - k * (t - half_t)
        }
    }

    /// Times (up to two) at which the triangular chirp's instantaneous
    /// frequency crosses RF frequency `f`. This is what the node's peak
    /// separation measures: the gap between the two crossings of the beam
    /// alignment frequency.
    pub fn triangular_crossings(&self, f: f64) -> Option<(f64, f64)> {
        if f < self.f_start || f > self.f_stop {
            return None;
        }
        let half_t = self.duration / 2.0;
        let k = self.bandwidth() / half_t;
        let t1 = (f - self.f_start) / k;
        let t2 = half_t + (self.f_stop - f) / k;
        Some((t1, t2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Estimates instantaneous frequency between consecutive samples from
    /// the phase difference.
    fn inst_freq(sig: &Signal, i: usize) -> f64 {
        let d = sig.samples[i + 1] * sig.samples[i].conj();
        d.arg() * sig.fs / (2.0 * PI)
    }

    fn small_cfg() -> ChirpConfig {
        ChirpConfig {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: 2e-6,
            fs: 4e9,
            amplitude: 1.0,
        }
    }

    #[test]
    fn sawtooth_sweeps_linearly() {
        let cfg = small_cfg();
        let s = cfg.sawtooth();
        assert_eq!(s.len(), 8000);
        // At t=0 the baseband frequency is -B/2; at t=T it is +B/2.
        let f0 = inst_freq(&s, 0);
        assert!((f0 + 1.5e9).abs() < 2e6, "start freq {f0}");
        let fm = inst_freq(&s, 4000);
        assert!(fm.abs() < 2e6, "mid freq {fm}");
        let f1 = inst_freq(&s, 7998);
        assert!((f1 - 1.5e9).abs() < 2e6, "end freq {f1}");
    }

    #[test]
    fn sawtooth_power_is_amp_squared() {
        let mut cfg = small_cfg();
        cfg.amplitude = 2.0;
        let s = cfg.sawtooth();
        assert!((s.power() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn instantaneous_freq_helpers() {
        let cfg = small_cfg();
        assert_eq!(cfg.sawtooth_freq_at(0.0), 26.5e9);
        assert_eq!(cfg.sawtooth_freq_at(cfg.duration), 29.5e9);
        assert_eq!(cfg.triangular_freq_at(cfg.duration / 2.0), 29.5e9);
        assert_eq!(cfg.triangular_freq_at(cfg.duration), 26.5e9);
    }

    #[test]
    fn triangular_crossings_symmetric_around_apex() {
        let cfg = small_cfg();
        let f = 28.0e9;
        let (t1, t2) = cfg.triangular_crossings(f).unwrap();
        let half = cfg.duration / 2.0;
        assert!((half - t1 - (t2 - half)).abs() < 1e-15);
        assert!((cfg.triangular_freq_at(t1) - f).abs() < 1.0);
        assert!((cfg.triangular_freq_at(t2) - f).abs() < 1.0);
    }

    #[test]
    fn crossing_gap_encodes_frequency() {
        // Higher frequency → crossings closer to the apex → smaller gap.
        let cfg = small_cfg();
        let (a1, a2) = cfg.triangular_crossings(27e9).unwrap();
        let (b1, b2) = cfg.triangular_crossings(29e9).unwrap();
        assert!(b2 - b1 < a2 - a1);
    }

    #[test]
    fn out_of_band_crossing_is_none() {
        let cfg = small_cfg();
        assert!(cfg.triangular_crossings(25e9).is_none());
        assert!(cfg.triangular_crossings(30e9).is_none());
    }

    #[test]
    fn milback_defaults_match_paper() {
        let saw = ChirpConfig::milback_sawtooth();
        assert_eq!(saw.bandwidth(), 3e9);
        assert_eq!(saw.center(), 28e9);
        assert!((saw.duration - 18e-6).abs() < 1e-12);
        let tri = ChirpConfig::milback_triangular();
        assert!((tri.duration - 45e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn rejects_undersampled_chirp() {
        let cfg = ChirpConfig {
            fs: 1e9,
            ..small_cfg()
        };
        cfg.sawtooth();
    }
}
