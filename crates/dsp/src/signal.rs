//! Complex-baseband signal container.
//!
//! All RF waveforms in MilBack — FMCW chirps, OAQFM tones, backscattered
//! reflections — are represented as [`Signal`]: a vector of complex samples
//! at sample rate `fs`, understood as the complex envelope of a real RF
//! signal centered at carrier frequency `fc`. A baseband tone at offset `Δf`
//! therefore represents RF energy at `fc + Δf`.
//!
//! The representation covers `fc − fs/2 .. fc + fs/2`, so a 3 GHz-wide FMCW
//! sweep needs `fs ≥ 3 GHz`. Chirps in MilBack are tens of microseconds, so
//! buffers stay in the 10⁴–10⁵ sample range — cheap to process.

use crate::num::{Cpx, ZERO};

/// A complex-baseband waveform: samples at rate `fs`, relative to RF carrier
/// `fc`.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    /// Sample rate in Hz.
    pub fs: f64,
    /// RF carrier (center) frequency in Hz that the baseband is relative to.
    pub fc: f64,
    /// Complex envelope samples.
    pub samples: Vec<Cpx>,
}

impl Signal {
    /// Creates a signal from raw samples.
    pub fn new(fs: f64, fc: f64, samples: Vec<Cpx>) -> Self {
        assert!(fs > 0.0, "sample rate must be positive");
        Self { fs, fc, samples }
    }

    /// An all-zero signal of `n` samples.
    pub fn zeros(fs: f64, fc: f64, n: usize) -> Self {
        Self::new(fs, fc, vec![ZERO; n])
    }

    /// A constant-amplitude complex tone at baseband offset `f_off` Hz
    /// (RF frequency `fc + f_off`), amplitude `amp`, `n` samples.
    ///
    /// Evaluated with the phasor recurrence of [`crate::phasor`]: every
    /// 64th sample is bitwise identical to a direct
    /// `Cpx::from_polar(amp, w·t)` loop and the rest differ by less than
    /// 4×10⁻¹³ relative (DESIGN.md §13).
    pub fn tone(fs: f64, fc: f64, f_off: f64, amp: f64, n: usize) -> Self {
        let w = 2.0 * std::f64::consts::PI * f_off / fs;
        let mut samples = vec![ZERO; n];
        crate::phasor::fill_linear(amp, 0.0, w, &mut samples);
        Self::new(fs, fc, samples)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the signal holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.len() as f64 / self.fs
    }

    /// Mean power of the envelope: `mean(|x|²)`. With the convention that
    /// the envelope is in volts across 1 Ω, this is watts.
    pub fn power(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|c| c.norm_sq()).sum::<f64>() / self.len() as f64
    }

    /// Scales every sample by a real factor.
    pub fn scale(&mut self, k: f64) {
        for c in self.samples.iter_mut() {
            *c *= k;
        }
    }

    /// Multiplies every sample by a complex factor (e.g. a channel phase).
    pub fn rotate(&mut self, phasor: Cpx) {
        for c in self.samples.iter_mut() {
            *c *= phasor;
        }
    }

    /// Scales the signal power by `gain_db` decibels (amplitude by
    /// `gain_db/20`).
    pub fn scale_db(&mut self, gain_db: f64) {
        self.scale(10f64.powf(gain_db / 20.0));
    }

    /// Adds another signal sample-wise. The two signals must share `fs` and
    /// `fc`; the shorter one is treated as zero-padded.
    pub fn add(&mut self, other: &Signal) {
        assert_eq!(self.fs, other.fs, "sample-rate mismatch in Signal::add");
        assert_eq!(self.fc, other.fc, "carrier mismatch in Signal::add");
        if other.len() > self.len() {
            self.samples.resize(other.len(), ZERO);
        }
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a += *b;
        }
    }

    /// Point-wise product with the conjugate of `other` — the dechirp /
    /// correlation primitive (`x · y*`). Truncates to the shorter length.
    pub fn conj_multiply(&self, other: &Signal) -> Signal {
        assert_eq!(self.fs, other.fs, "sample-rate mismatch in conj_multiply");
        let n = self.len().min(other.len());
        let samples = (0..n)
            .map(|i| self.samples[i] * other.samples[i].conj())
            .collect();
        Signal::new(self.fs, self.fc, samples)
    }

    /// Delays the signal by `tau` seconds using linear interpolation,
    /// zero-filling the beginning. The output has the same length — samples
    /// pushed past the end are dropped. This models propagation delay of the
    /// *envelope*; the accompanying carrier phase rotation
    /// `exp(-j2π·fc·tau)` must be applied separately (the channel does it).
    ///
    /// ## Leading-edge convention
    ///
    /// Output sample `i` interpolates between input samples `j−1` and `j`
    /// (`j = i − ⌊τ·fs⌋`). At `j == 0` there is no `j−1` sample, so the
    /// kernel interpolates against an **implicit zero**: with fractional
    /// shift `frac`, the first live output sample is
    /// `x[0]·(1 − frac)` — deliberately attenuated, as if the waveform
    /// ramped up from silence. This models a signal that was *off* before
    /// its first sample (true for every chirp/tone the simulator emits)
    /// rather than extrapolating the leading edge. All delay kernels
    /// ([`Signal::delayed_into`], [`Signal::accumulate_delayed`],
    /// [`Signal::delay_in_place`]) share this convention bitwise; the unit
    /// test `fractional_delay_attenuates_leading_edge` pins it.
    pub fn delayed(&self, tau: f64) -> Signal {
        let mut out = Signal::zeros(self.fs, self.fc, self.len());
        self.delayed_into(tau, &mut out.samples);
        out
    }

    /// Allocation-free [`Signal::delayed`]: writes the delayed envelope
    /// into `out`, resizing it to `self.len()`. Bitwise identical to
    /// `delayed` (same interpolation expression and leading-edge
    /// convention).
    pub fn delayed_into(&self, tau: f64, out: &mut Vec<Cpx>) {
        assert!(tau >= 0.0, "delay must be non-negative");
        let (whole, frac) = self.split_shift(tau);
        let n = self.len();
        out.resize(n, ZERO);
        for (i, slot) in out.iter_mut().enumerate() {
            if i < whole {
                *slot = ZERO;
                continue;
            }
            let j = i - whole;
            // Linearly interpolate between samples j-1 and j, offset by frac.
            let a = if j == 0 { ZERO } else { self.samples[j - 1] };
            let b = self.samples[j];
            *slot = a * frac + b * (1.0 - frac);
        }
    }

    /// Accumulates a delayed, coefficient-scaled copy of this signal:
    /// `acc[i] += delayed(τ)[i] · coeff`, without materializing the
    /// delayed waveform. The per-sample expression matches
    /// `self.delayed(tau)` followed by a scaled add bitwise — this is the
    /// zero-allocation ray-accumulation kernel of the channel synthesizer
    /// (DESIGN.md §13). `acc` must be at least `self.len()` long.
    pub fn accumulate_delayed(&self, tau: f64, coeff: Cpx, acc: &mut [Cpx]) {
        assert!(tau >= 0.0, "delay must be non-negative");
        assert!(acc.len() >= self.len(), "accumulator shorter than signal");
        let (whole, frac) = self.split_shift(tau);
        for (i, slot) in acc.iter_mut().enumerate().take(self.len()).skip(whole) {
            let j = i - whole;
            let a = if j == 0 { ZERO } else { self.samples[j - 1] };
            let b = self.samples[j];
            *slot += (a * frac + b * (1.0 - frac)) * coeff;
        }
    }

    /// In-place [`Signal::delayed`]: replaces this signal's samples with
    /// their delayed version, bitwise identical to `delayed` but without
    /// allocating. Walks indices descending so each output sample reads
    /// only not-yet-overwritten inputs (`j ≤ i`).
    pub fn delay_in_place(&mut self, tau: f64) {
        assert!(tau >= 0.0, "delay must be non-negative");
        let (whole, frac) = self.split_shift(tau);
        for i in (0..self.len()).rev() {
            if i < whole {
                self.samples[i] = ZERO;
                continue;
            }
            let j = i - whole;
            let a = if j == 0 { ZERO } else { self.samples[j - 1] };
            let b = self.samples[j];
            self.samples[i] = a * frac + b * (1.0 - frac);
        }
    }

    /// Splits a delay into whole-sample and fractional parts — the shared
    /// arithmetic of every delay kernel, kept in one place so they cannot
    /// diverge bitwise.
    fn split_shift(&self, tau: f64) -> (usize, f64) {
        let shift = tau * self.fs;
        let whole = shift.floor() as usize;
        (whole, shift - shift.floor())
    }

    /// Overwrites this signal with a copy of `other`, reusing the
    /// existing sample buffer's capacity — the allocation-free
    /// counterpart of `other.clone()` (the Field-2 burst copies its
    /// kept chirp into its transmit reference this way).
    pub fn copy_from(&mut self, other: &Signal) {
        self.fs = other.fs;
        self.fc = other.fc;
        crate::buffer::copy_into(&other.samples, &mut self.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tone_has_unit_power() {
        let s = Signal::tone(1e6, 28e9, 1e3, 1.0, 1000);
        assert!((s.power() - 1.0).abs() < 1e-12);
        assert!((s.duration() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn tone_frequency_is_correct() {
        let fs = 1e6;
        let f = 12_000.0;
        let s = Signal::tone(fs, 0.0, f, 1.0, 4096);
        let spec: Vec<f64> = crate::fft::fft(&s.samples)
            .iter()
            .map(|c| c.norm_sq())
            .collect();
        let peak_bin = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let freqs = crate::fft::fft_freqs(4096, fs);
        assert!((freqs[peak_bin] - f).abs() < fs / 4096.0);
    }

    #[test]
    fn scale_db_changes_power() {
        let mut s = Signal::tone(1e6, 0.0, 0.0, 1.0, 100);
        s.scale_db(-20.0);
        assert!((s.power() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn add_pads_shorter_signal() {
        let mut a = Signal::zeros(1e6, 0.0, 5);
        let b = Signal::tone(1e6, 0.0, 0.0, 1.0, 10);
        a.add(&b);
        assert_eq!(a.len(), 10);
        assert!((a.samples[7].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn integer_delay_shifts_samples() {
        let fs = 1e6;
        let mut s = Signal::zeros(fs, 0.0, 10);
        s.samples[0] = Cpx::new(1.0, 0.0);
        let d = s.delayed(3.0 / fs);
        assert!(d.samples[3].abs() > 0.99);
        assert!(d.samples[0].abs() < 1e-12);
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn fractional_delay_interpolates() {
        let fs = 1e6;
        // A linear ramp delays exactly under linear interpolation.
        let samples: Vec<Cpx> = (0..10).map(|i| Cpx::new(i as f64, 0.0)).collect();
        let s = Signal::new(fs, 0.0, samples);
        let d = s.delayed(0.5 / fs);
        // d[i] should be i - 0.5 for i >= 1.
        for i in 1..10 {
            assert!((d.samples[i].re - (i as f64 - 0.5)).abs() < 1e-9);
        }
    }

    /// Pins the documented leading-edge convention of `delayed`: at
    /// `j == 0` with a fractional shift the kernel interpolates against
    /// an implicit zero, so the first live output sample is attenuated
    /// to `x[0]·(1 − frac)`.
    #[test]
    fn fractional_delay_attenuates_leading_edge() {
        let fs = 1e6;
        let samples: Vec<Cpx> = (1..=8).map(|i| Cpx::new(i as f64, 0.0)).collect();
        let s = Signal::new(fs, 0.0, samples);
        let frac = 0.25;
        let d = s.delayed(frac / fs);
        // First live sample: 0·frac + x[0]·(1−frac) = 1·0.75.
        assert_eq!(d.samples[0].re.to_bits(), (1.0 * (1.0 - frac)).to_bits());
        assert_eq!(d.samples[0].im.to_bits(), 0.0f64.to_bits());
        // Interior samples interpolate between live neighbours.
        assert!((d.samples[3].re - (3.0 * frac + 4.0 * (1.0 - frac))).abs() < 1e-12);
        // With a whole+fractional shift the convention applies at j == 0
        // of the shifted frame.
        let d2 = s.delayed((2.0 + frac) / fs);
        assert_eq!(d2.samples[2].re.to_bits(), (1.0 * (1.0 - frac)).to_bits());
        assert!(d2.samples[0].abs() == 0.0 && d2.samples[1].abs() == 0.0);
    }

    /// All delay kernels share one interpolation expression — pin them
    /// bitwise against `delayed` for whole, fractional and mixed shifts.
    #[test]
    fn delay_kernels_match_delayed_bitwise() {
        let fs = 2e9;
        let samples: Vec<Cpx> = (0..64)
            .map(|i| Cpx::from_polar(1.0 + 0.01 * i as f64, 0.37 * i as f64))
            .collect();
        let s = Signal::new(fs, 28e9, samples);
        let coeff = Cpx::new(0.8, -0.3);
        for tau in [0.0, 0.5 / fs, 3.0 / fs, 7.31 / fs] {
            let reference = s.delayed(tau);

            let mut out = vec![Cpx::new(9.0, 9.0); 3];
            s.delayed_into(tau, &mut out);
            assert_eq!(out.len(), reference.len());

            // accumulate_delayed(acc=0) must equal delayed()·coeff with
            // the same operation order.
            let mut acc = vec![ZERO; s.len()];
            s.accumulate_delayed(tau, coeff, &mut acc);
            let mut inplace = s.clone();
            inplace.delay_in_place(tau);
            for i in 0..s.len() {
                assert_eq!(out[i].re.to_bits(), reference.samples[i].re.to_bits());
                assert_eq!(out[i].im.to_bits(), reference.samples[i].im.to_bits());
                assert_eq!(
                    inplace.samples[i].re.to_bits(),
                    reference.samples[i].re.to_bits()
                );
                assert_eq!(
                    inplace.samples[i].im.to_bits(),
                    reference.samples[i].im.to_bits()
                );
                let want = reference.samples[i] * coeff;
                assert_eq!(acc[i].re.to_bits(), want.re.to_bits());
                assert_eq!(acc[i].im.to_bits(), want.im.to_bits());
            }
        }
    }

    #[test]
    fn tone_anchors_match_direct_from_polar() {
        let (fs, f_off, amp, n) = (4e9, 150e6, 1.4, 300);
        let s = Signal::tone(fs, 28e9, f_off, amp, n);
        let w = 2.0 * std::f64::consts::PI * f_off / fs;
        for t in (0..n).step_by(crate::phasor::CHECKPOINT) {
            let want = Cpx::from_polar(amp, w * t as f64);
            assert_eq!(s.samples[t].re.to_bits(), want.re.to_bits());
            assert_eq!(s.samples[t].im.to_bits(), want.im.to_bits());
        }
        for (t, c) in s.samples.iter().enumerate() {
            let want = Cpx::from_polar(amp, w * t as f64);
            assert!((*c - want).abs() < 4e-13 * amp, "t={t}");
        }
    }

    #[test]
    fn conj_multiply_of_tone_gives_dc() {
        let s = Signal::tone(1e6, 0.0, 5e3, 2.0, 256);
        let p = s.conj_multiply(&s);
        for c in &p.samples {
            assert!((c.re - 4.0).abs() < 1e-9);
            assert!(c.im.abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "sample-rate mismatch")]
    fn add_rejects_rate_mismatch() {
        let mut a = Signal::zeros(1e6, 0.0, 4);
        let b = Signal::zeros(2e6, 0.0, 4);
        a.add(&b);
    }
}
