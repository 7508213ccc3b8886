//! AP RF front-end component models: LNA, mixer and the band-pass filter
//! chain of the paper's Figure 7.
//!
//! The chain per RX antenna is: antenna → LNA → mixer (×query tone) → BPF →
//! baseband capture. The models are deliberately simple — gain, noise
//! figure, conversion loss — because those are the only parameters that
//! enter the link budget; the interesting behaviour (interference
//! rejection) comes from the mixer/BPF arithmetic, which is exact.

use milback_dsp::filter::Fir;
use milback_dsp::noise::{add_awgn, awgn_variates, thermal_noise_power};
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use rand::rngs::StdRng;

/// Low-noise amplifier (ADL8142-style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lna {
    /// Power gain in dB.
    pub gain_db: f64,
    /// Noise figure in dB.
    pub nf_db: f64,
}

impl Lna {
    /// The ADL8142-style LNA used in MilBack's AP: 20 dB gain, 3 dB NF.
    pub fn milback() -> Self {
        Self {
            gain_db: 20.0,
            nf_db: 3.0,
        }
    }

    /// Amplifies the signal in place and adds the LNA's referred-to-input
    /// thermal noise over bandwidth `bw` Hz.
    pub fn apply(&self, sig: &mut Signal, bw: f64, rng: &mut StdRng) {
        // Noise added at the input, then everything amplified.
        add_awgn(sig, self.input_noise_power(bw), rng);
        sig.scale_db(self.gain_db);
    }

    /// Standard normals [`Lna::apply`] draws from its RNG for a signal
    /// of `n` samples over bandwidth `bw`.
    pub fn noise_variates(&self, n: usize, bw: f64) -> usize {
        awgn_variates(n, self.input_noise_power(bw))
    }

    /// Equivalent input noise power (watts) over bandwidth `bw`.
    pub fn input_noise_power(&self, bw: f64) -> f64 {
        thermal_noise_power(bw, self.nf_db)
    }
}

/// Ideal multiplying mixer with conversion loss (ZMDB-44H-style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mixer {
    /// Conversion loss in dB (positive).
    pub conversion_loss_db: f64,
}

impl Mixer {
    /// The Mini-Circuits ZMDB-44H-style mixer: 7 dB conversion loss.
    pub fn milback() -> Self {
        Self {
            conversion_loss_db: 7.0,
        }
    }

    /// Mixes `rf` with the conjugate of the local-oscillator reference
    /// `lo` (down-conversion): output `rf·lo*·loss`. Both signals must be
    /// at the same sample rate.
    pub fn downconvert(&self, rf: &Signal, lo: &Signal) -> Signal {
        let mut out = rf.conj_multiply(lo);
        out.scale_db(-self.conversion_loss_db);
        out
    }

    /// [`Mixer::downconvert`] in place: `rf[i] *= lo[i]*`, truncated to
    /// the shorter length, then the conversion loss — bitwise identical
    /// to the allocating form, for pooled receive chains.
    pub fn downconvert_in_place(&self, rf: &mut Signal, lo: &[Cpx]) {
        let n = rf.len().min(lo.len());
        rf.samples.truncate(n);
        for (s, l) in rf.samples.iter_mut().zip(lo) {
            *s *= l.conj();
        }
        rf.scale_db(-self.conversion_loss_db);
    }
}

/// The AP's baseband band-pass filter (ZFHP-0R50-S+ / ZFHP-0R23-S+ pair in
/// the paper): passes the node's modulation sidebands, rejects DC clutter
/// and high mixing images.
#[derive(Debug, Clone, PartialEq)]
pub struct BasebandBpf {
    fir: Fir,
    f_lo: f64,
    f_hi: f64,
}

impl BasebandBpf {
    /// Builds a band-pass for modulation content between `f_lo` and `f_hi`
    /// Hz at sample rate `fs`.
    pub fn new(f_lo: f64, f_hi: f64, fs: f64) -> Self {
        Self {
            fir: Fir::bandpass(f_lo, f_hi, fs, 127),
            f_lo,
            f_hi,
        }
    }

    /// Passband edges (Hz).
    pub fn band(&self) -> (f64, f64) {
        (self.f_lo, self.f_hi)
    }

    /// Noise bandwidth of the passband (Hz).
    pub fn noise_bandwidth(&self) -> f64 {
        self.f_hi - self.f_lo
    }

    /// Filters the baseband signal.
    pub fn apply(&self, sig: &Signal) -> Signal {
        Signal::new(sig.fs, sig.fc, self.fir.apply(&sig.samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lna_gain_and_noise() {
        let lna = Lna::milback();
        let mut rng = StdRng::seed_from_u64(1);
        let mut sig = Signal::tone(1e6, 28e9, 0.0, 1e-3, 20_000);
        let p_in = sig.power();
        lna.apply(&mut sig, 1e6, &mut rng);
        let p_out = sig.power();
        // Signal dominates this noise level: output ≈ input × 100.
        assert!(
            (p_out / p_in - 100.0).abs() < 1.0,
            "gain ratio {}",
            p_out / p_in
        );
    }

    #[test]
    fn lna_noise_floor_alone() {
        let lna = Lna::milback();
        let mut rng = StdRng::seed_from_u64(2);
        let mut sig = Signal::zeros(1e6, 28e9, 100_000);
        lna.apply(&mut sig, 1e6, &mut rng);
        let expected = lna.input_noise_power(1e6) * 100.0; // ×gain
        assert!((sig.power() / expected - 1.0).abs() < 0.05);
    }

    #[test]
    fn mixer_shifts_tone_to_baseband() {
        let fs = 1e6;
        let rf = Signal::tone(fs, 28e9, 120e3, 1.0, 4096);
        let lo = Signal::tone(fs, 28e9, 100e3, 1.0, 4096);
        let out = Mixer::milback().downconvert(&rf, &lo);
        // Output should be a 20 kHz tone with −7 dB power.
        let spec = milback_dsp::fft::power_spectrum(&out.samples);
        let freqs = milback_dsp::fft::fft_freqs(4096, fs);
        let peak = milback_dsp::detect::argmax(&spec).unwrap();
        assert!((freqs[peak] - 20e3).abs() <= fs / 4096.0);
        assert!((10.0 * out.power().log10() + 7.0).abs() < 0.1);
    }

    #[test]
    fn bpf_rejects_dc_keeps_band() {
        let fs = 1e6;
        let bpf = BasebandBpf::new(20e3, 200e3, fs);
        let mut sig = Signal::tone(fs, 0.0, 0.0, 100.0, 4000); // huge DC
        sig.add(&Signal::tone(fs, 0.0, 100e3, 1.0, 4000));
        let out = bpf.apply(&sig);
        let p: f64 = out.samples[1000..3000]
            .iter()
            .map(|c| c.norm_sq())
            .sum::<f64>()
            / 2000.0;
        assert!((p - 1.0).abs() < 0.2, "band power {p}");
        assert_eq!(bpf.noise_bandwidth(), 180e3);
        assert_eq!(bpf.band(), (20e3, 200e3));
    }
}
