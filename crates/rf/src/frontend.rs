//! AP RF front-end component models: the LNA and mixer of the paper's
//! Figure 7.
//!
//! The chain per RX antenna is: antenna → LNA → mixer (×query tone) →
//! filter → baseband capture; the filter is the uplink receiver's
//! decimating FIR (`milback_ap::uplink`). The models are deliberately
//! simple — gain, noise figure, conversion loss — because those are the
//! only parameters that enter the link budget; the interesting behaviour
//! (interference rejection) comes from the mixer/filter arithmetic,
//! which is exact.

use milback_dsp::noise::{add_awgn_keyed, fill_key, thermal_noise_power};
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
    /// thermal noise over bandwidth `bw` Hz on the noise stream `key`
    /// (from [`Lna::noise_key`]; `None` adds no noise).
    pub fn apply(&self, sig: &mut Signal, bw: f64, key: Option<u64>) {
        // Noise added at the input, then everything amplified.
        if let Some(key) = key {
            add_awgn_keyed(&mut sig.samples, self.input_noise_power(bw), key);
        }
        sig.scale_db(self.gain_db);
    }

    /// The noise stream key of one [`Lna::apply`] over bandwidth `bw`:
    /// one word from `rng`, or `None` (no draw) at zero noise power.
    pub fn noise_key(&self, bw: f64, rng: &mut StdRng) -> Option<u64> {
        fill_key(rng, self.input_noise_power(bw))
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

    /// Mixes `rf` in place with the conjugate of the local-oscillator
    /// reference `lo` (down-conversion): `rf[i] *= lo[i]*`, truncated to
    /// the shorter length, then the conversion loss.
    pub fn downconvert_in_place(&self, rf: &mut Signal, lo: &[Cpx]) {
        let n = rf.len().min(lo.len());
        rf.samples.truncate(n);
        for (s, l) in rf.samples.iter_mut().zip(lo) {
            *s *= l.conj();
        }
        rf.scale_db(-self.conversion_loss_db);
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
        lna.apply(&mut sig, 1e6, lna.noise_key(1e6, &mut rng));
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
        lna.apply(&mut sig, 1e6, lna.noise_key(1e6, &mut rng));
        let expected = lna.input_noise_power(1e6) * 100.0; // ×gain
        assert!((sig.power() / expected - 1.0).abs() < 0.05);
    }

    #[test]
    fn mixer_shifts_tone_to_baseband() {
        let fs = 1e6;
        let mut out = Signal::tone(fs, 28e9, 120e3, 1.0, 4096);
        let lo = Signal::tone(fs, 28e9, 100e3, 1.0, 4096);
        Mixer::milback().downconvert_in_place(&mut out, &lo.samples);
        // Output should be a 20 kHz tone with −7 dB power.
        let spec: Vec<f64> = milback_dsp::fft::fft(&out.samples)
            .iter()
            .map(|c| c.norm_sq())
            .collect();
        let freqs = milback_dsp::fft::fft_freqs(4096, fs);
        let peak = milback_dsp::detect::argmax(&spec).unwrap();
        assert!((freqs[peak] - 20e3).abs() <= fs / 4096.0);
        assert!((10.0 * out.power().log10() + 7.0).abs() < 0.1);
    }
}
