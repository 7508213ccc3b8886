//! AP RF front-end component models: the LNA of the paper's Figure 7.
//!
//! The chain per RX antenna is: antenna → LNA → mixer (×query tone) →
//! band-pass → baseband capture. The uplink receiver
//! (`milback_ap::uplink`) takes each branch after the mixer and filter,
//! at its detection bandwidth, so the LNA's gain and noise figure are
//! the only front-end parameters that enter the link budget: the mixer's
//! conversion loss scales signal and noise alike.

use milback_dsp::noise::{add_awgn_keyed, fill_key, thermal_noise_power};
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
}
