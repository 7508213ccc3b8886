//! AP waveform generation (the Keysight VXG's role, paper §8): the
//! transmit configuration every AP waveform is scaled by, and the
//! single-carrier OOK downlink waveform of the normal-incidence
//! fallback. The chirps of Fields 1 and 2 are synthesized by
//! `milback_dsp::chirp`, once per session context and chirp config.

use milback_dsp::num::{Cpx, ZERO};
use milback_dsp::signal::Signal;

/// AP transmit configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxConfig {
    /// Transmit power in dBm (27 dBm in the paper).
    pub power_dbm: f64,
    /// Baseband sample rate for generated waveforms, Hz.
    pub fs: f64,
}

impl TxConfig {
    /// The paper's transmitter: 27 dBm, 4 GS/s baseband.
    pub fn milback() -> Self {
        Self {
            power_dbm: 27.0,
            fs: 4e9,
        }
    }

    /// Transmit amplitude in volts (1 Ω convention): `√P`.
    pub fn amplitude(&self) -> f64 {
        milback_dsp::noise::dbm_to_watts(self.power_dbm).sqrt()
    }
}

/// Generates a single-carrier OOK waveform (the normal-incidence
/// fallback): one bit per symbol keyed on a single tone at `f`.
pub fn ook_waveform(tx: &TxConfig, fc: f64, f: f64, bits: &[bool], bit_rate: f64) -> Signal {
    let mut out = Signal::new(tx.fs, fc, Vec::new());
    ook_waveform_into(tx, fc, f, bits, bit_rate, &mut out);
    out
}

/// Allocation-free [`ook_waveform`]: overwrites `out` (rate, carrier and
/// samples), reusing its capacity. Bitwise identical to the allocating
/// form.
pub fn ook_waveform_into(
    tx: &TxConfig,
    fc: f64,
    f: f64,
    bits: &[bool],
    bit_rate: f64,
    out: &mut Signal,
) {
    let sps = (tx.fs / bit_rate).round() as usize;
    assert!(sps >= 2, "need at least 2 samples per bit");
    let amp = tx.amplitude();
    let w = 2.0 * std::f64::consts::PI * (f - fc) / tx.fs;
    let n = bits.len() * sps;
    out.fs = tx.fs;
    out.fc = fc;
    out.samples.clear();
    out.samples.resize(n, ZERO);
    for (k, &on) in bits.iter().enumerate() {
        if on {
            for i in 0..sps {
                let t = (k * sps + i) as f64;
                out.samples[k * sps + i] = Cpx::from_polar(amp, w * t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tx() -> TxConfig {
        TxConfig {
            power_dbm: 27.0,
            fs: 4e9,
        }
    }

    #[test]
    fn tx_amplitude_matches_power() {
        let tx = TxConfig::milback();
        let p = tx.amplitude().powi(2);
        assert!((milback_dsp::noise::watts_to_dbm(p) - 27.0).abs() < 1e-9);
    }

    #[test]
    fn ook_keying() {
        let tx = small_tx();
        let w = ook_waveform(&tx, 28e9, 28.0e9, &[true, false, true], 1e6);
        let sps = (tx.fs / 1e6) as usize;
        let p_on: f64 = w.samples[..sps].iter().map(|c| c.norm_sq()).sum::<f64>() / sps as f64;
        let p_off: f64 = w.samples[sps..2 * sps].iter().map(|c| c.norm_sq()).sum();
        assert!((milback_dsp::noise::watts_to_dbm(p_on) - 27.0).abs() < 0.1);
        assert_eq!(p_off, 0.0);
    }
}
