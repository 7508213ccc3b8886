//! AP waveform generation (the Keysight VXG's role, paper §8): the
//! transmit configuration every AP waveform is scaled by. The chirps of
//! Fields 1 and 2 are synthesized by `milback_dsp::chirp`, once per
//! session context and chirp config; the payload tones are rendered at
//! the receivers' detection bandwidth (`milback::link`), never as RF
//! samples.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_amplitude_matches_power() {
        let tx = TxConfig::milback();
        let p = tx.amplitude().powi(2);
        assert!((milback_dsp::noise::watts_to_dbm(p) - 27.0).abs() < 1e-9);
    }
}
