//! Simulation configuration: fidelity presets and AP receiver parameters.

use milback_ap::waveform::TxConfig;
use milback_dsp::chirp::ChirpConfig;
use milback_proto::packet::PacketConfig;

/// Simulation fidelity preset.
///
/// `Paper` uses the paper's exact Field-2 waveform (18 µs chirps at 4
/// GS/s); `Fast` shrinks the chirp (same 3 GHz bandwidth, so the same
/// range resolution) to keep unit tests and quick experiments cheap.
/// Field 1 is the paper's 45 µs triangular chirp at both. Benches
/// default to `Fast`; nothing in the signal processing depends on the
/// preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The paper's exact waveform timing.
    Paper,
    /// Shortened chirps, reduced sample rate — same bandwidth/resolution.
    Fast,
}

impl Fidelity {
    /// The Field-2 (localization) sawtooth chirp for this preset.
    pub fn sawtooth(self) -> ChirpConfig {
        match self {
            Fidelity::Paper => ChirpConfig::milback_sawtooth(),
            Fidelity::Fast => ChirpConfig {
                f_start: 26.5e9,
                f_stop: 29.5e9,
                duration: 2e-6,
                fs: 3.2e9,
                amplitude: 1.0,
            },
        }
    }

    /// Packet configuration for this preset: its Field-2 chirp, and the
    /// paper's Field-1 chirp at every preset (the node reads only its
    /// power at the ADC's instants, so no preset shortens or resamples
    /// it).
    pub fn packet(self) -> PacketConfig {
        PacketConfig {
            field2_chirp: self.sawtooth(),
            ..PacketConfig::milback()
        }
    }
}

/// AP receiver parameters beyond the ideal front-end models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApParams {
    /// Transmit configuration.
    pub tx: TxConfig,
    /// Effective capture noise figure, dB. This is deliberately much
    /// higher than the LNA's 3 dB: it lumps the oscilloscope's 8-bit
    /// quantization, synthesizer phase noise and the 2 GHz×2 band
    /// patching of the paper's setup into one number, calibrated so the
    /// ranging-error-vs-distance curve lands in the paper's regime.
    pub capture_nf_db: f64,
    /// RMS trigger jitter between the VXG and the scope, seconds. They
    /// share a reference clock, so this is picoseconds; the jitter-induced
    /// beat shift is what bounds how completely background subtraction
    /// removes strong clutter.
    pub jitter_rms: f64,
}

impl ApParams {
    /// Parameters reproducing the paper's measurement setup.
    pub fn milback() -> Self {
        Self {
            tx: TxConfig::milback(),
            capture_nf_db: 12.0,
            jitter_rms: 0.5e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_share_bandwidth() {
        let fast = Fidelity::Fast.sawtooth();
        let paper = Fidelity::Paper.sawtooth();
        assert_eq!(fast.bandwidth(), paper.bandwidth());
        assert!(fast.duration < paper.duration);
    }

    #[test]
    fn paper_preset_matches_paper() {
        let p = Fidelity::Paper;
        assert!((p.sawtooth().duration - 18e-6).abs() < 1e-12);
        assert_eq!(p.packet().field1_chirp, ChirpConfig::milback_triangular());
        // The node toggles port A every two chirps
        // (`BackscatterNode::field2_gamma`): a square wave at
        // 1/(4·T_chirp), ≈ 14 kHz — the paper's "10 kHz rate".
        let f = 1.0 / (4.0 * p.sawtooth().duration);
        assert!((9e3..15e3).contains(&f), "{f}");
    }

    #[test]
    fn fast_packet_uses_fast_chirps() {
        let pkt = Fidelity::Fast.packet();
        assert_eq!(pkt.field1_chirp, ChirpConfig::milback_triangular());
        assert_eq!(pkt.field2_chirp.duration, 2e-6);
        assert_eq!(pkt.field2_count, 5);
    }

    #[test]
    fn ap_params_defaults() {
        let p = ApParams::milback();
        assert_eq!(p.tx.power_dbm, 27.0);
        assert!(p.capture_nf_db > p.tx.power_dbm - 27.0); // sanity: positive
        assert!(p.jitter_rms > 0.0);
    }
}
