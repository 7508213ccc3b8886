//! AP waveform generation (the Keysight VXG's role, paper §8).
//!
//! Generates every waveform the AP transmits: Field-1 triangular chirps
//! (with the uplink/downlink slot pattern), Field-2 sawtooth chirp trains,
//! the continuous two-tone uplink query, and the OAQFM-keyed downlink
//! payload waveform.

use milback_dsp::chirp::ChirpConfig;
use milback_dsp::num::{Cpx, ZERO};
use milback_dsp::signal::Signal;
use milback_dsp::{buffer, template};
use milback_proto::bits::OaqfmSymbol;
use milback_proto::packet::{LinkMode, PacketConfig, Slot};
use std::rc::Rc;

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

/// The cached Field-2 sawtooth template for this TX configuration:
/// `cfg` re-sampled at the TX rate and scaled to the TX amplitude.
/// Synthesized once per thread per config (`milback_dsp::template`).
pub fn field2_template(tx: &TxConfig, cfg: &ChirpConfig) -> Rc<Signal> {
    let mut c = *cfg;
    c.fs = tx.fs;
    c.amplitude = tx.amplitude();
    template::sawtooth(&c)
}

/// The cached Field-1 triangular template for this TX configuration.
pub fn field1_template(tx: &TxConfig, cfg: &ChirpConfig) -> Rc<Signal> {
    let mut c = *cfg;
    c.fs = tx.fs;
    c.amplitude = tx.amplitude();
    template::triangular(&c)
}

/// Generates one Field-2 sawtooth chirp at the configured power (a copy
/// of the cached template — bitwise identical to fresh synthesis).
pub fn field2_chirp(tx: &TxConfig, cfg: &ChirpConfig) -> Signal {
    field2_template(tx, cfg).as_ref().clone()
}

/// Generates one Field-1 triangular chirp at the configured power (a
/// copy of the cached template).
pub fn field1_chirp(tx: &TxConfig, cfg: &ChirpConfig) -> Signal {
    field1_template(tx, cfg).as_ref().clone()
}

/// Generates the full Field-1 waveform for a link mode (allocating
/// wrapper over [`field1_waveform_into`]).
pub fn field1_waveform(tx: &TxConfig, pkt: &PacketConfig, mode: LinkMode) -> Signal {
    let mut out = Signal::zeros(tx.fs, 0.0, 0);
    field1_waveform_into(tx, pkt, mode, &mut out);
    out
}

/// Assembles the Field-1 waveform into `out`: three chirp slots, with
/// the middle slot silent in downlink mode. Copies from the cached
/// template; allocation-free on a warmed buffer.
pub fn field1_waveform_into(tx: &TxConfig, pkt: &PacketConfig, mode: LinkMode, out: &mut Signal) {
    let chirp = field1_template(tx, &pkt.field1_chirp);
    let slot_len = chirp.len();
    out.fs = chirp.fs;
    out.fc = chirp.fc;
    buffer::track_growth(&mut out.samples, 3 * slot_len);
    out.samples.clear();
    out.samples.resize(3 * slot_len, ZERO);
    for (k, slot) in PacketConfig::field1_slots(mode).iter().enumerate() {
        if *slot == Slot::Chirp {
            let off = k * slot_len;
            out.samples[off..off + slot_len].copy_from_slice(&chirp.samples);
        }
    }
}

/// Generates the Field-2 waveform: `count` back-to-back sawtooth chirps
/// (allocating wrapper over [`field2_waveform_into`]).
pub fn field2_waveform(tx: &TxConfig, pkt: &PacketConfig) -> Signal {
    let mut out = Signal::zeros(tx.fs, 0.0, 0);
    field2_waveform_into(tx, pkt, &mut out);
    out
}

/// Assembles the Field-2 chirp train into `out` by copying the cached
/// template `field2_count` times (at least once, matching the historical
/// clone-then-append behavior). Allocation-free on a warmed buffer.
pub fn field2_waveform_into(tx: &TxConfig, pkt: &PacketConfig, out: &mut Signal) {
    let chirp = field2_template(tx, &pkt.field2_chirp);
    out.fs = chirp.fs;
    out.fc = chirp.fc;
    let copies = pkt.field2_count.max(1);
    buffer::track_growth(&mut out.samples, copies * chirp.len());
    out.samples.clear();
    for _ in 0..copies {
        out.samples.extend_from_slice(&chirp.samples);
    }
}

/// Generates the continuous two-tone uplink query at RF frequencies
/// `f_a`/`f_b` for `duration` seconds. Total power equals the configured
/// TX power, split across the tones.
pub fn query_waveform(tx: &TxConfig, fc: f64, f_a: f64, f_b: f64, duration: f64) -> Signal {
    let n = (duration * tx.fs).round() as usize;
    milback_dsp::chirp::two_tone(tx.fs, fc, f_a, f_b, tx.amplitude(), n)
}

/// Generates the OAQFM downlink payload waveform: each symbol keys the
/// two tones on/off for one symbol period.
///
/// At normal incidence (`f_a == f_b`) callers should use
/// [`ook_waveform`] instead.
pub fn oaqfm_waveform(
    tx: &TxConfig,
    fc: f64,
    f_a: f64,
    f_b: f64,
    symbols: &[OaqfmSymbol],
    symbol_rate: f64,
) -> Signal {
    let sps = (tx.fs / symbol_rate).round() as usize;
    assert!(sps >= 2, "need at least 2 samples per symbol");
    let n = symbols.len() * sps;
    let amp = tx.amplitude() / 2f64.sqrt();
    let wa = 2.0 * std::f64::consts::PI * (f_a - fc) / tx.fs;
    let wb = 2.0 * std::f64::consts::PI * (f_b - fc) / tx.fs;
    let mut samples = vec![ZERO; n];
    for (k, s) in symbols.iter().enumerate() {
        for i in 0..sps {
            let t = (k * sps + i) as f64;
            let mut v = ZERO;
            if s.a_on {
                v += Cpx::from_polar(amp, wa * t);
            }
            if s.b_on {
                v += Cpx::from_polar(amp, wb * t);
            }
            samples[k * sps + i] = v;
        }
    }
    Signal::new(tx.fs, fc, samples)
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

    fn small_pkt() -> PacketConfig {
        let mut p = PacketConfig::milback();
        // Shrink for test speed: 1 GHz fs still covers nothing here (the
        // chirps below get regenerated at the TxConfig's fs anyway).
        p.field1_chirp.duration = 2e-6;
        p.field2_chirp.duration = 1e-6;
        p
    }

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
    fn field1_uplink_has_three_chirps() {
        let tx = small_tx();
        let pkt = small_pkt();
        let w = field1_waveform(&tx, &pkt, LinkMode::Uplink);
        let slot = w.len() / 3;
        for k in 0..3 {
            let p: f64 = w.samples[k * slot..(k + 1) * slot]
                .iter()
                .map(|c| c.norm_sq())
                .sum::<f64>()
                / slot as f64;
            assert!(p > 0.1, "slot {k} empty");
        }
    }

    #[test]
    fn field1_downlink_has_gap_in_middle() {
        let tx = small_tx();
        let pkt = small_pkt();
        let w = field1_waveform(&tx, &pkt, LinkMode::Downlink);
        let slot = w.len() / 3;
        let p_mid: f64 = w.samples[slot..2 * slot].iter().map(|c| c.norm_sq()).sum();
        assert_eq!(p_mid, 0.0);
        let p_first: f64 = w.samples[..slot].iter().map(|c| c.norm_sq()).sum();
        assert!(p_first > 0.0);
    }

    #[test]
    fn field2_has_five_chirps() {
        let tx = small_tx();
        let pkt = small_pkt();
        let w = field2_waveform(&tx, &pkt);
        let single = field2_chirp(&tx, &pkt.field2_chirp);
        assert_eq!(w.len(), 5 * single.len());
        // Chirp train is periodic: chirp 0 == chirp 3.
        let n = single.len();
        for i in (0..n).step_by(97) {
            assert!((w.samples[i] - w.samples[i + 3 * n]).abs() < 1e-12);
        }
    }

    #[test]
    fn template_waveforms_match_fresh_synthesis_bitwise() {
        let tx = small_tx();
        let pkt = small_pkt();
        // Fresh synthesis, bypassing the template cache entirely.
        let fresh = |cfg: &ChirpConfig, tri: bool| {
            let mut c = *cfg;
            c.fs = tx.fs;
            c.amplitude = tx.amplitude();
            if tri {
                c.triangular()
            } else {
                c.sawtooth()
            }
        };
        assert_eq!(
            field2_chirp(&tx, &pkt.field2_chirp),
            fresh(&pkt.field2_chirp, false)
        );
        assert_eq!(
            field1_chirp(&tx, &pkt.field1_chirp),
            fresh(&pkt.field1_chirp, true)
        );

        // The _into assembly on a reused buffer matches the allocating
        // path bit for bit.
        let f1 = field1_waveform(&tx, &pkt, LinkMode::Downlink);
        let f2 = field2_waveform(&tx, &pkt);
        let mut buf = Signal::zeros(1.0, 0.0, 0);
        for _ in 0..2 {
            field1_waveform_into(&tx, &pkt, LinkMode::Downlink, &mut buf);
            assert_eq!(f1, buf);
            field2_waveform_into(&tx, &pkt, &mut buf);
            assert_eq!(f2, buf);
        }
    }

    #[test]
    fn query_power_is_tx_power() {
        let tx = small_tx();
        let q = query_waveform(&tx, 28e9, 27.5e9, 28.5e9, 1e-6);
        let dbm = milback_dsp::noise::watts_to_dbm(q.power());
        assert!((dbm - 27.0).abs() < 0.2, "{dbm}");
    }

    #[test]
    fn oaqfm_symbol_keying() {
        let tx = small_tx();
        let syms = [
            OaqfmSymbol {
                a_on: false,
                b_on: false,
            },
            OaqfmSymbol {
                a_on: true,
                b_on: true,
            },
            OaqfmSymbol {
                a_on: true,
                b_on: false,
            },
        ];
        let w = oaqfm_waveform(&tx, 28e9, 27.5e9, 28.5e9, &syms, 1e6);
        let sps = (tx.fs / 1e6) as usize;
        let p0: f64 = w.samples[..sps].iter().map(|c| c.norm_sq()).sum();
        assert_eq!(p0, 0.0);
        let p1: f64 = w.samples[sps..2 * sps]
            .iter()
            .map(|c| c.norm_sq())
            .sum::<f64>()
            / sps as f64;
        let p2: f64 = w.samples[2 * sps..]
            .iter()
            .map(|c| c.norm_sq())
            .sum::<f64>()
            / sps as f64;
        // Symbol 11 carries both tones → twice the power of symbol 10.
        assert!((p1 / p2 - 2.0).abs() < 0.05, "p1/p2 {}", p1 / p2);
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
