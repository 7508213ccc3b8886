//! Uplink OAQFM modulation at the node (paper §6.3).
//!
//! The AP transmits a continuous two-tone query; the node piggybacks its
//! data by independently switching each FSA port between reflective and
//! absorptive. Reflecting the tone at `f_A` signals the symbol's first
//! bit, reflecting `f_B` the second (mirroring the downlink mapping of
//! [`OaqfmSymbol`]).
//!
//! The modulator's output is a pair of [`SwitchSchedule`]s — the exact
//! artifact the channel model consumes — plus bookkeeping for the
//! toggle-rate limit (the 160 Mbps cap of §9.5) and switching energy.

use milback_hw::switch::{SpdtSwitch, SwitchSchedule, SwitchState};
use milback_proto::bits::OaqfmSymbol;

/// Errors from building an uplink modulation schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModulationError {
    /// The requested symbol rate exceeds the switch's toggle capability.
    SymbolRateTooHigh {
        /// Requested symbol rate, symbols/s (integer Hz).
        requested_hz: u64,
        /// Switch limit, Hz.
        limit_hz: u64,
    },
}

impl std::fmt::Display for ModulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModulationError::SymbolRateTooHigh {
                requested_hz,
                limit_hz,
            } => write!(
                f,
                "symbol rate {requested_hz} Hz exceeds switch limit {limit_hz} Hz"
            ),
        }
    }
}

impl std::error::Error for ModulationError {}

/// Builds the per-port switch schedules that transmit `symbols` starting
/// at time `t0`, one symbol per `1/symbol_rate` seconds, into
/// `out_a`/`out_b`.
///
/// State mapping: a tone is *reflected* (bit 1) when the port is
/// [`SwitchState::Reflective`], absorbed (bit 0) when absorptive. Both
/// ports park absorptive before and after the payload so the AP's
/// baseband is quiet.
///
/// Allocation-free in the link layer's pooled steady state: the event
/// buffers inside `out_a`/`out_b` are reused when they already hold
/// [`SwitchSchedule::Events`] schedules.
pub fn modulate_uplink_into(
    switch: &SpdtSwitch,
    symbols: &[OaqfmSymbol],
    t0: f64,
    symbol_rate: f64,
    out_a: &mut SwitchSchedule,
    out_b: &mut SwitchSchedule,
) -> Result<(), ModulationError> {
    assert!(symbol_rate > 0.0, "symbol rate must be positive");
    // Worst case the switch toggles once per symbol.
    if !switch.supports_rate(symbol_rate) {
        return Err(ModulationError::SymbolRateTooHigh {
            requested_hz: symbol_rate as u64,
            limit_hz: switch.max_toggle_hz as u64,
        });
    }
    // Reclaim the previous schedules' event buffers where possible.
    let reclaim = |slot: &mut SwitchSchedule| -> Vec<(f64, SwitchState)> {
        match std::mem::replace(slot, SwitchSchedule::Constant(SwitchState::Absorptive)) {
            SwitchSchedule::Events(mut v) => {
                v.clear();
                v
            }
            _ => Vec::new(),
        }
    };
    let mut ev_a = reclaim(out_a);
    let mut ev_b = reclaim(out_b);
    let ts = 1.0 / symbol_rate;
    ev_a.push((0.0, SwitchState::Absorptive));
    ev_b.push((0.0, SwitchState::Absorptive));
    for (k, s) in symbols.iter().enumerate() {
        let t = t0 + k as f64 * ts;
        let state = |on: bool| {
            if on {
                SwitchState::Reflective
            } else {
                SwitchState::Absorptive
            }
        };
        ev_a.push((t, state(s.a_on)));
        ev_b.push((t, state(s.b_on)));
    }
    let t_end = t0 + symbols.len() as f64 * ts;
    ev_a.push((t_end, SwitchState::Absorptive));
    ev_b.push((t_end, SwitchState::Absorptive));
    *out_a = SwitchSchedule::from_events(ev_a);
    *out_b = SwitchSchedule::from_events(ev_b);
    Ok(())
}

/// Maximum raw uplink bit rate for a switch: one toggle per symbol, two
/// bits per OAQFM symbol.
pub fn max_uplink_bit_rate(switch: &SpdtSwitch) -> f64 {
    2.0 * switch.max_toggle_hz
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_proto::bits::bits_to_symbols_into;

    fn sym(a: bool, b: bool) -> OaqfmSymbol {
        OaqfmSymbol { a_on: a, b_on: b }
    }

    /// The `(port A, port B)` schedules for `symbols`, built into fresh
    /// slots.
    fn modulate(
        sw: &SpdtSwitch,
        symbols: &[OaqfmSymbol],
        t0: f64,
        symbol_rate: f64,
    ) -> Result<(SwitchSchedule, SwitchSchedule), ModulationError> {
        let mut a = SwitchSchedule::Constant(SwitchState::Absorptive);
        let mut b = SwitchSchedule::Constant(SwitchState::Absorptive);
        modulate_uplink_into(sw, symbols, t0, symbol_rate, &mut a, &mut b)?;
        Ok((a, b))
    }

    #[test]
    fn schedules_follow_symbols() {
        let sw = SpdtSwitch::adrf5020();
        let symbols = [sym(true, false), sym(false, true), sym(true, true)];
        let (a, b) = modulate(&sw, &symbols, 1e-6, 1e6).unwrap();
        // Mid-symbol sampling.
        assert_eq!(a.state_at(1.5e-6), SwitchState::Reflective);
        assert_eq!(b.state_at(1.5e-6), SwitchState::Absorptive);
        assert_eq!(a.state_at(2.5e-6), SwitchState::Absorptive);
        assert_eq!(b.state_at(2.5e-6), SwitchState::Reflective);
        assert_eq!(a.state_at(3.5e-6), SwitchState::Reflective);
        assert_eq!(b.state_at(3.5e-6), SwitchState::Reflective);
    }

    #[test]
    fn parked_absorptive_outside_payload() {
        let sw = SpdtSwitch::adrf5020();
        let symbols = [sym(true, true)];
        let (a, b) = modulate(&sw, &symbols, 10e-6, 1e6).unwrap();
        assert_eq!(a.state_at(0.0), SwitchState::Absorptive);
        assert_eq!(b.state_at(5e-6), SwitchState::Absorptive);
        assert_eq!(a.state_at(20e-6), SwitchState::Absorptive);
    }

    #[test]
    fn rate_limit_enforced() {
        let sw = SpdtSwitch::adrf5020();
        let symbols = [sym(true, false)];
        let err = modulate(&sw, &symbols, 0.0, 200e6).unwrap_err();
        assert!(matches!(err, ModulationError::SymbolRateTooHigh { .. }));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn max_bit_rate_is_160mbps() {
        // Paper §9.5: "the maximum uplink data rate that the node can
        // operate is 160 Mbps", limited by switching speed.
        let sw = SpdtSwitch::adrf5020();
        assert!((max_uplink_bit_rate(&sw) - 160e6).abs() < 1.0);
    }

    #[test]
    fn full_byte_stream_schedule() {
        let sw = SpdtSwitch::adrf5020();
        let bits: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let mut symbols = Vec::new();
        bits_to_symbols_into(&bits, &mut symbols);
        let (a, _b) = modulate(&sw, &symbols, 0.0, 5e6).unwrap();
        // Spot-check: symbol k occupies [k/5e6, (k+1)/5e6).
        for (k, s) in symbols.iter().enumerate() {
            let t = (k as f64 + 0.5) / 5e6;
            let expect = if s.a_on {
                SwitchState::Reflective
            } else {
                SwitchState::Absorptive
            };
            assert_eq!(a.state_at(t), expect, "symbol {k}");
        }
    }

    #[test]
    fn transitions_counted_for_power() {
        let sw = SpdtSwitch::adrf5020();
        // Alternating symbols toggle port A every symbol.
        let symbols: Vec<OaqfmSymbol> = (0..10).map(|i| sym(i % 2 == 0, false)).collect();
        let (a, b) = modulate(&sw, &symbols, 0.0, 1e6).unwrap();
        let ta = a.transitions_in(11e-6);
        assert!(ta >= 9, "port A transitions {ta}");
        assert_eq!(b.transitions_in(11e-6), 0);
    }
}
