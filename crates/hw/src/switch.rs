//! SPDT RF switch model (ADRF5020-class).
//!
//! Each FSA port is connected through an SPDT switch to either the FSA
//! ground plane (reflective mode) or an envelope detector (absorptive
//! mode) — paper §4. The switch model captures the three properties that
//! matter to the system:
//!
//! * reflection coefficient in each throw position (this is what modulates
//!   the backscatter),
//! * a maximum toggle rate (this is what caps the uplink at 160 Mbps,
//!   paper §9.5),
//! * energy per transition (this is why uplink draws more power than
//!   downlink, paper §9.6).

use milback_dsp::num::Cpx;

/// Throw position of the SPDT switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchState {
    /// Port shorted to the FSA ground plane → beam reflects (|Γ| ≈ 1).
    Reflective,
    /// Port routed to the matched envelope detector → beam absorbs
    /// (|Γ| ≈ 0).
    Absorptive,
}

/// An SPDT RF switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpdtSwitch {
    /// Insertion loss in the signal path, dB (positive).
    pub insertion_loss_db: f64,
    /// Return loss looking into the matched (absorptive) throw, dB
    /// (positive; higher = better match).
    pub return_loss_db: f64,
    /// Maximum toggle rate, Hz. Toggling faster than this is rejected.
    pub max_toggle_hz: f64,
    /// Static power draw, mW.
    pub static_power_mw: f64,
    /// Energy per state transition, nJ.
    pub toggle_energy_nj: f64,
}

impl SpdtSwitch {
    /// The ADRF5020-class switch used in the MilBack prototype.
    ///
    /// `max_toggle_hz` is set so that two-port OAQFM (2 bits/symbol) tops
    /// out at the paper's 160 Mbps uplink limit (80 Msym/s).
    pub fn adrf5020() -> Self {
        Self {
            insertion_loss_db: 1.0,
            return_loss_db: 22.0,
            max_toggle_hz: 80e6,
            static_power_mw: 0.5,
            toggle_energy_nj: 0.33,
        }
    }

    /// Complex voltage reflection coefficient presented to the FSA port in
    /// the given state.
    ///
    /// * Reflective: a short circuit reflects with Γ = −1, attenuated by
    ///   the round-trip insertion loss.
    /// * Absorptive: the matched detector leaves only the residual return
    ///   loss.
    pub fn gamma(&self, state: SwitchState) -> Cpx {
        match state {
            SwitchState::Reflective => {
                // Signal passes the switch twice (in and back out).
                let a = 10f64.powf(-2.0 * self.insertion_loss_db / 20.0);
                Cpx::new(-a, 0.0)
            }
            SwitchState::Absorptive => {
                let a = 10f64.powf(-self.return_loss_db / 20.0);
                Cpx::new(a, 0.0)
            }
        }
    }

    /// Power transmission into the detector path in the absorptive state
    /// (one-way through the switch): `(1 − |Γ|²)·10^(−IL/10)`.
    pub fn through_gain(&self) -> f64 {
        let g = self.gamma(SwitchState::Absorptive).norm_sq();
        (1.0 - g) * 10f64.powf(-self.insertion_loss_db / 10.0)
    }

    /// Whether a toggle rate (Hz) is within the switch's capability.
    pub fn supports_rate(&self, rate_hz: f64) -> bool {
        rate_hz <= self.max_toggle_hz
    }

    /// Average switching power at `toggle_rate` transitions per second, mW.
    pub fn power_mw(&self, toggle_rate: f64) -> f64 {
        assert!(toggle_rate >= 0.0, "toggle rate must be non-negative");
        self.static_power_mw + self.toggle_energy_nj * 1e-9 * toggle_rate * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_reflective_is_near_minus_one() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.gamma(SwitchState::Reflective);
        assert!(g.re < -0.7 && g.re > -1.0, "{g:?}");
        assert_eq!(g.im, 0.0);
    }

    #[test]
    fn gamma_absorptive_is_small() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.gamma(SwitchState::Absorptive);
        assert!(g.abs() < 0.1, "{g:?}");
    }

    #[test]
    fn through_gain_below_unity() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.through_gain();
        assert!(g > 0.5 && g < 1.0, "{g}");
    }

    #[test]
    fn rate_capability() {
        let sw = SpdtSwitch::adrf5020();
        assert!(sw.supports_rate(20e6));
        assert!(sw.supports_rate(80e6));
        assert!(!sw.supports_rate(100e6));
    }

    #[test]
    fn uplink_caps_at_160_mbps() {
        // Paper §9.5: "the maximum uplink data rate that the node can
        // operate is 160 Mbps", limited by switching speed: one toggle
        // per OAQFM symbol, two bits per symbol.
        let sw = SpdtSwitch::adrf5020();
        assert_eq!(2.0 * sw.max_toggle_hz, 160e6);
    }

    #[test]
    fn power_grows_with_rate() {
        let sw = SpdtSwitch::adrf5020();
        let idle = sw.power_mw(0.0);
        assert_eq!(idle, sw.static_power_mw);
        let fast = sw.power_mw(20e6);
        assert!(fast > idle + 5.0, "fast {fast}");
    }
}
