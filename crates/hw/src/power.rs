//! Node power and energy accounting (paper §9.6).
//!
//! The node's only active components are two SPDT switches and two
//! envelope detectors; the MCU is excluded as in the paper (footnote 3:
//! "this power consumption does not include the power consumption of the
//! micro-controller since it is already available in the user devices").
//!
//! Component draws are datasheet-calibrated so the mode totals land on the
//! paper's measurements: 18 mW during localization/downlink and 32 mW
//! during uplink, giving 0.5 nJ/bit at 36 Mbps downlink and 0.8 nJ/bit at
//! 40 Mbps uplink.

use crate::switch::SpdtSwitch;

/// Operating mode of the node, as far as power is concerned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeMode {
    /// Both ports parked (absorptive), nothing toggling.
    Idle,
    /// Localization: ports toggling at the 10 kHz modulation rate.
    Localization,
    /// Downlink reception: ports parked absorptive, detectors listening.
    Downlink,
    /// Uplink transmission at the given raw bit rate (bits/s). OAQFM
    /// carries 2 bits/symbol, so the per-switch toggle rate is
    /// `bit_rate / 2`.
    Uplink {
        /// Raw uplink bit rate in bits/s.
        bit_rate: f64,
    },
}

/// Power model of a MilBack node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// The two SPDT switches.
    pub switch: SpdtSwitch,
    /// Static draw of each envelope detector, mW.
    pub detector_mw: f64,
    /// MCU draw, mW — reported separately, excluded from node totals
    /// (paper footnote 3).
    pub mcu_mw: f64,
}

impl PowerModel {
    /// The MilBack prototype's power model.
    pub fn milback() -> Self {
        Self {
            switch: SpdtSwitch {
                static_power_mw: 0.5,
                toggle_energy_nj: 0.35,
                ..SpdtSwitch::adrf5020()
            },
            detector_mw: 8.5,
            mcu_mw: 5.76,
        }
    }

    /// Per-switch toggle rate (transitions/s) in a mode.
    fn toggle_rate(&self, mode: NodeMode) -> f64 {
        match mode {
            NodeMode::Idle | NodeMode::Downlink => 0.0,
            // 10 kHz square wave → 20k transitions/s.
            NodeMode::Localization => 20e3,
            // One (worst-case) transition per OAQFM symbol per switch.
            NodeMode::Uplink { bit_rate } => bit_rate / 2.0,
        }
    }

    /// Total node power in a mode, mW (MCU excluded).
    pub fn power_mw(&self, mode: NodeMode) -> f64 {
        let per_switch = self.switch.power_mw(self.toggle_rate(mode));
        2.0 * per_switch + 2.0 * self.detector_mw
    }

    /// Energy per bit in nJ for a communication mode at `bit_rate` bits/s.
    pub fn energy_per_bit_nj(&self, mode: NodeMode, bit_rate: f64) -> f64 {
        assert!(bit_rate > 0.0, "bit rate must be positive");
        self.power_mw(mode) * 1e-3 / bit_rate * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downlink_and_localization_power_is_18mw() {
        let m = PowerModel::milback();
        let dl = m.power_mw(NodeMode::Downlink);
        assert!((dl - 18.0).abs() < 0.5, "downlink {dl} mW");
        let loc = m.power_mw(NodeMode::Localization);
        assert!((loc - 18.0).abs() < 0.5, "localization {loc} mW");
    }

    #[test]
    fn uplink_power_is_32mw_at_40mbps() {
        let m = PowerModel::milback();
        let ul = m.power_mw(NodeMode::Uplink { bit_rate: 40e6 });
        assert!((ul - 32.0).abs() < 1.0, "uplink {ul} mW");
    }

    #[test]
    fn energy_efficiency_matches_paper() {
        let m = PowerModel::milback();
        // Downlink: 18 mW at 36 Mbps → 0.5 nJ/bit.
        let dl = m.energy_per_bit_nj(NodeMode::Downlink, 36e6);
        assert!((dl - 0.5).abs() < 0.05, "downlink {dl} nJ/bit");
        // Uplink: 32 mW at 40 Mbps → 0.8 nJ/bit.
        let ul = m.energy_per_bit_nj(NodeMode::Uplink { bit_rate: 40e6 }, 40e6);
        assert!((ul - 0.8).abs() < 0.05, "uplink {ul} nJ/bit");
    }

    #[test]
    fn uplink_power_grows_with_rate() {
        let m = PowerModel::milback();
        let slow = m.power_mw(NodeMode::Uplink { bit_rate: 10e6 });
        let fast = m.power_mw(NodeMode::Uplink { bit_rate: 160e6 });
        assert!(fast > slow + 20.0, "slow {slow} fast {fast}");
    }

    #[test]
    fn idle_is_cheapest() {
        let m = PowerModel::milback();
        let idle = m.power_mw(NodeMode::Idle);
        assert!(idle <= m.power_mw(NodeMode::Localization));
        assert!(idle <= m.power_mw(NodeMode::Uplink { bit_rate: 1e6 }));
    }
}
