//! # milback-baseline
//!
//! The paper's Table 1 as data: MilBack against the prior mmWave
//! backscatter systems mmTag, Millimetro and OmniScatter, one
//! [`SystemRow`] each, with the §9.6 energy figures attached.
//!
//! ## Place in the paper's architecture
//!
//! Every prior system tags with a Van Atta retroreflective array: it
//! re-emits a carrier back at the AP but has no signal port to tap a
//! local receiver, so none of them can do downlink. That is the two-way
//! gap MilBack's dual-port FSA closes, and the column of [`table1`] only
//! MilBack fills. The `figures` binary prints these rows as
//! `results/table1_features`.

#![deny(rustdoc::broken_intra_doc_links)]

use milback_hw::power::{NodeMode, PowerModel};

/// The four capabilities compared in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Tag → reader data.
    pub uplink: bool,
    /// Reader → tag data.
    pub downlink: bool,
    /// Range + angle estimation of the tag.
    pub localization: bool,
    /// Tag orientation estimation.
    pub orientation: bool,
}

/// One backscatter system as a row of Table 1 and §9.6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemRow {
    /// System name as it appears in Table 1.
    pub name: &'static str,
    /// Capability row of Table 1.
    pub capabilities: Capabilities,
    /// Uplink energy efficiency, nJ/bit, if the system has an uplink.
    pub uplink_nj_per_bit: Option<f64>,
    /// Downlink energy efficiency, nJ/bit, if the system has a downlink.
    pub downlink_nj_per_bit: Option<f64>,
}

/// The rows of Table 1, in the paper's order: mmTag (SIGCOMM '21),
/// Millimetro (MobiCom '21), OmniScatter (MobiSys '22) and MilBack, whose
/// energies are [`PowerModel::milback`] at 40 Mbps uplink and 36 Mbps
/// downlink (§9.6).
pub fn table1() -> [SystemRow; 4] {
    // Arguments in field order: uplink, downlink, localization, orientation.
    let caps = |uplink, downlink, localization, orientation| Capabilities {
        uplink,
        downlink,
        localization,
        orientation,
    };
    let milback = PowerModel::milback();
    [
        // Uplink-only Van Atta tags at 2.4 nJ/bit (§9.6).
        SystemRow {
            name: "mmTag",
            capabilities: caps(true, false, false, false),
            uplink_nj_per_bit: Some(2.4),
            downlink_nj_per_bit: None,
        },
        // Retro-reflective tags for long-range localization; no data links.
        SystemRow {
            name: "Millimetro",
            capabilities: caps(false, false, true, false),
            uplink_nj_per_bit: None,
            downlink_nj_per_bit: None,
        },
        // Commodity-FMCW-radar backscatter: uplink and localization. The
        // paper compares its capabilities only and gives no energy
        // figure for it.
        SystemRow {
            name: "OmniScatter",
            capabilities: caps(true, false, true, false),
            uplink_nj_per_bit: None,
            downlink_nj_per_bit: None,
        },
        SystemRow {
            name: "MilBack (This Work)",
            capabilities: caps(true, true, true, true),
            uplink_nj_per_bit: Some(
                milback.energy_per_bit_nj(NodeMode::Uplink { bit_rate: 40e6 }, 40e6),
            ),
            downlink_nj_per_bit: Some(milback.energy_per_bit_nj(NodeMode::Downlink, 36e6)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let systems = table1();
        assert_eq!(systems.len(), 4);
        let rows: Vec<(&str, Capabilities)> =
            systems.iter().map(|s| (s.name, s.capabilities)).collect();
        // mmTag: uplink only.
        assert_eq!(
            rows[0].1,
            Capabilities {
                uplink: true,
                downlink: false,
                localization: false,
                orientation: false
            }
        );
        // Millimetro: localization only.
        assert_eq!(
            rows[1].1,
            Capabilities {
                uplink: false,
                downlink: false,
                localization: true,
                orientation: false
            }
        );
        // OmniScatter: uplink + localization.
        assert_eq!(
            rows[2].1,
            Capabilities {
                uplink: true,
                downlink: false,
                localization: true,
                orientation: false
            }
        );
        // MilBack: everything.
        assert_eq!(
            rows[3].1,
            Capabilities {
                uplink: true,
                downlink: true,
                localization: true,
                orientation: true
            }
        );
    }

    #[test]
    fn only_milback_has_downlink() {
        let with_downlink: Vec<&'static str> = table1()
            .iter()
            .filter(|s| s.capabilities.downlink)
            .map(|s| s.name)
            .collect();
        assert_eq!(with_downlink, vec!["MilBack (This Work)"]);
    }

    #[test]
    fn table1_only_milback_complete() {
        let complete: Vec<&str> = table1()
            .iter()
            .filter(|r| {
                let c = r.capabilities;
                c.uplink && c.downlink && c.localization && c.orientation
            })
            .map(|r| r.name)
            .collect();
        assert_eq!(complete, vec!["MilBack (This Work)"]);
    }

    #[test]
    fn milback_beats_mmtag_energy() {
        // §9.6: 0.8 nJ/bit uplink vs mmTag's 2.4 nJ/bit.
        let [mmtag, _, _, milback] = table1();
        let milback = milback.uplink_nj_per_bit.unwrap();
        let mmtag = mmtag.uplink_nj_per_bit.unwrap();
        assert!(milback < mmtag / 2.0, "milback {milback} vs mmtag {mmtag}");
        assert!((mmtag - 2.4).abs() < 1e-12);
    }

    #[test]
    fn downlink_efficiency_is_half_nj() {
        let [.., milback] = table1();
        let dl = milback.downlink_nj_per_bit.unwrap();
        assert!((dl - 0.5).abs() < 0.05, "{dl}");
    }

    #[test]
    fn only_the_paper_s_energy_figures_are_present() {
        // The paper gives mmTag's uplink energy and MilBack's own; every
        // other cell is absent, not estimated.
        let [mmtag, millimetro, omniscatter, _] = table1();
        assert!(millimetro.uplink_nj_per_bit.is_none());
        assert!(millimetro.downlink_nj_per_bit.is_none());
        assert!(mmtag.downlink_nj_per_bit.is_none());
        assert!(omniscatter.uplink_nj_per_bit.is_none());
        assert!(omniscatter.downlink_nj_per_bit.is_none());
    }
}
