//! OAQFM carrier selection from the estimated node orientation (paper
//! §6.1–6.2).
//!
//! Given the node's orientation, the AP picks the frequency that steers
//! the node's port-A beam toward itself and the (mirrored) frequency for
//! port B. When the node is (nearly) normal to the AP the two frequencies
//! coincide and the link falls back to single-carrier OOK.

use milback_rf::fsa::{DualPortFsa, Port};

/// The carrier plan for a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ToneSelection {
    /// Two distinct tones: full OAQFM at 2 bits/symbol.
    Dual {
        /// Tone steering port A toward the AP, Hz.
        f_a: f64,
        /// Tone steering port B toward the AP, Hz.
        f_b: f64,
    },
    /// Normal-incidence fallback: one tone, OOK at 1 bit/symbol.
    Single {
        /// The shared tone frequency, Hz.
        f: f64,
    },
}

impl ToneSelection {
    /// Bits carried per symbol under this plan.
    pub fn bits_per_symbol(&self) -> usize {
        match self {
            ToneSelection::Dual { .. } => 2,
            ToneSelection::Single { .. } => 1,
        }
    }
}

/// Selects carriers for a node whose orientation (incidence angle,
/// radians) the AP has estimated.
///
/// `min_separation` is the smallest tone spacing (Hz) at which the two
/// envelope-detector branches remain separable; below it the plan falls
/// back to OOK. Returns `None` when the orientation is outside the FSA's
/// scannable range (no frequency steers a beam there).
pub fn select_tones(
    fsa: &DualPortFsa,
    orientation: f64,
    min_separation: f64,
) -> Option<ToneSelection> {
    let f_a = fsa.frequency_for_angle(Port::A, orientation)?;
    let f_b = fsa.frequency_for_angle(Port::B, orientation)?;
    let (lo, hi) = (fsa.config().f_lo, fsa.config().f_hi);
    if !(lo..=hi).contains(&f_a) || !(lo..=hi).contains(&f_b) {
        return None;
    }
    if (f_a - f_b).abs() < min_separation {
        Some(ToneSelection::Single {
            f: (f_a + f_b) / 2.0,
        })
    } else {
        Some(ToneSelection::Dual { f_a, f_b })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_rf::geometry::deg_to_rad;

    #[test]
    fn off_normal_gives_dual_tones() {
        let fsa = DualPortFsa::milback();
        let sel = select_tones(&fsa, deg_to_rad(15.0), 50e6).unwrap();
        match sel {
            ToneSelection::Dual { f_a, f_b } => {
                assert!((f_a - f_b).abs() > 50e6);
                assert_eq!(sel.bits_per_symbol(), 2);
                // Both tones steer their port's beam to the orientation.
                let ta = fsa.beam_angle(Port::A, f_a).unwrap();
                let tb = fsa.beam_angle(Port::B, f_b).unwrap();
                assert!((ta - deg_to_rad(15.0)).abs() < 1e-9);
                assert!((tb - deg_to_rad(15.0)).abs() < 1e-9);
            }
            _ => panic!("expected dual"),
        }
    }

    #[test]
    fn normal_incidence_falls_back_to_ook() {
        let fsa = DualPortFsa::milback();
        let sel = select_tones(&fsa, 0.0, 50e6).unwrap();
        match sel {
            ToneSelection::Single { f } => {
                assert!((f - fsa.normal_frequency()).abs() < 1.0);
                assert_eq!(sel.bits_per_symbol(), 1);
            }
            _ => panic!("expected single"),
        }
    }

    #[test]
    fn near_normal_with_wide_guard_falls_back() {
        let fsa = DualPortFsa::milback();
        // 1° off normal: tones exist but are ~100 MHz apart; with a
        // 500 MHz guard the plan must fall back.
        let sel = select_tones(&fsa, deg_to_rad(1.0), 500e6).unwrap();
        assert!(matches!(sel, ToneSelection::Single { .. }));
    }

    #[test]
    fn out_of_scan_range_is_none() {
        let fsa = DualPortFsa::milback();
        assert!(select_tones(&fsa, deg_to_rad(50.0), 50e6).is_none());
        assert!(select_tones(&fsa, deg_to_rad(-50.0), 50e6).is_none());
    }

    #[test]
    fn tones_move_with_orientation() {
        let fsa = DualPortFsa::milback();
        let s1 = select_tones(&fsa, deg_to_rad(10.0), 50e6).unwrap();
        let s2 = select_tones(&fsa, deg_to_rad(20.0), 50e6).unwrap();
        if let (ToneSelection::Dual { f_a: a1, .. }, ToneSelection::Dual { f_a: a2, .. }) = (s1, s2)
        {
            assert!(a2 > a1, "port-A tone should increase with orientation");
        } else {
            panic!("expected dual tones");
        }
    }
}
