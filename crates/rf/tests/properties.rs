//! Property-based tests of the RF substrate's physical invariants.

use milback_rf::antenna::{Antenna, Horn, PatchElement};
use milback_rf::channel::Scene;
use milback_rf::fsa::{DualPortFsa, FsaConfig, Port};
use milback_rf::geometry::{deg_to_rad, wrap_angle, Point, Pose};
use milback_rf::propagation::{backscatter_rx_power, fspl, one_way_rx_power};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fspl_monotone_in_distance(d1 in 0.5f64..20.0, d2 in 0.5f64..20.0) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(fspl(near, 28e9) >= fspl(far, 28e9));
    }

    #[test]
    fn friis_is_reciprocal(gt in 1.0f64..100.0, gr in 1.0f64..100.0, d in 0.5f64..20.0) {
        // Swapping TX and RX gains leaves the one-way budget unchanged.
        let a = one_way_rx_power(1.0, gt, gr, d, 28e9);
        let b = one_way_rx_power(1.0, gr, gt, d, 28e9);
        prop_assert!((a - b).abs() < 1e-18 * a.max(b));
    }

    #[test]
    fn backscatter_never_exceeds_one_way(g in 1.0f64..100.0, d in 1.0f64..20.0) {
        // Two-way power with unit node gain is the one-way power times
        // another sub-unity path loss.
        let one = one_way_rx_power(1.0, g, 1.0, d, 28e9);
        let two = backscatter_rx_power(1.0, g, 1.0, 1.0, 1.0, d, 28e9);
        prop_assert!(two <= one);
    }

    #[test]
    fn fsa_gain_is_finite_and_nonnegative(deg in -90.0f64..90.0, f_ghz in 26.5f64..29.5) {
        let fsa = DualPortFsa::milback();
        for port in Port::BOTH {
            let g = fsa.gain(port, deg_to_rad(deg), f_ghz * 1e9);
            prop_assert!(g.is_finite() && g >= 0.0);
        }
    }

    #[test]
    fn fsa_gain_curve_matches_per_point_gain(
        // Clamping an overhanging range puts θ exactly at ±90° in some
        // cases.
        deg in (-95.0f64..95.0).prop_map(|d| d.clamp(-90.0, 90.0)),
        f_lo_ghz in 20.0f64..36.0,
        // A width ≤ 0 is a degenerate band: one point at `f_lo`.
        width_ghz in -1.0f64..4.0,
        long in any::<bool>(),
        // Past `TAPER_ON_STACK` (64) the curve evaluates the taper per
        // point instead of from its stack table.
        n_elements in 2usize..80,
    ) {
        let fsa = DualPortFsa::new(FsaConfig { n_elements, ..FsaConfig::milback() });
        let theta = deg_to_rad(deg);
        let f_lo = f_lo_ghz * 1e9;
        let f_hi = f_lo + width_ghz * 1e9;
        let (step, points) = if f_hi <= f_lo {
            (1.0, 1)
        } else {
            ((f_hi - f_lo) / 2047.0, if long { 2048 } else { 1 })
        };
        for port in Port::BOTH {
            let mut curve = vec![f64::NAN; points];
            fsa.gain_curve_into(port, theta, f_lo, step, &mut curve);
            for (i, g) in curve.iter().enumerate() {
                let want = fsa.gain(port, theta, f_lo + i as f64 * step);
                prop_assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "{:?} θ={} point {} of {}: {} vs {}",
                    port, theta, i, points, g, want
                );
            }
        }
    }

    #[test]
    fn fsa_ports_are_mirrors(deg in -40.0f64..40.0, f_ghz in 26.5f64..29.5) {
        // G_A(θ, f) == G_B(−θ, f): the two feeds see mirrored worlds.
        let fsa = DualPortFsa::milback();
        let t = deg_to_rad(deg);
        let f = f_ghz * 1e9;
        let ga = fsa.gain(Port::A, t, f);
        let gb = fsa.gain(Port::B, -t, f);
        prop_assert!((ga - gb).abs() < 1e-9 * (ga + gb + 1e-12));
    }

    #[test]
    fn fsa_scan_law_monotone(f1_ghz in 26.5f64..29.4, df in 0.01f64..0.5) {
        let fsa = DualPortFsa::milback();
        let f2 = (f1_ghz + df).min(29.5);
        let a1 = fsa.beam_angle(Port::A, f1_ghz * 1e9).unwrap();
        let a2 = fsa.beam_angle(Port::A, f2 * 1e9).unwrap();
        prop_assert!(a2 > a1);
    }

    #[test]
    fn tone_selection_round_trips(deg in -29.0f64..29.0) {
        let fsa = DualPortFsa::milback();
        let theta = deg_to_rad(deg);
        for port in Port::BOTH {
            let f = fsa.frequency_for_angle(port, theta).unwrap();
            // The beam at the selected frequency is the global gain max
            // over angle (within 0.2°).
            let g_at = fsa.gain_dbi(port, theta, f);
            let peak = fsa.peak_gain_dbi(port, f);
            prop_assert!((peak - g_at).abs() < 0.05, "{peak} vs {g_at}");
        }
    }

    #[test]
    fn horn_pattern_bounded_by_peak(deg in -180.0f64..180.0) {
        let h = Horn::milback_ap();
        prop_assert!(h.gain_dbi(deg_to_rad(deg), 28e9) <= h.peak_dbi + 1e-9);
    }

    #[test]
    fn patch_pattern_bounded(deg in -180.0f64..180.0, q in 1.0f64..4.0) {
        let p = PatchElement { peak_dbi: 6.0, q, floor_db: -20.0 };
        let g = p.gain_dbi(deg_to_rad(deg), 28e9);
        prop_assert!((6.0 - 20.0 - 1e-9..=6.0 + 1e-9).contains(&g));
    }

    #[test]
    fn wrap_angle_idempotent(a in -50.0f64..50.0) {
        let w = wrap_angle(a);
        prop_assert!((-std::f64::consts::PI..=std::f64::consts::PI).contains(&w));
        prop_assert!((wrap_angle(w) - w).abs() < 1e-12);
    }

    #[test]
    fn pose_incidence_inverts_rotation(r in 1.0f64..10.0, phi in -1.0f64..1.0, psi in -1.0f64..1.0) {
        let pose = Pose::facing_ap(r, phi, psi);
        let inc = pose.incidence_from(&Point::origin());
        prop_assert!((inc + psi).abs() < 1e-9);
    }

    #[test]
    fn downlink_tone_gain_decreases_with_distance(d1 in 1.0f64..6.0, extra in 0.5f64..6.0) {
        let scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let near = Pose::facing_ap(d1, 0.0, 0.0);
        let far = Pose::facing_ap(d1 + extra, 0.0, 0.0);
        let mut s_near = scene.clone();
        s_near.steer_towards(&near.position);
        let mut s_far = scene.clone();
        s_far.steer_towards(&far.position);
        let g_near = s_near.tone_gain_to_port(&near, &fsa, Port::A, f);
        let g_far = s_far.tone_gain_to_port(&far, &fsa, Port::A, f);
        prop_assert!(g_near > g_far);
    }
}
