//! Site survey: coverage maps over the room.
//!
//! For deployment planning, sweep candidate node positions across a grid
//! and compute, per cell, whether localization works and the best uplink
//! rate the link budget supports. Uses the analytic per-tone budgets
//! (fast) rather than full waveform simulation, which is what a real
//! planning tool would do too.

use crate::config::ApParams;
use milback_dsp::noise::{ratio_to_db, thermal_noise_power};
use milback_node::node::BackscatterNode;
use milback_rf::channel::Scene;
use milback_rf::fsa::Port;
use milback_rf::geometry::{Point, Pose};

/// Candidate uplink bit rates, fastest first (OAQFM, 2 bits/symbol).
pub const UPLINK_RATES: [f64; 4] = [40e6, 20e6, 10e6, 5e6];

/// Decision-SNR margin (linear) required to accept a rate: ~13 dB keeps
/// the analytic BER under 1e-5.
pub const SNR_ACCEPT: f64 = 20.0;

/// One grid cell of the coverage map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageCell {
    /// Cell center.
    pub position: Point,
    /// Uplink decision SNR at 10 Mbps, dB (node facing the AP).
    pub uplink_snr_db: f64,
    /// Best supported uplink rate from [`UPLINK_RATES`], bits/s; `None`
    /// when even the slowest rate lacks margin.
    pub best_rate: Option<f64>,
}

/// Computes the analytic uplink decision SNR (linear) for a node at
/// `pose`, with the AP steered at it, at `bit_rate` bits/s. `None` when
/// the node is outside the FSA scan, at an AP antenna or has a NaN
/// coordinate ([`Scene::can_render_at`]).
pub fn analytic_uplink_snr(
    scene: &Scene,
    node: &BackscatterNode,
    ap: &ApParams,
    pose: &Pose,
    bit_rate: f64,
) -> Option<f64> {
    if !scene.can_render_at(&pose.position) {
        return None;
    }
    let mut scene = scene.clone();
    scene.steer_towards(&pose.position);
    let inc = pose.incidence_from(&scene.tx_pos);
    let f_a = node.fsa.frequency_for_angle(Port::A, inc)?;
    if !(node.fsa.config().f_lo..=node.fsa.config().f_hi).contains(&f_a) {
        return None;
    }
    // Per-tone TX power (two tones), two-way gain, node losses.
    let p_tone = milback_dsp::noise::dbm_to_watts(ap.tx.power_dbm) / 2.0;
    let g = scene.tone_backscatter_gain(pose, &node.fsa, Port::A, f_a, 0);
    let two_way_loss = 10f64.powf(-2.0 * node.impl_loss_db / 10.0);
    let gamma_contrast = {
        let r = node
            .switch
            .gamma(milback_hw::switch::SwitchState::Reflective);
        let a = node
            .switch
            .gamma(milback_hw::switch::SwitchState::Absorptive);
        (r - a).norm_sq() / 4.0 // half-swing decision amplitude, squared
    };
    let p_sig = p_tone * g * two_way_loss * gamma_contrast;
    // Decision noise: LNA-referred thermal noise in the symbol bandwidth.
    let symbol_rate = bit_rate / 2.0;
    let p_noise = thermal_noise_power(symbol_rate, 3.0);
    Some(p_sig / p_noise)
}

/// Sweeps a grid over `x ∈ [1, depth]`, `y ∈ [−width/2, width/2]` with
/// the given cell size, nodes facing the AP.
pub fn coverage_map(
    scene: &Scene,
    node: &BackscatterNode,
    ap: &ApParams,
    depth: f64,
    width: f64,
    cell: f64,
) -> Vec<CoverageCell> {
    assert!(cell > 0.0, "cell size must be positive");
    // Enumerate the grid first (row-major, the historical cell order),
    // then evaluate the independent cells on the batch engine.
    let mut cells = Vec::new();
    let mut x = 1.0;
    while x <= depth {
        let mut y = -width / 2.0;
        while y <= width / 2.0 {
            cells.push(Point::new(x, y));
            y += cell;
        }
        x += cell;
    }
    crate::batch::par_map(&cells, |&p, _| {
        let bearing = p.bearing_to(&Point::origin());
        let pose = Pose::new(p, bearing);
        let snr10 = analytic_uplink_snr(scene, node, ap, &pose, 10e6);
        let best_rate = UPLINK_RATES.iter().copied().find(|&rate| {
            analytic_uplink_snr(scene, node, ap, &pose, rate)
                .map(|s| s >= SNR_ACCEPT)
                .unwrap_or(false)
        });
        CoverageCell {
            position: p,
            uplink_snr_db: snr10.map(ratio_to_db).unwrap_or(f64::NEG_INFINITY),
            best_rate,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_rf::geometry::deg_to_rad;

    fn setup() -> (Scene, BackscatterNode, ApParams) {
        (
            Scene::milback_indoor(),
            BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0)),
            ApParams::milback(),
        )
    }

    #[test]
    fn snr_decreases_with_distance() {
        let (scene, node, ap) = setup();
        let s2 =
            analytic_uplink_snr(&scene, &node, &ap, &Pose::facing_ap(2.0, 0.0, 0.0), 10e6).unwrap();
        let s8 =
            analytic_uplink_snr(&scene, &node, &ap, &Pose::facing_ap(8.0, 0.0, 0.0), 10e6).unwrap();
        // d⁻⁴: 2 m → 8 m costs ~24 dB.
        let drop = ratio_to_db(s2 / s8);
        assert!((drop - 24.1).abs() < 1.0, "drop {drop} dB");
    }

    #[test]
    fn analytic_snr_tracks_simulation() {
        // The planning estimate should be within a few dB of the measured
        // decision SNR from the full waveform simulation.
        use crate::config::Fidelity;
        use crate::network::Network;
        let (scene, node, ap) = setup();
        let pose = Pose::facing_ap(4.0, 0.0, deg_to_rad(15.0));
        let analytic = ratio_to_db(analytic_uplink_snr(&scene, &node, &ap, &pose, 10e6).unwrap());
        let mut net = Network::new(pose, Fidelity::Fast, 81);
        let measured = ratio_to_db(net.uplink(&[0x5A; 12], 5e6, true).unwrap().snr);
        assert!(
            (analytic - measured).abs() < 6.0,
            "analytic {analytic} vs measured {measured}"
        );
    }

    #[test]
    fn out_of_scan_range_is_none() {
        let (scene, node, ap) = setup();
        let pose = Pose::facing_ap(3.0, 0.0, deg_to_rad(50.0));
        assert!(analytic_uplink_snr(&scene, &node, &ap, &pose, 10e6).is_none());
    }

    #[test]
    fn poses_at_an_ap_antenna_or_nan_are_none() {
        let (scene, node, ap) = setup();
        for p in [scene.tx_pos, scene.rx_pos[0], scene.rx_pos[1]] {
            let pose = Pose::new(p, 0.3);
            assert_eq!(analytic_uplink_snr(&scene, &node, &ap, &pose, 10e6), None);
        }
        let nan = Pose::new(Point::new(f64::NAN, 1.0), 0.0);
        assert_eq!(analytic_uplink_snr(&scene, &node, &ap, &nan, 10e6), None);
    }

    #[test]
    fn coverage_map_shape() {
        let (scene, node, ap) = setup();
        let map = coverage_map(&scene, &node, &ap, 6.0, 4.0, 1.0);
        assert!(!map.is_empty());
        // Near cells support fast rates, far cells slower (or same) ones.
        let near = map
            .iter()
            .filter(|c| c.position.x < 2.5 && c.position.y.abs() < 1.0)
            .filter_map(|c| c.best_rate)
            .fold(0.0f64, f64::max);
        let far = map
            .iter()
            .filter(|c| c.position.x > 5.5)
            .filter_map(|c| c.best_rate)
            .fold(0.0f64, f64::max);
        assert!(near >= far, "near {near} vs far {far}");
        assert!(near >= 40e6, "near cells should support 40 Mbps: {near}");
    }
}
