//! Free-space propagation and backscatter link budgets.
//!
//! mmWave links are line-of-sight and the evaluation environment is a room,
//! so free-space (Friis) propagation with discrete clutter reflectors is
//! the appropriate model. All formulas follow the standard radar/Friis
//! forms; amplitudes are voltage ratios (power ratio = amplitude²).

use crate::geometry::wavelength;
use std::f64::consts::PI;

/// Free-space path loss (power ratio < 1) over distance `d` meters at
/// frequency `f` Hz: `(λ / 4πd)²`.
pub fn fspl(d: f64, f: f64) -> f64 {
    assert!(d > 0.0, "distance must be positive");
    let l = wavelength(f) / (4.0 * PI * d);
    l * l
}

/// Free-space path loss in dB (positive number).
pub fn fspl_db(d: f64, f: f64) -> f64 {
    -10.0 * fspl(d, f).log10()
}

/// One-way received power: `Pr = Pt·Gt·Gr·(λ/4πd)²`.
///
/// Used for the downlink budget (AP → node port).
pub fn one_way_rx_power(pt: f64, gt: f64, gr: f64, d: f64, f: f64) -> f64 {
    pt * gt * gr * fspl(d, f)
}

/// Backscatter (two-way) received power for an antenna-mode reflector:
///
/// `Pr = Pt·Gt·Gr·Gn²·|Γ|²·(λ/4πd)⁴`
///
/// The node captures with gain `Gn`, reflects with reflection coefficient
/// `Γ`, and re-radiates with the same gain (reciprocity). Used for the
/// uplink and localization budgets.
pub fn backscatter_rx_power(
    pt: f64,
    g_tx: f64,
    g_rx: f64,
    g_node: f64,
    refl_power: f64,
    d: f64,
    f: f64,
) -> f64 {
    let l = fspl(d, f);
    pt * g_tx * g_rx * g_node * g_node * refl_power * l * l
}

/// Radar-equation received power from a passive scatterer of RCS `sigma`
/// m²: `Pr = Pt·Gt·Gr·σ·λ²/((4π)³·d⁴)`. Used for clutter returns.
pub fn radar_rx_power(pt: f64, g_tx: f64, g_rx: f64, sigma: f64, d: f64, f: f64) -> f64 {
    let lambda = wavelength(f);
    pt * g_tx * g_rx * sigma * lambda * lambda / ((4.0 * PI).powi(3) * d.powi(4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_dsp::noise::ratio_to_db;

    #[test]
    fn fspl_at_28ghz_1m() {
        // FSPL(1 m, 28 GHz) ≈ 61.4 dB.
        let db = fspl_db(1.0, 28e9);
        assert!((db - 61.4).abs() < 0.2, "{db}");
    }

    #[test]
    fn fspl_doubling_distance_costs_6db() {
        let a = fspl_db(2.0, 28e9);
        let b = fspl_db(4.0, 28e9);
        assert!((b - a - 6.02).abs() < 0.01);
    }

    #[test]
    fn one_way_budget_example() {
        // Pt=27 dBm, Gt=20 dBi, Gn=12 dBi, d=2 m, f=28 GHz:
        // Pr = 27 + 20 + 12 − 67.4 ≈ −8.4 dBm.
        let pt = 0.501; // 27 dBm in watts
        let pr = one_way_rx_power(pt, 100.0, 10f64.powf(1.2), 2.0, 28e9);
        let pr_dbm = 10.0 * (pr * 1e3).log10();
        assert!((pr_dbm + 8.4).abs() < 0.3, "{pr_dbm}");
    }

    #[test]
    fn backscatter_is_square_of_one_way() {
        // With Gt=Gr and unit node gain/reflection, two-way power relative
        // to Pt equals (one-way/Pt)² when expressed as path-loss products.
        let pt = 1.0;
        let d = 3.0;
        let f = 28e9;
        let one = one_way_rx_power(pt, 1.0, 1.0, d, f);
        let two = backscatter_rx_power(pt, 1.0, 1.0, 1.0, 1.0, d, f);
        assert!((two - one * one).abs() < 1e-25);
    }

    #[test]
    fn backscatter_slope_is_12db_per_doubling() {
        let a = backscatter_rx_power(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 28e9);
        let b = backscatter_rx_power(1.0, 1.0, 1.0, 1.0, 1.0, 4.0, 28e9);
        let drop = ratio_to_db(a / b);
        assert!((drop - 12.04).abs() < 0.05, "{drop}");
    }

    #[test]
    fn radar_equation_consistency() {
        // A scatterer with σ = Gn²λ²/4π behaves like the antenna-mode
        // backscatterer with unit reflection.
        let f = 28e9;
        let d = 2.5;
        let g_node = 15.0;
        let lambda = wavelength(f);
        let sigma = g_node * g_node * lambda * lambda / (4.0 * PI);
        let a = radar_rx_power(1.0, 1.0, 1.0, sigma, d, f);
        let b = backscatter_rx_power(1.0, 1.0, 1.0, g_node, 1.0, d, f);
        assert!((a - b).abs() < 1e-25 * a.max(b).max(1.0));
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn fspl_rejects_zero_distance() {
        fspl(0.0, 28e9);
    }
}
