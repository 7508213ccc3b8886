//! Angle-of-arrival estimation from the phase difference between the AP's
//! two RX antennas (paper §9.2).
//!
//! Both antennas see the node's backscatter at the same range bin but with
//! a geometric path difference `d·sinθ`, so the complex range-FFT values
//! differ in phase by `Δφ = 2π·d·sinθ/λ`. With `d = λ/2` the mapping is
//! unambiguous over ±90°.

use milback_dsp::num::Cpx;

/// AoA estimator configuration.
#[derive(Debug, Clone, Copy)]
pub struct AoaEstimator {
    /// RX antenna spacing, meters.
    pub spacing: f64,
    /// Carrier wavelength used for the phase→angle conversion, meters.
    pub wavelength: f64,
}

impl AoaEstimator {
    /// Builds an estimator for spacing `spacing` at carrier `fc` Hz.
    pub fn new(spacing: f64, fc: f64) -> Self {
        assert!(spacing > 0.0 && fc > 0.0, "invalid AoA parameters");
        Self {
            spacing,
            wavelength: milback_rf::geometry::wavelength(fc),
        }
    }

    /// The MilBack arrangement: λ/2 spacing at 28 GHz.
    pub fn milback() -> Self {
        let lambda = milback_rf::geometry::wavelength(28e9);
        Self {
            spacing: lambda / 2.0,
            wavelength: lambda,
        }
    }

    /// Converts a measured phase difference (radians, antenna0 − antenna1)
    /// to an angle. Returns `None` when the implied `sinθ` falls outside
    /// `[-1, 1]` (noise pushed the phase out of the unambiguous range).
    pub fn phase_to_angle(&self, dphi: f64) -> Option<f64> {
        let s = dphi * self.wavelength / (2.0 * std::f64::consts::PI * self.spacing);
        if s.abs() <= 1.0 {
            Some(s.asin())
        } else {
            None
        }
    }

    /// Inverse mapping (for tests and link budgets): the phase difference
    /// an emitter at angle `theta` produces.
    pub fn angle_to_phase(&self, theta: f64) -> f64 {
        2.0 * std::f64::consts::PI * self.spacing * theta.sin() / self.wavelength
    }

    /// Estimates the angle from the complex range-spectrum values of the
    /// node's bins at the two antennas: `θ = asin(arg(Σ x0·x1*)·λ/(2π·d))`
    /// over the bins within `half` of `peak`, so the phase average is
    /// weighted by magnitude — more robust at low SNR than the peak bin
    /// alone.
    pub fn estimate_windowed(
        &self,
        spec0: &[Cpx],
        spec1: &[Cpx],
        peak: usize,
        half: usize,
    ) -> Option<f64> {
        let lo = peak.saturating_sub(half);
        let hi = (peak + half + 1).min(spec0.len()).min(spec1.len());
        if lo >= hi {
            return None;
        }
        let acc: Cpx = (lo..hi).map(|k| spec0[k] * spec1[k].conj()).sum();
        if acc.abs() == 0.0 {
            return None;
        }
        let angle = self.phase_to_angle(acc.arg());
        match angle {
            Some(_) => milback_telemetry::counter_add("ap.aoa.ok", 1),
            None => milback_telemetry::counter_add("ap.aoa.ambiguous", 1),
        }
        angle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_rf::geometry::deg_to_rad;

    #[test]
    fn phase_angle_round_trip() {
        let est = AoaEstimator::milback();
        for deg in [-60.0, -20.0, 0.0, 15.0, 45.0] {
            let theta = deg_to_rad(deg);
            let dphi = est.angle_to_phase(theta);
            let back = est.phase_to_angle(dphi).unwrap();
            assert!((back - theta).abs() < 1e-12, "{deg}°");
        }
    }

    #[test]
    fn half_lambda_spacing_covers_90_degrees() {
        let est = AoaEstimator::milback();
        // At θ = 90° the phase difference is exactly π — still in range.
        let dphi = est.angle_to_phase(deg_to_rad(90.0));
        assert!((dphi - std::f64::consts::PI).abs() < 1e-9);
        assert!(est.phase_to_angle(dphi).is_some());
    }

    #[test]
    fn out_of_range_phase_is_none() {
        let est = AoaEstimator::milback();
        assert!(est.phase_to_angle(3.5).is_none());
        assert!(est.phase_to_angle(-3.5).is_none());
    }

    #[test]
    fn estimate_from_bins() {
        let est = AoaEstimator::milback();
        let theta = deg_to_rad(12.0);
        let dphi = est.angle_to_phase(theta);
        let bin0 = Cpx::from_polar(1.0, 0.7 + dphi);
        let bin1 = Cpx::from_polar(1.0, 0.7);
        let got = est.estimate_windowed(&[bin0], &[bin1], 0, 0).unwrap();
        assert!((got - theta).abs() < 1e-12);
    }

    #[test]
    fn zero_bin_is_none() {
        let est = AoaEstimator::milback();
        assert!(est
            .estimate_windowed(&[Cpx::new(0.0, 0.0)], &[Cpx::new(1.0, 0.0)], 0, 0)
            .is_none());
    }

    #[test]
    fn windowed_estimate_averages_noise() {
        let est = AoaEstimator::milback();
        let theta = deg_to_rad(-8.0);
        let dphi = est.angle_to_phase(theta);
        // Peak bin corrupted; neighbors clean and stronger on aggregate.
        let mut s0 = vec![Cpx::new(0.0, 0.0); 16];
        let mut s1 = vec![Cpx::new(0.0, 0.0); 16];
        for k in 6..=10 {
            s0[k] = Cpx::from_polar(1.0, dphi);
            s1[k] = Cpx::from_polar(1.0, 0.0);
        }
        s0[8] = Cpx::from_polar(0.2, dphi + 1.0); // corrupted peak
        let got = est.estimate_windowed(&s0, &s1, 8, 2).unwrap();
        assert!((got - theta).abs() < deg_to_rad(2.0));
    }

    #[test]
    fn empty_window_is_none() {
        let est = AoaEstimator::milback();
        assert!(est.estimate_windowed(&[], &[], 0, 2).is_none());
    }
}
