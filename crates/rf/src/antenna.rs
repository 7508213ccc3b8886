//! Antenna gain models.
//!
//! The AP uses 20 dBi horn antennas (Mi-Wave 261, paper §8); the FSA's
//! radiating elements are microstrip patches. Gains are returned in linear
//! power units unless a function name says `_dbi`.

use crate::geometry::wrap_angle;

/// Converts dBi to linear gain.
#[inline]
pub fn dbi_to_linear(dbi: f64) -> f64 {
    10f64.powf(dbi / 10.0)
}

/// Converts linear gain to dBi.
#[inline]
pub fn linear_to_dbi(g: f64) -> f64 {
    10.0 * g.log10()
}

/// Directional antenna pattern evaluated over azimuth.
pub trait Antenna {
    /// Linear power gain at azimuth `theta` radians off boresight at RF
    /// frequency `f` Hz.
    fn gain(&self, theta: f64, f: f64) -> f64;

    /// Gain in dBi at `theta` / `f`.
    fn gain_dbi(&self, theta: f64, f: f64) -> f64 {
        linear_to_dbi(self.gain(theta, f))
    }
}

/// An isotropic radiator (0 dBi everywhere) — handy in tests and as a
/// clutter-scatterer receive pattern.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Isotropic;

impl Antenna for Isotropic {
    fn gain(&self, _theta: f64, _f: f64) -> f64 {
        1.0
    }
}

/// A parametric horn antenna: Gaussian main lobe with a constant side-lobe
/// floor.
///
/// The Gaussian beamwidth is tied to the peak gain through the standard
/// directivity approximation `G ≈ 4π / (Ω_az·Ω_el)`; for this planar model
/// we expose the azimuth half-power beamwidth directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Horn {
    /// Boresight gain in dBi.
    pub peak_dbi: f64,
    /// Azimuth half-power (−3 dB) beamwidth in radians.
    pub hpbw: f64,
    /// Side-lobe floor relative to peak, in dB (negative).
    pub sidelobe_db: f64,
}

impl Horn {
    /// The Mi-Wave 261-style 20 dBi horn used by MilBack's AP, with an
    /// ~18° half-power beamwidth and −25 dB side lobes.
    pub fn milback_ap() -> Self {
        Self {
            peak_dbi: 20.0,
            hpbw: 18f64.to_radians(),
            sidelobe_db: -25.0,
        }
    }
}

impl Antenna for Horn {
    fn gain(&self, theta: f64, _f: f64) -> f64 {
        let t = wrap_angle(theta);
        // Gaussian main lobe: −3 dB at ±hpbw/2.
        let main_db = -3.0 * (2.0 * t / self.hpbw).powi(2);
        let db = main_db.max(self.sidelobe_db);
        dbi_to_linear(self.peak_dbi + db)
    }
}

/// A microstrip patch element pattern: `cos^q(θ)` in power with a back-lobe
/// floor. Used as the element factor of the FSA array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchElement {
    /// Boresight element gain in dBi (typical patch: 5–7 dBi).
    pub peak_dbi: f64,
    /// Power rolloff exponent `q` in `cos^q θ`.
    pub q: f64,
    /// Front-to-back floor relative to peak, dB (negative).
    pub floor_db: f64,
}

impl Default for PatchElement {
    fn default() -> Self {
        Self {
            peak_dbi: 6.0,
            q: 2.0,
            floor_db: -20.0,
        }
    }
}

impl PatchElement {
    /// Linear power gain at azimuth `theta`. The patch pattern does not
    /// depend on frequency.
    pub fn pattern(&self, theta: f64) -> f64 {
        let t = wrap_angle(theta);
        let c = t.cos().max(0.0);
        let pattern = c.powf(self.q).max(dbi_to_linear(self.floor_db));
        dbi_to_linear(self.peak_dbi) * pattern
    }
}

impl Antenna for PatchElement {
    fn gain(&self, theta: f64, _f: f64) -> f64 {
        self.pattern(theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::deg_to_rad;

    #[test]
    fn db_conversions() {
        assert!((dbi_to_linear(20.0) - 100.0).abs() < 1e-9);
        assert!((linear_to_dbi(100.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn isotropic_is_flat() {
        let a = Isotropic;
        for t in [-3.0, -1.0, 0.0, 2.0] {
            assert_eq!(a.gain(t, 28e9), 1.0);
        }
    }

    #[test]
    fn horn_boresight_gain() {
        let h = Horn::milback_ap();
        assert!((h.gain_dbi(0.0, 28e9) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn horn_hpbw_is_minus_3db() {
        let h = Horn::milback_ap();
        let edge = h.gain_dbi(h.hpbw / 2.0, 28e9);
        assert!((edge - 17.0).abs() < 1e-9, "edge {edge}");
    }

    #[test]
    fn horn_sidelobe_floor() {
        let h = Horn::milback_ap();
        let far = h.gain_dbi(deg_to_rad(90.0), 28e9);
        assert!((far - (20.0 - 25.0)).abs() < 1e-9);
    }

    #[test]
    fn horn_symmetric() {
        let h = Horn::milback_ap();
        for t in [0.05, 0.1, 0.3] {
            assert!((h.gain(t, 28e9) - h.gain(-t, 28e9)).abs() < 1e-12);
        }
    }

    #[test]
    fn patch_boresight_and_rolloff() {
        let p = PatchElement::default();
        assert!((p.gain_dbi(0.0, 28e9) - 6.0).abs() < 1e-9);
        // cos²(60°) = 0.25 → −6 dB.
        let g = p.gain_dbi(deg_to_rad(60.0), 28e9);
        assert!((g - 0.0).abs() < 0.05, "{g}");
    }

    #[test]
    fn patch_back_hemisphere_clamped_to_floor() {
        let p = PatchElement::default();
        let g = p.gain_dbi(deg_to_rad(180.0), 28e9);
        assert!((g - (6.0 - 20.0)).abs() < 1e-9);
        let g = p.gain_dbi(deg_to_rad(120.0), 28e9);
        assert!((g - (6.0 - 20.0)).abs() < 1e-9);
    }
}
