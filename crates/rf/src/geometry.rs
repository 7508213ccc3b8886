//! 2-D geometry for the evaluation plane.
//!
//! The paper localizes nodes in a 2-D plane (distance + azimuth angle,
//! §9.2), so the scene model is planar. The AP sits at the origin facing
//! +x; angles are measured counter-clockwise from the +x axis in radians.

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Wavelength in meters at frequency `f` Hz.
#[inline]
pub fn wavelength(f: f64) -> f64 {
    SPEED_OF_LIGHT / f
}

/// Converts degrees to radians.
#[inline]
pub fn deg_to_rad(d: f64) -> f64 {
    d * std::f64::consts::PI / 180.0
}

/// Converts radians to degrees.
#[inline]
pub fn rad_to_deg(r: f64) -> f64 {
    r * 180.0 / std::f64::consts::PI
}

/// Wraps an angle to `(-π, π]`.
pub fn wrap_angle(a: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut x = a % two_pi;
    if x <= -std::f64::consts::PI {
        x += two_pi;
    } else if x > std::f64::consts::PI {
        x -= two_pi;
    }
    x
}

/// A point in the 2-D evaluation plane (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// x coordinate in meters.
    pub x: f64,
    /// y coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin.
    pub const fn origin() -> Self {
        Self { x: 0.0, y: 0.0 }
    }

    /// A point at distance `r` and azimuth `theta` (radians) from the
    /// origin.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            x: r * theta.cos(),
            y: r * theta.sin(),
        }
    }

    /// Euclidean distance to another point.
    pub fn distance_to(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Azimuth (radians) of the direction from `self` to `other`.
    pub fn bearing_to(&self, other: &Point) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }
}

/// Pose of a node: position plus the world-frame azimuth its FSA broadside
/// normal points toward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Position in the plane.
    pub position: Point,
    /// World-frame azimuth of the FSA broadside normal, radians.
    pub facing: f64,
}

impl Pose {
    /// Creates a pose.
    pub fn new(position: Point, facing: f64) -> Self {
        Self { position, facing }
    }

    /// Places a node at distance `r`, azimuth `phi` from the AP (origin),
    /// with FSA *orientation* `psi` relative to facing straight back at the
    /// AP. `psi = 0` means the node broadside points exactly at the AP.
    pub fn facing_ap(r: f64, phi: f64, psi: f64) -> Self {
        let position = Point::from_polar(r, phi);
        // Facing straight back at the AP means bearing position→origin.
        let to_ap = position.bearing_to(&Point::origin());
        Self {
            position,
            facing: wrap_angle(to_ap + psi),
        }
    }

    /// Incidence angle of a signal arriving from `source` onto the node's
    /// FSA, measured from the broadside normal (radians, signed).
    ///
    /// This is the paper's "orientation of the node with respect to the AP":
    /// the angle at which the FSA must form its beam to face the source.
    pub fn incidence_from(&self, source: &Point) -> f64 {
        let to_source = self.position.bearing_to(source);
        wrap_angle(to_source - self.facing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn wavelength_at_28ghz() {
        let l = wavelength(28e9);
        assert!((l - 0.010707).abs() < 1e-5, "{l}");
    }

    #[test]
    fn angle_conversions() {
        assert!((deg_to_rad(180.0) - PI).abs() < 1e-12);
        assert!((rad_to_deg(PI / 4.0) - 45.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_angle_range() {
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(0.1) - 0.1).abs() < 1e-15);
        assert!((wrap_angle(2.0 * PI)).abs() < 1e-12);
    }

    #[test]
    fn point_polar_round_trip() {
        let p = Point::from_polar(5.0, 0.3);
        assert!((p.distance_to(&Point::origin()) - 5.0).abs() < 1e-12);
        assert!((Point::origin().bearing_to(&p) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn distance_and_bearing() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert!((a.bearing_to(&b) - (4.0f64).atan2(3.0)).abs() < 1e-12);
        // Bearing is antisymmetric modulo π.
        assert!((wrap_angle(b.bearing_to(&a) - a.bearing_to(&b)) - PI).abs() < 1e-12);
    }

    #[test]
    fn pose_facing_ap_zero_orientation() {
        // Node straight ahead of the AP, facing back: incidence must be 0.
        let pose = Pose::facing_ap(2.0, 0.0, 0.0);
        assert!((pose.incidence_from(&Point::origin())).abs() < 1e-12);
        // Node off boresight but still facing the AP: incidence still 0.
        let pose = Pose::facing_ap(3.0, 0.4, 0.0);
        assert!((pose.incidence_from(&Point::origin())).abs() < 1e-12);
    }

    #[test]
    fn pose_orientation_equals_incidence() {
        for psi_deg in [-30.0, -10.0, 0.0, 15.0, 25.0] {
            let psi = deg_to_rad(psi_deg);
            let pose = Pose::facing_ap(4.0, 0.2, psi);
            // Rotating the node by ψ away from facing-the-AP makes the AP
            // appear at incidence −ψ in the node frame.
            let inc = pose.incidence_from(&Point::origin());
            assert!((inc + psi).abs() < 1e-12, "psi {psi_deg}: incidence {inc}");
        }
    }

    #[test]
    fn incidence_perpendicular() {
        let pose = Pose::new(Point::new(1.0, 0.0), FRAC_PI_2);
        // AP at origin is at bearing π from the node; facing is π/2 → π/2 off.
        let inc = pose.incidence_from(&Point::origin());
        assert!((inc - FRAC_PI_2).abs() < 1e-12);
    }
}
