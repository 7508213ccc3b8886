//! Complex arithmetic for baseband signal processing.
//!
//! The whole workspace represents RF signals as complex baseband samples, so
//! a small, fast, `Copy` complex type is the most heavily used data type in
//! the project. We implement it ourselves instead of pulling `num-complex`
//! to keep the dependency set to the approved list.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// `Cpx` is the sample type of every baseband waveform in MilBack. The
/// real/imaginary parts correspond to the I/Q components of the signal.
///
/// `repr(C)` guarantees the `[re, im]` memory order the SIMD butterfly
/// kernels ([`crate::simd`]) rely on when reinterpreting `&[Cpx]` as
/// packed scalar pairs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Cpx {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

/// The imaginary unit.
pub const J: Cpx = Cpx { re: 0.0, im: 1.0 };

/// Complex zero.
pub const ZERO: Cpx = Cpx { re: 0.0, im: 0.0 };

impl Cpx {
    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar form: `mag * exp(j * phase)`.
    #[inline]
    pub fn from_polar(mag: f64, phase: f64) -> Self {
        Self {
            re: mag * phase.cos(),
            im: mag * phase.sin(),
        }
    }

    /// `exp(j * phase)` — a unit phasor. The workhorse of mixers, channel
    /// phase rotations and chirp synthesis.
    #[inline]
    pub fn cis(phase: f64) -> Self {
        Self {
            re: phase.cos(),
            im: phase.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude: `re² + im²`. Proportional to instantaneous power.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^self`.
    #[inline]
    pub fn exp(self) -> Self {
        let m = self.re.exp();
        Self {
            re: m * self.im.cos(),
            im: m * self.im.sin(),
        }
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Reciprocal `1/self`. Returns a non-finite result when `self` is zero,
    /// matching IEEE float division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sq();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let m = self.abs().sqrt();
        let p = self.arg() / 2.0;
        Self::from_polar(m, p)
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Cpx {
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for Cpx {
    type Output = Cpx;
    #[inline]
    fn add(self, rhs: Cpx) -> Cpx {
        Cpx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Cpx {
    type Output = Cpx;
    #[inline]
    fn sub(self, rhs: Cpx) -> Cpx {
        Cpx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Cpx {
    type Output = Cpx;
    #[inline]
    fn mul(self, rhs: Cpx) -> Cpx {
        Cpx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Cpx {
    type Output = Cpx;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w == z·w⁻¹ is the definition
    fn div(self, rhs: Cpx) -> Cpx {
        self * rhs.recip()
    }
}

impl Mul<f64> for Cpx {
    type Output = Cpx;
    #[inline]
    fn mul(self, k: f64) -> Cpx {
        self.scale(k)
    }
}

impl Mul<Cpx> for f64 {
    type Output = Cpx;
    #[inline]
    fn mul(self, c: Cpx) -> Cpx {
        c.scale(self)
    }
}

impl Div<f64> for Cpx {
    type Output = Cpx;
    #[inline]
    fn div(self, k: f64) -> Cpx {
        self.scale(1.0 / k)
    }
}

impl Neg for Cpx {
    type Output = Cpx;
    #[inline]
    fn neg(self) -> Cpx {
        Cpx::new(-self.re, -self.im)
    }
}

impl AddAssign for Cpx {
    #[inline]
    fn add_assign(&mut self, rhs: Cpx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Cpx {
    #[inline]
    fn sub_assign(&mut self, rhs: Cpx) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Cpx {
    #[inline]
    fn mul_assign(&mut self, rhs: Cpx) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Cpx {
    #[inline]
    fn mul_assign(&mut self, k: f64) {
        self.re *= k;
        self.im *= k;
    }
}

impl DivAssign<f64> for Cpx {
    #[inline]
    fn div_assign(&mut self, k: f64) {
        self.re /= k;
        self.im /= k;
    }
}

impl Sum for Cpx {
    fn sum<I: Iterator<Item = Cpx>>(iter: I) -> Cpx {
        iter.fold(ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const ONE: Cpx = Cpx::new(1.0, 0.0);

    fn close(a: Cpx, b: Cpx) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_accessors() {
        let c = Cpx::new(3.0, -4.0);
        assert_eq!(c.re, 3.0);
        assert_eq!(c.im, -4.0);
        assert_eq!(c.abs(), 5.0);
        assert_eq!(c.norm_sq(), 25.0);
    }

    #[test]
    fn polar_round_trip() {
        let c = Cpx::from_polar(2.0, 0.7);
        assert!((c.abs() - 2.0).abs() < 1e-12);
        assert!((c.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let p = k as f64 * PI / 8.0;
            let c = Cpx::cis(p);
            assert!((c.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = Cpx::new(1.5, -2.0);
        let b = Cpx::new(-0.25, 3.0);
        assert!(close(a + b - b, a));
        assert!(close(a * b / b, a));
        assert!(close(a * ONE, a));
        assert!(close(a + ZERO, a));
        assert!(close(-a + a, ZERO));
    }

    #[test]
    fn conjugate_properties() {
        let a = Cpx::new(1.0, 2.0);
        assert!(close(a.conj().conj(), a));
        let p = a * a.conj();
        assert!((p.re - a.norm_sq()).abs() < 1e-12);
        assert!(p.im.abs() < 1e-12);
    }

    #[test]
    fn j_squared_is_minus_one() {
        assert!(close(J * J, -ONE));
    }

    #[test]
    fn exp_of_j_pi_is_minus_one() {
        let e = (J * PI).exp();
        assert!(close(e, -ONE));
    }

    #[test]
    fn sqrt_squares_back() {
        let a = Cpx::new(-3.0, 4.0);
        let r = a.sqrt();
        assert!(close(r * r, a));
    }

    #[test]
    fn scalar_ops() {
        let a = Cpx::new(2.0, -6.0);
        assert!(close(a * 0.5, Cpx::new(1.0, -3.0)));
        assert!(close(0.5 * a, Cpx::new(1.0, -3.0)));
        assert!(close(a / 2.0, Cpx::new(1.0, -3.0)));
    }

    #[test]
    fn sum_over_iterator() {
        let v = [Cpx::new(1.0, 1.0), Cpx::new(2.0, -1.0), Cpx::new(-3.0, 0.5)];
        let s: Cpx = v.iter().copied().sum();
        assert!(close(s, Cpx::new(0.0, 0.5)));
    }

    #[test]
    fn assign_ops() {
        let mut a = Cpx::new(1.0, 1.0);
        a += Cpx::new(1.0, -1.0);
        assert!(close(a, Cpx::new(2.0, 0.0)));
        a -= Cpx::new(1.0, 0.0);
        assert!(close(a, ONE));
        a *= Cpx::new(0.0, 2.0);
        assert!(close(a, Cpx::new(0.0, 2.0)));
        a *= 2.0;
        assert!(close(a, Cpx::new(0.0, 4.0)));
        a /= 4.0;
        assert!(close(a, J));
    }

    #[test]
    fn recip_of_zero_is_non_finite() {
        assert!(!ZERO.recip().is_finite());
    }
}
