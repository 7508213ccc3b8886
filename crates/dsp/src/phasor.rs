//! Phasor-recurrence evaluation of uniformly rotating carriers.
//!
//! Sample loops of the form `out[i] = amp · exp(j(φ₀ + i·Δφ))` appear in
//! every waveform generator (tones, OOK/ASK envelopes, OAQFM symbols) and
//! historically called [`Cpx::from_polar`] — two transcendental evaluations
//! — per sample. Because the phase advances by a *constant* `Δφ` each
//! sample, the whole sequence is a geometric series in the complex plane:
//!
//! ```text
//! z[0]   = amp·exp(jφ₀)
//! z[i+1] = z[i] · exp(jΔφ)        (one complex multiply per sample)
//! ```
//!
//! A bare recurrence drifts: each multiply commits a rounding error of a
//! few ULP in both magnitude and phase, and the errors compound linearly
//! with the run length. We bound the drift by re-anchoring with an exact
//! [`Cpx::from_polar`] every [`CHECKPOINT`] samples, so anchor samples
//! (`i % CHECKPOINT == 0`) are **bitwise identical** to the direct
//! evaluation and every sample in between carries at most `CHECKPOINT`
//! accumulated multiply roundings.
//!
//! ## Error bound
//!
//! One recurrence step costs a handful of ULP of relative error: √5·ε
//! from the complex multiply plus the rounding of `exp(jΔφ)` itself,
//! whose phase error also walks the result around the circle
//! (ε = f64 machine epsilon). Between anchors at most `CHECKPOINT − 1 = 63`
//! steps compound; the measured worst case across sweep configurations
//! is ≈ 1×10⁻¹³·amp (≈ 450ε, i.e. ~7ε per step), so every emitted
//! sample satisfies
//!
//! ```text
//! |z_rec[i] − z_exact[i]| < 4×10⁻¹³ · amp
//! ```
//!
//! with 4× margin. That figure is the bound documented in DESIGN.md §13
//! and pinned by the unit tests — far below the thermal-noise floors and
//! detection tolerances anywhere in the simulation. Callers that need
//! exact values at specific indices can rely on the anchor-sample
//! guarantee.

use crate::num::Cpx;

/// Samples between exact [`Cpx::from_polar`] re-anchors. Anchor samples
/// are bitwise equal to direct evaluation; see the module docs for the
/// inter-anchor error bound.
pub const CHECKPOINT: usize = 64;

/// Calls `f(i, amp·exp(j(φ₀ + i·Δφ)))` for `i ∈ [0, n)`, evaluating the
/// rotation by phasor recurrence with periodic exact re-anchoring.
///
/// Samples where `i % CHECKPOINT == 0` are computed as
/// `Cpx::from_polar(amp, phi0 + dphi * i as f64)` and therefore match a
/// direct per-sample loop bitwise; the rest obey the module-level error
/// bound (< 4×10⁻¹³ relative).
#[inline]
pub fn for_each_linear(amp: f64, phi0: f64, dphi: f64, n: usize, mut f: impl FnMut(usize, Cpx)) {
    let step = Cpx::cis(dphi);
    let mut z = Cpx::new(0.0, 0.0);
    for i in 0..n {
        if i % CHECKPOINT == 0 {
            // Exact re-anchor: identical expression to the direct loop.
            z = Cpx::from_polar(amp, phi0 + dphi * i as f64);
        }
        f(i, z);
        z *= step;
    }
}

/// Writes `out[i] = amp·exp(j(φ₀ + i·Δφ))` via the recurrence.
pub fn fill_linear(amp: f64, phi0: f64, dphi: f64, out: &mut [Cpx]) {
    let n = out.len();
    for_each_linear(amp, phi0, dphi, n, |i, z| out[i] = z);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (transcendental-per-sample) reference.
    fn direct(amp: f64, phi0: f64, dphi: f64, n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| Cpx::from_polar(amp, phi0 + dphi * i as f64))
            .collect()
    }

    #[test]
    fn anchors_are_bitwise_exact() {
        let (amp, phi0, dphi, n) = (0.7, 1.3, 0.0173, 1000);
        let reference = direct(amp, phi0, dphi, n);
        let mut out = vec![Cpx::new(0.0, 0.0); n];
        fill_linear(amp, phi0, dphi, &mut out);
        for i in (0..n).step_by(CHECKPOINT) {
            assert_eq!(out[i].re.to_bits(), reference[i].re.to_bits(), "i={i}");
            assert_eq!(out[i].im.to_bits(), reference[i].im.to_bits(), "i={i}");
        }
    }

    #[test]
    fn recurrence_stays_within_documented_bound() {
        let (amp, phi0, dphi, n) = (2.5, -0.4, 0.31, 4096);
        let reference = direct(amp, phi0, dphi, n);
        let mut out = vec![Cpx::new(0.0, 0.0); n];
        fill_linear(amp, phi0, dphi, &mut out);
        let bound = 4e-13 * amp;
        for (i, (got, want)) in out.iter().zip(&reference).enumerate() {
            let err = (*got - *want).abs();
            assert!(err <= bound, "i={i}: err={err:.3e} > bound={bound:.3e}");
        }
    }

    #[test]
    fn zero_length_is_a_noop() {
        fill_linear(1.0, 0.0, 0.1, &mut []);
    }
}
