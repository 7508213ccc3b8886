//! Dual-port Frequency Scanning Antenna (FSA) model.
//!
//! The FSA is MilBack's key passive structure (paper §2, §4): a series-fed
//! array of radiating elements connected by feed-line sections. The signal
//! accumulates a frequency-dependent phase `β(f)·L` between consecutive
//! elements, so the direction of constructive combination — the beam —
//! scans with frequency. Feeding the same physical array from the opposite
//! end (port B) reverses the phase progression and produces the mirrored
//! frequency→angle map of the paper's Figure 3.
//!
//! The model is a textbook leaky/series-fed array-factor computation:
//!
//! * element `n` sits at `x_n = n·d` and is excited with amplitude
//!   `a_n = exp(−α·n)` (ohmic/leakage decay along the feed) and phase
//!   `−n·β(f)·L` (port A) or the reversed progression (port B);
//! * the far-field array factor at azimuth `θ` is
//!   `AF(θ,f) = Σ a_n·exp(jn(k·d·sinθ − β·L))`;
//! * gain is the patch element factor times `|AF|²/Σa_n²`, scaled by an
//!   efficiency factor that stands in for feed and substrate losses.
//!
//! The main beam of port A satisfies `k·d·sinθ = β·L − 2πm` for the
//! radiating space harmonic `m`, giving the closed-form scan law
//! `sinθ_A(f) = (L_e − m·c/f)/d` with `L_e` the electrical feed length per
//! element. [`FsaConfig::milback`] solves `d` and `L_e` so the paper's
//! 26.5–29.5 GHz band scans −30°…+30° (the 60°-for-3 GHz claim of §2).

use crate::antenna::{dbi_to_linear, linear_to_dbi, PatchElement};
use crate::geometry::SPEED_OF_LIGHT;
use milback_dsp::num::Cpx;
use std::f64::consts::PI;

/// Which FSA feed port. Port B is the mirror-fed port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Primary feed port.
    A,
    /// Opposite-end feed port — mirrored frequency→angle map.
    B,
}

impl Port {
    /// Both ports, in `[A, B]` order.
    pub const BOTH: [Port; 2] = [Port::A, Port::B];
}

/// Physical design of a dual-port FSA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsaConfig {
    /// Number of radiating elements.
    pub n_elements: usize,
    /// Element spacing along the array, meters.
    pub spacing: f64,
    /// Electrical feed-line length between consecutive elements, meters
    /// (physical length × √ε_eff).
    pub feed_length: f64,
    /// Radiating space harmonic index.
    pub harmonic: i32,
    /// Amplitude decay per element along the feed, nepers.
    pub feed_loss_neper: f64,
    /// Overall efficiency (feed + substrate losses), dB (≤ 0).
    pub efficiency_db: f64,
    /// Radiating element pattern.
    pub element: PatchElement,
    /// Design band lower edge, Hz.
    pub f_lo: f64,
    /// Design band upper edge, Hz.
    pub f_hi: f64,
}

impl FsaConfig {
    /// Designs an FSA that scans `θ_lo..θ_hi` (radians) over `f_lo..f_hi`.
    ///
    /// Solves the scan law at both band edges for the spacing `d` and
    /// electrical length `L_e` given the harmonic `m`:
    ///
    /// `d = m·c·(1/f_lo − 1/f_hi) / (sinθ_hi − sinθ_lo)`
    /// `L_e = d·sinθ_lo + m·c/f_lo`
    pub fn design(
        f_lo: f64,
        f_hi: f64,
        theta_lo: f64,
        theta_hi: f64,
        harmonic: i32,
        n_elements: usize,
    ) -> Self {
        assert!(f_hi > f_lo && f_lo > 0.0, "invalid design band");
        assert!(theta_hi > theta_lo, "invalid scan range");
        assert!(harmonic >= 1, "harmonic must be >= 1");
        let m = harmonic as f64;
        let c = SPEED_OF_LIGHT;
        let d = m * c * (1.0 / f_lo - 1.0 / f_hi) / (theta_hi.sin() - theta_lo.sin());
        let l_e = d * theta_lo.sin() + m * c / f_lo;
        Self {
            n_elements,
            spacing: d,
            feed_length: l_e,
            harmonic,
            feed_loss_neper: 0.1,
            efficiency_db: -4.0,
            element: PatchElement::default(),
            f_lo,
            f_hi,
        }
    }

    /// MilBack's FSA: 26.5–29.5 GHz sweeping −30°…+30°, 12 elements,
    /// 5th space harmonic (paper §9.1 / Figure 10).
    pub fn milback() -> Self {
        Self::design(
            26.5e9,
            29.5e9,
            (-30f64).to_radians(),
            30f64.to_radians(),
            5,
            12,
        )
    }
}

/// Element count up to which [`DualPortFsa::gain_curve_into`] keeps the
/// element taper in a stack table (the prototype has 12 elements).
const TAPER_ON_STACK: usize = 64;

/// The frequency-independent factors of one angle's gain curve.
struct AngleTerms {
    sin_theta: f64,
    /// `η·Ge(θ)`: efficiency times the element pattern.
    scale: f64,
    /// `Σa_n²`, the taper's power normalization.
    sum_sq: f64,
}

/// A dual-port FSA instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualPortFsa {
    cfg: FsaConfig,
}

impl DualPortFsa {
    /// Builds an FSA from a configuration.
    pub fn new(cfg: FsaConfig) -> Self {
        assert!(cfg.n_elements >= 2, "FSA needs at least 2 elements");
        assert!(
            cfg.spacing > 0.0 && cfg.feed_length > 0.0,
            "bad FSA geometry"
        );
        Self { cfg }
    }

    /// The MilBack design.
    pub fn milback() -> Self {
        Self::new(FsaConfig::milback())
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FsaConfig {
        &self.cfg
    }

    /// `sin` of the main-beam angle of `port` at frequency `f`, from the
    /// scan law. May fall outside `[-1, 1]` out of band.
    fn beam_sin(&self, port: Port, f: f64) -> f64 {
        let m = self.cfg.harmonic as f64;
        let s = (self.cfg.feed_length - m * SPEED_OF_LIGHT / f) / self.cfg.spacing;
        match port {
            Port::A => s,
            Port::B => -s,
        }
    }

    /// Main-beam azimuth (radians) of `port` at frequency `f`, or `None`
    /// when the beam is not in visible space.
    pub fn beam_angle(&self, port: Port, f: f64) -> Option<f64> {
        let s = self.beam_sin(port, f);
        if s.abs() <= 1.0 {
            Some(s.asin())
        } else {
            None
        }
    }

    /// Inverse scan law: the frequency whose `port` beam points at azimuth
    /// `theta`. Returns `None` when no positive frequency satisfies the
    /// law.
    ///
    /// This is the frequency the AP must transmit so that the node's `port`
    /// beam faces it — the OAQFM carrier-selection primitive (paper §6.1).
    pub fn frequency_for_angle(&self, port: Port, theta: f64) -> Option<f64> {
        let m = self.cfg.harmonic as f64;
        let s = match port {
            Port::A => theta.sin(),
            Port::B => -theta.sin(),
        };
        let denom = self.cfg.feed_length - self.cfg.spacing * s;
        if denom <= 0.0 {
            return None;
        }
        Some(m * SPEED_OF_LIGHT / denom)
    }

    /// Amplitude taper `a_n = exp(−α·n)` of element `n`.
    #[inline]
    fn taper(&self, n: usize) -> f64 {
        (-self.cfg.feed_loss_neper * n as f64).exp()
    }

    /// The frequency-independent factors of `gain(port, θ, ·)`: `sin θ`,
    /// `η·Ge(θ)` and `Σa_n²`.
    fn angle_terms(&self, theta: f64) -> AngleTerms {
        let sum_sq: f64 = (0..self.cfg.n_elements)
            .map(|n| (-2.0 * self.cfg.feed_loss_neper * n as f64).exp())
            .sum();
        let eff = dbi_to_linear(self.cfg.efficiency_db);
        AngleTerms {
            sin_theta: theta.sin(),
            scale: eff * self.cfg.element.pattern(theta),
            sum_sq,
        }
    }

    /// Gain of `port` at frequency `f` given the angle's [`AngleTerms`]
    /// and the element taper: `η·Ge·|AF|²/Σa²` with the complex array
    /// factor `AF = Σ a_n·exp(jnψ)`. The one array-factor expression
    /// behind both [`Self::gain`] and [`Self::gain_curve_into`].
    #[inline]
    fn gain_at(&self, port: Port, t: &AngleTerms, f: f64, taper: impl Fn(usize) -> f64) -> f64 {
        let k = 2.0 * PI * f / SPEED_OF_LIGHT;
        let beta_l = 2.0 * PI * f * self.cfg.feed_length / SPEED_OF_LIGHT;
        let psi = match port {
            Port::A => k * self.cfg.spacing * t.sin_theta - beta_l,
            Port::B => k * self.cfg.spacing * t.sin_theta + beta_l,
        };
        let mut af = Cpx::new(0.0, 0.0);
        for n in 0..self.cfg.n_elements {
            af += Cpx::from_polar(taper(n), psi * n as f64);
        }
        t.scale * af.norm_sq() / t.sum_sq
    }

    /// Linear power gain of `port` at azimuth `theta`, frequency `f`.
    ///
    /// `G = η · Ge(θ) · |AF(θ,f)|² / Σa_n²` — the taper-aware array gain
    /// referenced so that the peak is `η·Ge·(Σa)²/Σa²`.
    pub fn gain(&self, port: Port, theta: f64, f: f64) -> f64 {
        self.gain_at(port, &self.angle_terms(theta), f, |n| self.taper(n))
    }

    /// The gain curve of `port` at azimuth `theta` over a frequency grid:
    /// writes `gain(port, theta, f_lo + i·step)` into `out[i]`, bit for
    /// bit, for every `i`.
    ///
    /// The angle terms and the element taper do not depend on frequency,
    /// so they are evaluated once per curve instead of once per point;
    /// each point then costs only the array-factor sum. The taper is
    /// tabulated on the stack, so a curve never allocates; an array of
    /// more than 64 elements evaluates it per point.
    pub fn gain_curve_into(&self, port: Port, theta: f64, f_lo: f64, step: f64, out: &mut [f64]) {
        let terms = self.angle_terms(theta);
        let n_elements = self.cfg.n_elements;
        let tabulated = n_elements <= TAPER_ON_STACK;
        let mut table = [0.0; TAPER_ON_STACK];
        if tabulated {
            for (n, a) in table[..n_elements].iter_mut().enumerate() {
                *a = self.taper(n);
            }
        }
        let taper = |n| if tabulated { table[n] } else { self.taper(n) };
        for (i, g) in out.iter_mut().enumerate() {
            *g = self.gain_at(port, &terms, f_lo + i as f64 * step, taper);
        }
    }

    /// Gain of `port` in dBi.
    pub fn gain_dbi(&self, port: Port, theta: f64, f: f64) -> f64 {
        linear_to_dbi(self.gain(port, theta, f))
    }

    /// Peak gain of `port` at frequency `f` (gain at the main-beam angle),
    /// in dBi. Returns the gain floor when the beam is invisible.
    pub fn peak_gain_dbi(&self, port: Port, f: f64) -> f64 {
        match self.beam_angle(port, f) {
            Some(t) => self.gain_dbi(port, t, f),
            None => f64::NEG_INFINITY,
        }
    }

    /// Approximate half-power beamwidth (radians) at frequency `f` from the
    /// classic aperture formula `0.886·λ/(N·d·cosθ_b)`.
    pub fn beamwidth(&self, port: Port, f: f64) -> Option<f64> {
        let theta_b = self.beam_angle(port, f)?;
        let lambda = SPEED_OF_LIGHT / f;
        let aperture = self.cfg.n_elements as f64 * self.cfg.spacing;
        Some(0.886 * lambda / (aperture * theta_b.cos()))
    }

    /// The degenerate "normal incidence" frequency where port A and port B
    /// beams coincide at θ = 0 (`f = m·c/L_e`). At this node orientation
    /// OAQFM collapses to single-tone OOK (paper §6.2).
    pub fn normal_frequency(&self) -> f64 {
        self.cfg.harmonic as f64 * SPEED_OF_LIGHT / self.cfg.feed_length
    }

    /// Total scan range (radians) covered as the frequency sweeps the
    /// design band, per port.
    pub fn scan_range(&self, port: Port) -> Option<(f64, f64)> {
        let a = self.beam_angle(port, self.cfg.f_lo)?;
        let b = self.beam_angle(port, self.cfg.f_hi)?;
        Some((a.min(b), a.max(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{deg_to_rad, rad_to_deg};

    fn fsa() -> DualPortFsa {
        DualPortFsa::milback()
    }

    #[test]
    fn design_hits_band_edges() {
        let f = fsa();
        let lo = f.beam_angle(Port::A, 26.5e9).unwrap();
        let hi = f.beam_angle(Port::A, 29.5e9).unwrap();
        assert!(
            (rad_to_deg(lo) + 30.0).abs() < 1e-9,
            "lo {}",
            rad_to_deg(lo)
        );
        assert!(
            (rad_to_deg(hi) - 30.0).abs() < 1e-9,
            "hi {}",
            rad_to_deg(hi)
        );
    }

    #[test]
    fn sixty_degree_coverage_with_3ghz() {
        let f = fsa();
        let (lo, hi) = f.scan_range(Port::A).unwrap();
        assert!(
            rad_to_deg(hi - lo) >= 59.9,
            "coverage {}",
            rad_to_deg(hi - lo)
        );
        assert!((f.config().f_hi - f.config().f_lo - 3e9).abs() < 1.0);
    }

    #[test]
    fn port_b_is_mirror_of_port_a() {
        let f = fsa();
        for ghz in [26.5, 27.0, 28.0, 29.0, 29.5] {
            let fa = f.beam_angle(Port::A, ghz * 1e9).unwrap();
            let fb = f.beam_angle(Port::B, ghz * 1e9).unwrap();
            assert!((fa + fb).abs() < 1e-12, "not mirrored at {ghz} GHz");
        }
    }

    #[test]
    fn scan_is_monotone_in_frequency() {
        let f = fsa();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=30 {
            let freq = 26.5e9 + i as f64 * 0.1e9;
            let t = f.beam_angle(Port::A, freq).unwrap();
            assert!(t > prev, "non-monotone at {freq}");
            prev = t;
        }
    }

    #[test]
    fn peak_gain_exceeds_10dbi_across_band() {
        // Paper §9.1: "more than 10 dB gain" across the FMCW band.
        let f = fsa();
        for i in 0..=30 {
            let freq = 26.5e9 + i as f64 * 0.1e9;
            for port in Port::BOTH {
                let g = f.peak_gain_dbi(port, freq);
                assert!(g > 10.0, "gain {g} dBi at {freq} Hz {port:?}");
                assert!(g < 15.0, "gain {g} dBi unrealistically high");
            }
        }
    }

    #[test]
    fn gain_drops_off_beam() {
        let f = fsa();
        let freq = 28e9;
        let beam = f.beam_angle(Port::A, freq).unwrap();
        let peak = f.gain_dbi(Port::A, beam, freq);
        let off = f.gain_dbi(Port::A, beam + deg_to_rad(15.0), freq);
        assert!(peak - off > 8.0, "peak {peak}, off {off}");
    }

    #[test]
    fn beamwidth_near_10_degrees() {
        // Paper §9.3: "the beam width of the node is around 10 degree".
        let f = fsa();
        let bw = rad_to_deg(f.beamwidth(Port::A, 28e9).unwrap());
        assert!((5.0..15.0).contains(&bw), "beamwidth {bw}°");
    }

    #[test]
    fn beamwidth_matches_pattern_minus_3db() {
        let f = fsa();
        let freq = 28e9;
        let beam = f.beam_angle(Port::A, freq).unwrap();
        let peak = f.gain_dbi(Port::A, beam, freq);
        let half_bw = f.beamwidth(Port::A, freq).unwrap() / 2.0;
        let edge = f.gain_dbi(Port::A, beam + half_bw, freq);
        assert!((peak - edge - 3.0).abs() < 1.5, "peak {peak} edge {edge}");
    }

    #[test]
    fn frequency_for_angle_inverts_beam_angle() {
        let f = fsa();
        for port in Port::BOTH {
            for deg in [-25.0, -10.0, 0.0, 5.0, 28.0] {
                let theta = deg_to_rad(deg);
                let freq = f.frequency_for_angle(port, theta).unwrap();
                let back = f.beam_angle(port, freq).unwrap();
                assert!(
                    (back - theta).abs() < 1e-9,
                    "{port:?} {deg}°: freq {freq} → {}",
                    rad_to_deg(back)
                );
            }
        }
    }

    #[test]
    fn tone_pair_for_orientation_is_distinct_off_normal() {
        let f = fsa();
        let theta = deg_to_rad(10.0);
        let fa = f.frequency_for_angle(Port::A, theta).unwrap();
        let fb = f.frequency_for_angle(Port::B, theta).unwrap();
        assert!((fa - fb).abs() > 100e6, "tones too close: {fa} {fb}");
    }

    #[test]
    fn normal_incidence_tones_coincide() {
        // Paper §6.2: at zero incidence f_A == f_B → OOK fallback.
        let f = fsa();
        let fa = f.frequency_for_angle(Port::A, 0.0).unwrap();
        let fb = f.frequency_for_angle(Port::B, 0.0).unwrap();
        assert!((fa - fb).abs() < 1.0);
        assert!((fa - f.normal_frequency()).abs() < 1.0);
        // And it sits inside the band.
        assert!(fa > 26.5e9 && fa < 29.5e9, "normal freq {fa}");
    }

    #[test]
    fn out_of_visible_space_beam_is_none() {
        let f = fsa();
        // Far below the band the required sinθ exceeds 1.
        assert!(f.beam_angle(Port::A, 20e9).is_none());
    }

    #[test]
    fn gain_bits_are_pinned() {
        // Literal bits of the per-point gain on and off beam, in and out
        // of band, out to grazing incidence. Any change to the array
        // factor's arithmetic moves at least one of these.
        let f = fsa();
        let pins: [(Port, f64, f64, u64); 8] = [
            (Port::A, 0.0, 28e9, 0x402f_190b_685b_60ce),
            (Port::B, 0.0, 28e9, 0x402f_190b_685b_60ce),
            (
                Port::A,
                -0.523_598_775_598_298_8,
                26.5e9,
                0x4029_8e67_2a8e_9793,
            ),
            (
                Port::B,
                0.209_439_510_239_319_56,
                27.3e9,
                0x4030_454f_6bb4_0554,
            ),
            (Port::A, 0.2, 29.5e9, 0x3fc4_f7d2_35db_1989),
            (
                Port::B,
                -1.308_996_938_995_747_2,
                28.9e9,
                0x3f83_ae40_aa5f_7bb9,
            ),
            (
                Port::A,
                1.553_343_034_274_953_2,
                27.0e9,
                0x3f51_b7f0_4c51_a7bb,
            ),
            (
                Port::B,
                -std::f64::consts::FRAC_PI_2,
                26.5e9,
                0x3f57_045d_0c88_177a,
            ),
        ];
        for (port, theta, freq, bits) in pins {
            let g = f.gain(port, theta, freq);
            assert_eq!(
                g.to_bits(),
                bits,
                "{port:?} θ={theta} f={freq}: got {g:e} (0x{:016x})",
                g.to_bits()
            );
        }
    }

    #[test]
    fn config_geometry_is_physical() {
        let cfg = FsaConfig::milback();
        // Spacing should be around half a wavelength at 28 GHz (10.7 mm).
        assert!(
            cfg.spacing > 3e-3 && cfg.spacing < 9e-3,
            "spacing {}",
            cfg.spacing
        );
        // Electrical length a few cm.
        assert!(cfg.feed_length > 0.02 && cfg.feed_length < 0.10);
    }
}
