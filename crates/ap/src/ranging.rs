//! The AP's localization pipeline (paper §5.1, §9.2): five-chirp capture →
//! dechirp → range FFT → background subtraction → node peak → range +
//! angle.

use crate::aoa::AoaEstimator;
use crate::background::{detection_spectrum_into, pairwise_diff_spectra_into};
use crate::dechirp::RangeProcessor;
use crate::workspace::{AntennaBuffers, DspWorkspace};
use milback_dsp::buffer;
use milback_dsp::detect::{argmax, parabolic_refine};
use milback_dsp::num::Cpx;
use milback_dsp::par;
use milback_dsp::signal::Signal;

/// A localization fix produced by the AP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizationResult {
    /// Estimated one-way range to the node, meters.
    pub range: f64,
    /// Estimated azimuth of the node, radians. `None` when the AoA phase
    /// fell outside the unambiguous range.
    pub angle: Option<f64>,
    /// Detection power at the node's range bin (arbitrary units).
    pub peak_power: f64,
}

/// The AP's range+angle estimator.
#[derive(Debug, Clone, Copy)]
pub struct Localizer {
    /// Range processing (dechirp + FFT) parameters.
    pub proc: RangeProcessor,
    /// AoA estimation parameters.
    pub aoa: AoaEstimator,
    /// Minimum search range, meters — excludes the self-interference /
    /// DC region of the range profile.
    pub min_range: f64,
    /// Maximum search range, meters.
    pub max_range: f64,
    /// Sub-bin (parabolic) peak refinement. `true` is the library
    /// default; `false` reproduces the paper's bin-resolution pipeline
    /// (range quantized to `c/2B` steps), which is what Figure 12a's
    /// error magnitudes correspond to.
    pub sub_bin: bool,
    /// Calibrated range of the AP's TX→RX leakage peak, meters, or
    /// `None` (the default) when the AP has no leakage reference. With
    /// a reference, a burst whose leakage peak lies more than
    /// [`TIMING_TOLERANCE_M`] from it is mistimed and yields no
    /// detection ([`Localizer::detect_with`]).
    pub leakage_range: Option<f64>,
}

/// How far, meters, a burst's leakage peak may sit from its calibrated
/// range before the burst counts as mistimed: a timing error moves the
/// node's peak by as much, so this bounds the error timing alone can
/// add to a fix. The Figure 12a band.
pub const TIMING_TOLERANCE_M: f64 = 0.25;

/// How far, as a power ratio, the leakage peak must rise above the
/// raw profile's noise floor (30 dB): below `min_range` a profile that
/// holds only noise has no leakage peak whose position could be read.
const LEAKAGE_PROMINENCE: f64 = 1e3;

/// Where the node sits in a burst's detection spectrum: its range bin,
/// and the consecutive-chirp difference with the most energy there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDetection {
    /// The node's range-profile bin.
    pub bin: usize,
    /// Index of the difference pair with the most energy in the bins
    /// `[bin−2, bin+2]` (the first such pair on a tie).
    pub pair: usize,
}

impl Localizer {
    /// Builds a localizer for the given chirp, searching 0.5–15 m.
    pub fn new(proc: RangeProcessor) -> Self {
        Self {
            proc,
            aoa: AoaEstimator::milback(),
            min_range: 0.5,
            max_range: 15.0,
            sub_bin: true,
            leakage_range: None,
        }
    }

    /// Bin index corresponding to a range (truncating).
    fn range_to_bin(&self, range: f64, fs: f64) -> usize {
        let tau = 2.0 * range / milback_rf::geometry::SPEED_OF_LIGHT;
        let beat = tau * self.proc.chirp.slope();
        (beat * self.proc.fft_len as f64 / fs) as usize
    }

    /// Half-width, in range bins, of the gate AP orientation sensing
    /// puts around the node's bin (`ApOrientationEstimator::estimate_gated`):
    /// the beam bump's spectral spread is a few tens of bins at these
    /// chirp lengths.
    pub fn gate_half_width(&self) -> usize {
        (self.proc.fft_len / 100).max(16)
    }

    /// Number of leading range-profile bins a burst keeps, `B`: the
    /// search window ends below bin `range_to_bin(max_range)`, and the
    /// widest read around a bin found there is the orientation gate's
    /// [`Localizer::gate_half_width`] (the ±1 refinement and ±2 AoA
    /// windows lie inside it). Capped at `fft_len`.
    pub fn profile_bins(&self, fs: f64) -> usize {
        let last_searched = self.range_to_bin(self.max_range, fs);
        (last_searched + self.gate_half_width()).min(self.proc.fft_len)
    }

    /// Shared body of the workspace paths: per antenna, each live chirp
    /// (all of them when `alive` is `None`) is dechirped and
    /// range-transformed into the antenna's banded profile pool, one FFT
    /// per chirp, then background-subtracted.
    ///
    /// With a `claim`, antenna 0's chain runs on the caller and antenna
    /// 1's on the `par` helper (DESIGN.md §17.4); without one, antenna 0
    /// then antenna 1. The chains share nothing mutable and draw no
    /// random numbers, so both orders give the same bits. Both borrow
    /// one set of FFT plan and window tables looked up here.
    fn diffs_of(
        &self,
        claim: Option<par::Claim>,
        ws: &mut DspWorkspace,
        tx_ref: &Signal,
        captures: &[[Signal; 2]],
        alive: Option<&[bool]>,
    ) {
        let live = |i: usize| match alive {
            Some(mask) => mask[i],
            None => true,
        };
        match alive {
            Some(mask) => {
                assert_eq!(mask.len(), captures.len(), "mask length mismatch");
                let n_alive = mask.iter().filter(|&&a| a).count();
                assert!(n_alive >= 2, "need at least two live chirps");
            }
            None => assert!(captures.len() >= 2, "need at least two chirps"),
        }
        let n = (0..captures.len()).filter(|&i| live(i)).count();
        let bins = self.profile_bins(tx_ref.fs);
        let [ant0, ant1] = &mut ws.antennas;
        self.proc.with_tables(tx_ref.len(), |tables| {
            let chain = |ant: usize, bufs: &mut AntennaBuffers| {
                DspWorkspace::ensure_pool(&mut bufs.profiles, n);
                let chirps = captures.iter().enumerate().filter(|&(i, _)| live(i));
                for ((_, pair), prof) in chirps.zip(bufs.profiles.iter_mut()) {
                    self.proc
                        .dechirp_into(&pair[ant], tx_ref, &mut bufs.dechirp);
                    self.proc
                        .profile_with(tables, &bufs.dechirp, bins, &mut bufs.fft, prof);
                }
                pairwise_diff_spectra_into(&bufs.profiles, &mut bufs.diffs);
            };
            match claim {
                Some(claim) => {
                    claim.join(|| chain(0, ant0), || chain(1, ant1));
                }
                None => {
                    chain(0, ant0);
                    chain(1, ant1);
                }
            }
        });
    }

    /// Finds the node's range bin in a detection spectrum: the strongest
    /// in-window bin, provided it rises at least 10 dB above the
    /// subtraction-residue floor. The window ends below the bin of
    /// `max_range`, below `fft_len/2 − 1` (the positive-delay half) and
    /// at the end of `det`, so a spectrum too short to hold it yields
    /// `None`. `scratch` is the caller-owned sort buffer for the
    /// noise-floor estimate.
    pub fn find_node_bin_with(
        &self,
        det: &[f64],
        fs: f64,
        scratch: &mut Vec<f64>,
    ) -> Option<usize> {
        let lo = self.range_to_bin(self.min_range, fs).max(1);
        let hi = self
            .range_to_bin(self.max_range, fs)
            .min((self.proc.fft_len / 2).saturating_sub(1))
            .min(det.len());
        if lo >= hi {
            return None;
        }
        let window = &det[lo..hi];
        let rel = argmax(window)?;
        let peak = lo + rel;
        let floor = milback_dsp::detect::noise_floor_with(window, 0.5, scratch);
        if det[peak] < 5.0 * floor.max(f64::MIN_POSITIVE) {
            return None;
        }
        Some(peak)
    }

    /// The detection tail shared by localization and AP orientation
    /// sensing, over the diffs already in `ws`: per-antenna detection
    /// spectra (per-bin maxima over the diffs), their sum in
    /// `ws.det_sum`, the node's bin ([`Localizer::find_node_bin_with`])
    /// and the difference pair with the most energy at it. Selecting
    /// the pair at the node's bin, not by total energy, keeps
    /// clutter-residue energy smeared across the profile by trigger
    /// jitter from choosing it. `None` when no bin rises above the
    /// floor, or, first, when the burst is mistimed against the
    /// [`Localizer::leakage_range`] reference (counted as
    /// `ap.timing.reject`). Also left in `ws.detection`.
    pub fn detect_with(&self, ws: &mut DspWorkspace, fs: f64) -> Option<NodeDetection> {
        ws.detection = None;
        if !self.timing_ok(ws, fs) {
            milback_telemetry::counter_add("ap.timing.reject", 1);
            return None;
        }
        for (ant, det) in ws.antennas.iter().zip(&mut ws.det) {
            detection_spectrum_into(&ant.diffs, det);
        }
        let [det0, det1] = &ws.det;
        buffer::track_growth(&mut ws.det_sum, det0.len());
        ws.det_sum.clear();
        ws.det_sum.extend(det0.iter().zip(det1).map(|(a, b)| a + b));
        let bin = self.find_node_bin_with(&ws.det_sum, fs, &mut ws.floor_scratch)?;
        let pair = Self::strongest_at_bin(&ws.antennas[0].diffs, bin, 2);
        ws.detection = Some(NodeDetection { bin, pair });
        ws.detection
    }

    /// Whether the burst in `ws` is timed as the AP's calibration says:
    /// true without a [`Localizer::leakage_range`]. Background
    /// subtraction cancels the static TX→RX leakage, but the raw
    /// profile of antenna 0's first chirp still holds it as the
    /// strongest return below `min_range`. A capture delayed against
    /// the AP's reference (capture timing drift, DESIGN.md §14) moves that
    /// peak and the node's alike, so the burst passes only when the
    /// strongest bin below `min_range` rises [`LEAKAGE_PROMINENCE`]
    /// above the profile's noise floor and lies within
    /// [`TIMING_TOLERANCE_M`] of the calibrated range. Reads the
    /// profile's power through `ws.det[0]`, which detection overwrites.
    fn timing_ok(&self, ws: &mut DspWorkspace, fs: f64) -> bool {
        let Some(leakage) = self.leakage_range else {
            return true;
        };
        let Some(profile) = ws.antennas[0].profiles.first() else {
            return true;
        };
        let power = &mut ws.det[0];
        buffer::track_growth(power, profile.len());
        power.clear();
        power.extend(profile.iter().map(|c| c.norm_sq()));
        let near = self.range_to_bin(self.min_range, fs).min(power.len());
        let Some(peak) = argmax(&power[..near]) else {
            return false;
        };
        let floor = milback_dsp::detect::noise_floor_with(power, 0.5, &mut ws.floor_scratch);
        let offset = self.proc.bin_to_range(peak as f64, fs) - leakage;
        power[peak] >= LEAKAGE_PROMINENCE * floor && offset.abs() <= TIMING_TOLERANCE_M
    }

    /// Index of the difference with the largest energy in the bins
    /// `[peak−half, peak+half]`.
    fn strongest_at_bin(diffs: &[Vec<Cpx>], peak: usize, half: usize) -> usize {
        let mut best = 0;
        let mut best_e = f64::MIN;
        for (i, d) in diffs.iter().enumerate() {
            let lo = peak.saturating_sub(half);
            let hi = (peak + half + 1).min(d.len());
            let e: f64 = d[lo..hi].iter().map(|c| c.norm_sq()).sum();
            if e > best_e {
                best_e = e;
                best = i;
            }
        }
        best
    }

    /// Processes a five-chirp (or more) capture.
    ///
    /// `captures[i]` holds the two RX antennas' raw captures of chirp `i`;
    /// `tx_ref` is the transmitted chirp reference. Returns `None` when no
    /// modulated return rises above the subtraction residue.
    ///
    /// The burst runs in `ws`'s buffers, so a warmed workspace makes
    /// the call allocation-free (pinned by `tests/zero_alloc.rs`); the
    /// fixes it returns are pinned to literals by
    /// `tests/workspace_equivalence.rs`. The two antennas' chains run at
    /// once when [`par::claim`] finds an idle core, bit for bit the
    /// serial result.
    pub fn process_with(
        &self,
        ws: &mut DspWorkspace,
        tx_ref: &Signal,
        captures: &[[Signal; 2]],
    ) -> Option<LocalizationResult> {
        self.process_of(par::claim(), ws, tx_ref, captures, None)
    }

    /// Masked variant of [`Localizer::process_with`]: localizes from the
    /// chirps whose `alive` flag is set, without copying the retained
    /// subset out of `captures`. Bitwise identical to filtering the
    /// captures through the mask and calling `process_with` on the copy
    /// (pinned by a unit test below); allocation-free on a warmed
    /// workspace. The session's dead-chirp triage runs on this.
    pub fn process_masked_with(
        &self,
        ws: &mut DspWorkspace,
        tx_ref: &Signal,
        captures: &[[Signal; 2]],
        alive: &[bool],
    ) -> Option<LocalizationResult> {
        self.process_of(par::claim(), ws, tx_ref, captures, Some(alive))
    }

    /// Shared body of [`Localizer::process_with`] and
    /// [`Localizer::process_masked_with`] with the helper claim (or
    /// `None`) chosen by the caller.
    fn process_of(
        &self,
        claim: Option<par::Claim>,
        ws: &mut DspWorkspace,
        tx_ref: &Signal,
        captures: &[[Signal; 2]],
        alive: Option<&[bool]>,
    ) -> Option<LocalizationResult> {
        let _span = milback_telemetry::span("ap.localize.ns");
        milback_telemetry::counter_add("ap.localize.attempts", 1);
        self.diffs_of(claim, ws, tx_ref, captures, alive);
        self.finish_with(ws, tx_ref.fs)
    }

    /// Tail of the workspace pipelines: detection, refinement and AoA
    /// over the diffs already in `ws`.
    fn finish_with(&self, ws: &mut DspWorkspace, fs: f64) -> Option<LocalizationResult> {
        let Some(NodeDetection { bin: peak, pair }) = self.detect_with(ws, fs) else {
            milback_telemetry::counter_add("ap.localize.misses", 1);
            return None;
        };
        milback_telemetry::counter_add("ap.localize.fixes", 1);
        milback_telemetry::observe("ap.localize.peak_bin", peak as u64);
        let peak_power = ws.det_sum[peak];
        let refined = if self.sub_bin {
            let half = ws.det_sum.len().min(self.proc.fft_len / 2);
            parabolic_refine(&ws.det_sum[..half], peak)
        } else {
            peak as f64
        };
        let range = self.proc.bin_to_range(refined, fs);

        // AoA over the selected pair; the same pair index is used at both
        // antennas — the node's state sequence is common.
        let [ant0, ant1] = &ws.antennas;
        let angle = self
            .aoa
            .estimate_windowed(&ant0.diffs[pair], &ant1.diffs[pair], peak, 2);

        Some(LocalizationResult {
            range,
            angle,
            peak_power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_dsp::chirp::ChirpConfig;
    use milback_rf::geometry::SPEED_OF_LIGHT;
    use std::f64::consts::PI;

    /// One burst through a fresh workspace.
    fn localize(loc: &Localizer, tx: &Signal, caps: &[[Signal; 2]]) -> Option<LocalizationResult> {
        loc.process_with(&mut DspWorkspace::new(), tx, caps)
    }

    fn test_chirp() -> ChirpConfig {
        ChirpConfig {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: 4e-6,
            fs: 3.2e9,
            amplitude: 1.0,
        }
    }

    /// Builds synthetic captures: a static clutter echo plus a node echo
    /// that toggles between chirps, at both antennas with an AoA phase.
    fn synthetic_captures(
        d_node: f64,
        node_angle: f64,
        d_clutter: f64,
        clutter_amp: f64,
    ) -> (Signal, Vec<[Signal; 2]>) {
        let cfg = test_chirp();
        let tx = cfg.sawtooth();
        let aoa = AoaEstimator::milback();
        let dphi = aoa.angle_to_phase(node_angle);
        let mut captures = Vec::new();
        for i in 0..5 {
            let node_amp = if i % 2 == 0 { 0.01 } else { 0.001 }; // toggling
            let mut pair = Vec::new();
            for ant in 0..2 {
                let mut rx = Signal::zeros(tx.fs, tx.fc, tx.len());
                // Clutter (static, same at both antennas).
                let tau_c = 2.0 * d_clutter / SPEED_OF_LIGHT;
                let mut e = tx.delayed(tau_c);
                e.rotate(Cpx::from_polar(clutter_amp, -2.0 * PI * tx.fc * tau_c));
                rx.add(&e);
                // Node (toggling, with per-antenna AoA phase).
                let tau_n = 2.0 * d_node / SPEED_OF_LIGHT;
                let extra = if ant == 0 { dphi } else { 0.0 };
                let mut e = tx.delayed(tau_n);
                e.rotate(Cpx::from_polar(node_amp, -2.0 * PI * tx.fc * tau_n + extra));
                rx.add(&e);
                pair.push(rx);
            }
            captures.push([pair[0].clone(), pair[1].clone()]);
        }
        (tx, captures)
    }

    #[test]
    fn localizes_node_under_strong_clutter() {
        let (tx, caps) = synthetic_captures(3.0, 0.2, 5.0, 1.0);
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        let r = localize(&loc, &tx, &caps).expect("node not found");
        assert!((r.range - 3.0).abs() < 0.05, "range {}", r.range);
        let angle = r.angle.expect("no angle");
        assert!((angle - 0.2).abs() < 0.02, "angle {angle}");
    }

    #[test]
    fn clutter_alone_yields_none() {
        let (tx, caps) = synthetic_captures(3.0, 0.0, 5.0, 1.0);
        // Remove the node by keeping only the static parts: re-synthesize
        // with zero node amplitude via equal chirps.
        let caps_static: Vec<[Signal; 2]> = vec![caps[0].clone(); 5];
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        assert!(localize(&loc, &tx, &caps_static).is_none());
    }

    #[test]
    fn different_distances_resolve() {
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        for d in [1.0, 2.0, 5.0, 8.0] {
            let (tx, caps) = synthetic_captures(d, 0.0, 4.0, 0.5);
            let r = localize(&loc, &tx, &caps).expect("node not found");
            assert!((r.range - d).abs() < 0.05, "d {d}: range {}", r.range);
        }
    }

    #[test]
    fn mistimed_bursts_are_rejected_against_the_leakage_reference() {
        // The leakage as a strong static return at 0.15 m, the node at 3 m.
        let (tx, caps) = synthetic_captures(3.0, 0.0, 0.15, 1.0);
        let skewed = |tau: f64| -> Vec<[Signal; 2]> {
            let delay = |mut s: Signal| {
                s.delay_in_place(tau);
                s
            };
            caps.iter().map(|pair| pair.clone().map(delay)).collect()
        };
        let mut loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        loc.leakage_range = Some(0.15);
        let fix = localize(&loc, &tx, &caps).expect("on-time burst rejected");
        assert!((fix.range - 3.0).abs() < 0.05, "range {}", fix.range);
        // 0.5 ns moves both peaks 7.5 cm: within the tolerance.
        assert!(localize(&loc, &tx, &skewed(0.5e-9)).is_some());
        // 3 ns moves them 45 cm: mistimed.
        assert!(localize(&loc, &tx, &skewed(3e-9)).is_none());
        // Without the reference the same burst gives a fix 45 cm long.
        loc.leakage_range = None;
        let fix = localize(&loc, &tx, &skewed(3e-9)).expect("node not found");
        assert!((fix.range - 3.45).abs() < 0.05, "range {}", fix.range);
    }

    #[test]
    fn angle_sign_recovered() {
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        for ang in [-0.3f64, -0.1, 0.1, 0.3] {
            let (tx, caps) = synthetic_captures(2.5, ang, 6.0, 0.8);
            let r = localize(&loc, &tx, &caps).unwrap();
            let got = r.angle.unwrap();
            assert!((got - ang).abs() < 0.02, "true {ang}, got {got}");
        }
    }

    #[test]
    fn process_with_is_pinned_across_a_reused_workspace() {
        // (distance, range bits, angle bits, peak-power bits), recorded
        // from the allocating per-chirp reference pipeline.
        const PINS: [(f64, u64, u64, u64); 3] = [
            (
                1.5,
                0x3ff7_ff85_18fc_ed93,
                0x3fc3_3333_3333_36ac,
                0x40b9_459d_2912_ca36,
            ),
            (
                3.0,
                0x4007_ff33_e494_1336,
                0x3fc3_3333_3333_2c64,
                0x40b8_64e1_b637_da42,
            ),
            (
                6.0,
                0x4017_fe5a_150f_592a,
                0x3fc3_3333_3333_40fe,
                0x40b7_7122_f129_7274,
            ),
        ];
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        let mut ws = DspWorkspace::new();
        for (d, range, angle, peak) in PINS {
            let (tx, caps) = synthetic_captures(d, 0.15, 5.0, 0.8);
            // A workspace reused across bursts (and distances) must keep
            // reproducing the recorded fixes exactly.
            for _ in 0..2 {
                let r = loc.process_with(&mut ws, &tx, &caps).expect("no fix");
                assert_eq!(r.range.to_bits(), range, "d {d}");
                assert_eq!(r.angle.map(f64::to_bits), Some(angle), "d {d}");
                assert_eq!(r.peak_power.to_bits(), peak, "d {d}");
            }
        }
    }

    #[test]
    fn process_masked_with_matches_retained_copy_bitwise() {
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        let (tx, caps) = synthetic_captures(2.5, 0.1, 5.0, 0.8);
        let masks: [&[bool]; 3] = [
            &[true, true, true, true, true],
            &[true, false, true, true, true],
            &[false, true, true, false, true],
        ];
        let mut ws_masked = DspWorkspace::new();
        let mut ws_copy = DspWorkspace::new();
        for alive in masks {
            let retained: Vec<[Signal; 2]> = caps
                .iter()
                .zip(alive)
                .filter(|(_, &a)| a)
                .map(|(pair, _)| pair.clone())
                .collect();
            let expect = loc.process_with(&mut ws_copy, &tx, &retained);
            // Reused masked workspace across changing mask widths must
            // keep matching the copy path exactly.
            for _ in 0..2 {
                let got = loc.process_masked_with(&mut ws_masked, &tx, &caps, alive);
                assert_eq!(got, expect, "mask {alive:?}");
            }
        }
    }

    /// A helper claim, waiting out other tests that hold it; `None` on
    /// a 1-core host.
    fn forced_claim() -> Option<par::Claim> {
        if par::cores() < 2 {
            return None;
        }
        loop {
            if let Some(c) = par::claim() {
                return Some(c);
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn antennas_at_once_match_antennas_in_turn() {
        type Bits = (Option<(u64, Option<u64>, u64)>, Vec<Vec<(u64, u64)>>);
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        let (tx, caps) = synthetic_captures(2.5, 0.1, 5.0, 0.8);
        let bins = loc.profile_bins(tx.fs);
        let run = |claim: Option<par::Claim>, alive: Option<&[bool]>| -> Bits {
            let mut ws = DspWorkspace::new();
            let fix = loc.process_of(claim, &mut ws, &tx, &caps, alive).map(|r| {
                (
                    r.range.to_bits(),
                    r.angle.map(f64::to_bits),
                    r.peak_power.to_bits(),
                )
            });
            let diffs = ws
                .antennas
                .iter()
                .flat_map(|a| &a.diffs)
                .map(|d| {
                    assert_eq!(d.len(), bins, "diffs are banded");
                    d.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
                })
                .collect();
            (fix, diffs)
        };
        let masked: &[bool] = &[true, false, true, true, true];
        for alive in [None, Some(masked)] {
            let serial = run(None, alive);
            assert!(serial.0.is_some(), "no fix");
            assert_eq!(run(forced_claim(), alive), serial, "mask {alive:?}");
        }
    }

    #[test]
    fn captures_shorter_than_the_reference_window_at_their_own_length() {
        // The burst's shared window is the reference's length; a shorter
        // capture dechirps shorter and must be windowed at its own
        // length, as a standalone range profile is.
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        let (tx, mut caps) = synthetic_captures(2.5, 0.1, 5.0, 0.8);
        for pair in &mut caps {
            for sig in pair.iter_mut() {
                sig.samples.truncate(tx.len() - 3);
            }
        }
        let bins = loc.profile_bins(tx.fs);
        let mut ws = DspWorkspace::new();
        loc.diffs_of(None, &mut ws, &tx, &caps, None);
        let (mut de, mut fft) = (Vec::new(), Vec::new());
        for (ant, bufs) in ws.antennas.iter().enumerate() {
            let profiles: Vec<Vec<Cpx>> = caps
                .iter()
                .map(|pair| {
                    let mut prof = Vec::new();
                    loc.proc.dechirp_into(&pair[ant], &tx, &mut de);
                    loc.proc.range_profile_into(&de, bins, &mut fft, &mut prof);
                    prof
                })
                .collect();
            let mut diffs = Vec::new();
            pairwise_diff_spectra_into(&profiles, &mut diffs);
            assert_eq!(bufs.diffs, diffs, "antenna {ant}");
        }
    }

    #[test]
    fn profile_bins_cover_the_search_window_and_the_gate() {
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        let fs = test_chirp().fs;
        let bins = loc.profile_bins(fs);
        let last_searched = loc.range_to_bin(loc.max_range, fs);
        assert_eq!(bins, last_searched + loc.gate_half_width());
        assert!(bins < loc.proc.fft_len / 2, "band {bins} is not a cut");
    }

    #[test]
    fn find_node_bin_is_none_on_short_spectra() {
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        let fs = test_chirp().fs;
        let mut scratch = Vec::new();
        for len in [0usize, 1, 2, 3] {
            let det = vec![1.0; len];
            assert_eq!(
                loc.find_node_bin_with(&det, fs, &mut scratch),
                None,
                "len {len}"
            );
        }
        // A spectrum cut inside the search window is searched up to its
        // end: the spike at its last bin is found.
        let lo = loc.range_to_bin(loc.min_range, fs);
        let mut det = vec![1.0; lo + 8];
        det[lo + 7] = 100.0;
        assert_eq!(loc.find_node_bin_with(&det, fs, &mut scratch), Some(lo + 7));
    }

    #[test]
    #[should_panic(expected = "two live chirps")]
    fn process_masked_with_rejects_single_survivor() {
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        let (tx, caps) = synthetic_captures(2.5, 0.1, 5.0, 0.8);
        let mut ws = DspWorkspace::new();
        loc.process_masked_with(&mut ws, &tx, &caps, &[false, false, false, false, true]);
    }

    #[test]
    fn min_range_excludes_near_region() {
        // Node parked at 0.2 m — inside the excluded self-interference
        // region; the localizer must not report it.
        let (tx, caps) = synthetic_captures(0.2, 0.0, 9.0, 0.001);
        let loc = Localizer::new(RangeProcessor::new(test_chirp(), 2));
        if let Some(r) = localize(&loc, &tx, &caps) {
            assert!(
                r.range >= 0.5,
                "reported range inside excluded region: {}",
                r.range
            );
        }
    }
}
