//! Deterministic, seed-driven channel impairments (DESIGN.md §14).
//!
//! The paper's evaluation (and this repo's benchmarks up to PR 4) runs
//! on clean channels: static clutter, thermal noise, nothing else. Real
//! 28 GHz deployments are dominated by exactly the failures the clean
//! path never exercises — body blockage, burst interference, clock
//! drift, detector saturation (the surveys in PAPERS.md flag all four).
//! This module is the first-class fault model behind the repo's chaos
//! testing: a [`FaultPlan`] of scheduled [`FaultEvent`]s that the render
//! paths apply **post-synthesis**, after the cached channel response and
//! receiver noise, so the content-fingerprint caches of DESIGN.md §13
//! stay valid and an *empty* plan leaves every output bitwise identical
//! to the fault-free build.
//!
//! ## Determinism contract
//!
//! Fault application is a pure function of `(plan, site)` — the plan's
//! own seed plus stable indices (event index, chirp index, sample
//! index) key a [`Mix`] stream, the one `milback::batch::derive_seed`
//! reads. Faults never touch the simulation's `StdRng` (that would
//! break the empty-plan bitwise guarantee). No thread state, no shared
//! RNG, no allocation on the apply path: a chaos batch run is
//! thread-count-invariant, and serial == parallel holds under injected
//! faults (pinned by `tests/chaos.rs`).
//!
//! ## Timeline
//!
//! Events live on a per-exchange session clock, in seconds. The
//! protocol layer (`milback::session`) advances `Network::clock_s` as
//! fields render and as recovery backoff elapses, and each render hook
//! passes its absolute window. A 12 ms blockage therefore shadows
//! whatever the exchange is doing during those 12 ms — and a retry that
//! backs off past the end of the window genuinely recovers, which is
//! what makes the self-healing layer testable.
//!
//! ## Telemetry
//!
//! Every injected event application increments an `rf.fault.*` counter
//! (`blockage`, `interference`, `drift`, `saturation`, `drop`,
//! `corrupt`, `droop`). The counts depend only on the plan and the
//! exchange flow, so they survive `deterministic_view()` intact.

use milback_dsp::noise::{add_awgn_keyed, add_real_noise_keyed, db_to_ratio, Mix};
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use milback_telemetry as telemetry;
use std::f64::consts::TAU;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// What a scheduled fault does to the signal it overlaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Body blockage: attenuates the capture by `depth_db` (total
    /// observed depth — callers model two-way shadowing by choosing the
    /// depth accordingly) over the event window.
    Blockage {
        /// Attenuation depth applied to overlapped samples, dB.
        depth_db: f64,
    },
    /// Burst interference: an additive tone at `freq_offset_hz` from
    /// the capture's carrier, `amp` in capture units, with a
    /// deterministic random phase per event.
    Interference {
        /// Tone offset from the capture carrier, Hz.
        freq_offset_hz: f64,
        /// Tone amplitude at the receiver, linear.
        amp: f64,
    },
    /// Capture timing drift at the AP: a skew that grows linearly over
    /// the window at `ppm` parts-per-million, applied by
    /// [`FaultPlan::apply_to_rx`] as an envelope delay of each AP-side RF
    /// capture (like trigger jitter). [`FaultPlan::apply_to_video`]
    /// ignores it, so node-side receptions never drift.
    ClockDrift {
        /// Drift rate, parts per million of elapsed window time.
        ppm: f64,
    },
    /// Envelope-detector saturation: clips video-domain samples to
    /// `±v_max` volts.
    Saturation {
        /// Clip level at the detector output, volts.
        v_max: f64,
    },
    /// Drops an entire chirp capture (RF front-end squelch): every
    /// sample of an overlapped chirp is zeroed.
    ChirpDrop,
    /// Corrupts an overlapped chirp with strong deterministic noise
    /// (`sigma` in capture units) — decodable as "present but
    /// garbage", unlike a drop.
    ChirpCorrupt {
        /// Corruption noise RMS per I/Q component, linear.
        sigma: f64,
    },
    /// SNR droop: extra wideband noise of `extra_noise_db` relative to
    /// the capture's RMS over the window (rain fade, LNA compression).
    SnrDroop {
        /// Extra noise level relative to capture RMS, dB.
        extra_noise_db: f64,
    },
}

/// One scheduled impairment: a [`FaultKind`] active over
/// `[start_s, start_s + duration_s)` on the session clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Window start on the session clock, seconds.
    pub start_s: f64,
    /// Window length, seconds.
    pub duration_s: f64,
    /// The impairment applied inside the window.
    pub kind: FaultKind,
}

impl FaultEvent {
    fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }

    /// Whether the window overlaps `[t0, t1)`.
    fn overlaps(&self, t0: f64, t1: f64) -> bool {
        self.start_s < t1 && t0 < self.end_s()
    }
}

/// The RF band an uplink branch is filtered from: the AP front end's
/// capture around both query tones ([`FaultPlan::apply_to_branch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfBand {
    /// Band center, Hz: the reference of interference offsets.
    pub fc: f64,
    /// Bandwidth, Hz, over which fault noise is white.
    pub bw: f64,
}

/// A deterministic schedule of impairments for one packet exchange.
///
/// The default plan is empty: every render hook takes a single
/// `is_empty` branch and leaves the capture untouched — bitwise — so
/// fault support costs the clean path nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's deterministic noise streams.
    pub seed: u64,
    /// Scheduled events (order is irrelevant; application is by
    /// event-index-keyed streams, not schedule order).
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no events, no effect, zero overhead.
    pub fn none() -> Self {
        Self {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Whether the plan schedules any events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Samples a randomized chaos plan: `intensity` in `[0, 1]` scales
    /// how many and how severe the impairments are. Deterministic in
    /// `(seed, intensity, horizon_s)` — the chaos bench leg derives the
    /// seed per trial with `batch::derive_seed`, so a chaos sweep is
    /// reproducible to the byte.
    pub fn chaos(seed: u64, intensity: f64, horizon_s: f64) -> Self {
        let mut plan = Self::none();
        plan.chaos_into(seed, intensity, horizon_s);
        plan
    }

    /// In-place variant of [`FaultPlan::chaos`]: rebuilds this plan's
    /// schedule reusing the existing `events` allocation. The serving
    /// engine keeps one pooled plan per queue slot and re-rolls it per
    /// session, so the steady-state loop never allocates for faults.
    /// Produces a plan equal to `FaultPlan::chaos(seed, intensity,
    /// horizon_s)`.
    pub fn chaos_into(&mut self, seed: u64, intensity: f64, horizon_s: f64) {
        let intensity = intensity.clamp(0.0, 1.0);
        self.seed = seed;
        self.events.clear();
        let events = &mut self.events;
        if intensity > 0.0 {
            let mut rng = Mix::at(seed, 0x000C_4A05);
            // Blockage: up to three shadowing episodes.
            let n_block = (3.0 * intensity * rng.unit()).round() as usize;
            for _ in 0..n_block {
                events.push(FaultEvent {
                    start_s: rng.unit() * horizon_s,
                    duration_s: (0.05 + 0.3 * rng.unit()) * horizon_s,
                    kind: FaultKind::Blockage {
                        depth_db: 6.0 + 24.0 * intensity * rng.unit(),
                    },
                });
            }
            // One interference burst at moderate-to-high intensity.
            if intensity * rng.unit() > 0.25 {
                events.push(FaultEvent {
                    start_s: rng.unit() * horizon_s,
                    duration_s: (0.1 + 0.4 * rng.unit()) * horizon_s,
                    kind: FaultKind::Interference {
                        freq_offset_hz: (rng.unit() - 0.5) * 40e6,
                        amp: 1e-6 * (1.0 + 9.0 * intensity * rng.unit()),
                    },
                });
            }
            // Clock drift over the whole horizon.
            if intensity * rng.unit() > 0.3 {
                events.push(FaultEvent {
                    start_s: 0.0,
                    duration_s: horizon_s,
                    kind: FaultKind::ClockDrift {
                        ppm: 40.0 * intensity * rng.unit(),
                    },
                });
            }
            // Chirp loss/corruption somewhere in the exchange.
            if intensity * rng.unit() > 0.35 {
                let drop = rng.unit() < 0.5;
                events.push(FaultEvent {
                    start_s: rng.unit() * horizon_s,
                    duration_s: 0.02 * horizon_s,
                    kind: if drop {
                        FaultKind::ChirpDrop
                    } else {
                        FaultKind::ChirpCorrupt {
                            sigma: 1e-6 * (1.0 + 4.0 * intensity),
                        }
                    },
                });
            }
            // Broadband SNR droop at the tail of the intensity range.
            if intensity > 0.6 {
                events.push(FaultEvent {
                    start_s: rng.unit() * horizon_s,
                    duration_s: (0.2 + 0.3 * rng.unit()) * horizon_s,
                    kind: FaultKind::SnrDroop {
                        extra_noise_db: -20.0 + 14.0 * intensity,
                    },
                });
            }
        }
    }

    /// Applies every overlapping event to an RF-domain capture whose
    /// first sample sits at session time `t0_s`. `chirp_idx` tags the
    /// capture for per-chirp drop/corrupt streams (pass 0 for
    /// non-chirped captures).
    ///
    /// No-op (bitwise) when the plan is empty or nothing overlaps.
    pub fn apply_to_rx(&self, t0_s: f64, chirp_idx: usize, rx: &mut Signal) {
        self.apply_rf(t0_s, chirp_idx, None, rx);
    }

    /// Applies every overlapping event to an uplink branch: the complex
    /// envelope of one query tone (`branch.fc`) after the AP's mixer
    /// and band-pass, at its detection bandwidth `branch.fs`, filtered
    /// from an RF capture of `band`. `idx` tags the branch as
    /// `chirp_idx` does a capture. The rules are the RF capture's, with
    /// what the branch filter keeps of each additive term (DESIGN.md
    /// §14.1):
    ///
    /// * blockage scales, drift delays and a drop zeroes the envelope,
    ///   as in the capture;
    /// * an interference tone at `band.fc + freq_offset_hz` enters at
    ///   its offset from the branch's tone, and only when that offset
    ///   lies inside the branch's `±fs/2`;
    /// * corruption and droop noise is white over `band.bw`, so the
    ///   branch keeps `fs / band.bw` of its power; droop is relative to
    ///   the branch's own RMS.
    ///
    /// No-op (bitwise) when the plan is empty or nothing overlaps.
    pub fn apply_to_branch(&self, t0_s: f64, idx: usize, band: RfBand, branch: &mut Signal) {
        self.apply_rf(t0_s, idx, Some(band), branch);
    }

    /// [`Self::apply_to_rx`] on a wideband capture (`band` = `None`),
    /// [`Self::apply_to_branch`] on a branch filtered from `band`.
    fn apply_rf(&self, t0_s: f64, chirp_idx: usize, band: Option<RfBand>, rx: &mut Signal) {
        if self.is_empty() || rx.is_empty() {
            return;
        }
        // The share of a white fault noise's power that reaches `rx`.
        let in_band = band.map_or(1.0, |band| (rx.fs / band.bw).min(1.0));
        let t1_s = t0_s + rx.duration();
        let fs = rx.fs;
        for (ev_idx, ev) in self.events.iter().enumerate() {
            if !ev.overlaps(t0_s, t1_s) {
                continue;
            }
            // Sample range of the overlap within this capture.
            let lo = (((ev.start_s - t0_s) * fs).ceil().max(0.0)) as usize;
            let hi = ((((ev.end_s() - t0_s) * fs).ceil()).max(0.0) as usize).min(rx.len());
            if lo >= hi {
                continue;
            }
            match ev.kind {
                FaultKind::Blockage { depth_db } => {
                    telemetry::counter_add("rf.fault.blockage", 1);
                    let g = db_to_ratio(-depth_db.abs() / 2.0); // amplitude
                    for c in &mut rx.samples[lo..hi] {
                        *c *= g;
                    }
                }
                FaultKind::Interference {
                    freq_offset_hz,
                    amp,
                } => {
                    telemetry::counter_add("rf.fault.interference", 1);
                    // Where the tone lands in `rx`; a branch filter
                    // rejects it outside `±fs/2`.
                    let freq_offset_hz = match band {
                        None => freq_offset_hz,
                        Some(band) => band.fc + freq_offset_hz - rx.fc,
                    };
                    if freq_offset_hz.abs() >= fs / 2.0 {
                        continue;
                    }
                    let phase0 = Mix::at(self.seed, ev_idx as u64).unit() * TAU;
                    for (k, c) in rx.samples[lo..hi].iter_mut().enumerate() {
                        // Phase continuous in *session* time so the tone is
                        // coherent across chirps, like a real interferer.
                        let t = t0_s + (lo + k) as f64 / fs;
                        let ph = phase0 + TAU * freq_offset_hz * (t - ev.start_s);
                        *c += Cpx::cis(ph) * amp;
                    }
                }
                FaultKind::ClockDrift { ppm } => {
                    telemetry::counter_add("rf.fault.drift", 1);
                    // Skew at this capture's start, growing over the window.
                    let elapsed = (t0_s - ev.start_s).max(0.0);
                    let skew = ppm * 1e-6 * elapsed;
                    if skew > 0.0 {
                        rx.delay_in_place(skew);
                    }
                }
                FaultKind::Saturation { .. } => {
                    // Video-domain only; see apply_to_video.
                }
                FaultKind::ChirpDrop => {
                    telemetry::counter_add("rf.fault.drop", 1);
                    let _ = chirp_idx;
                    for c in &mut rx.samples {
                        *c = Cpx::new(0.0, 0.0);
                    }
                }
                FaultKind::ChirpCorrupt { sigma } => {
                    telemetry::counter_add("rf.fault.corrupt", 1);
                    let key = Mix::at(
                        self.seed,
                        (ev_idx as u64) << 32 | chirp_idx as u64 | 0x10_0000,
                    )
                    .next_u64();
                    add_awgn_keyed(&mut rx.samples, 2.0 * sigma * sigma * in_band, key);
                }
                FaultKind::SnrDroop { extra_noise_db } => {
                    telemetry::counter_add("rf.fault.droop", 1);
                    let power = rx.power() * db_to_ratio(extra_noise_db) * in_band;
                    let key = Mix::at(
                        self.seed,
                        (ev_idx as u64) << 32 | chirp_idx as u64 | 0x20_0000,
                    )
                    .next_u64();
                    add_awgn_keyed(&mut rx.samples[lo..hi], power, key);
                }
            }
        }
    }

    /// Applies overlapping events to a node-side video-domain capture
    /// (envelope-detector output) sampled at `fs` whose first sample
    /// sits at session time `t0_s`. Blockage scales power once
    /// (one-way AP→node path), saturation clips, droop adds noise;
    /// RF-only kinds are ignored.
    pub fn apply_to_video(&self, t0_s: f64, fs: f64, v: &mut [f64]) {
        if self.is_empty() || v.is_empty() {
            return;
        }
        let t1_s = t0_s + v.len() as f64 / fs;
        for (ev_idx, ev) in self.events.iter().enumerate() {
            if !ev.overlaps(t0_s, t1_s) {
                continue;
            }
            let lo = (((ev.start_s - t0_s) * fs).ceil().max(0.0)) as usize;
            let hi = ((((ev.end_s() - t0_s) * fs).ceil()).max(0.0) as usize).min(v.len());
            if lo >= hi {
                continue;
            }
            match ev.kind {
                FaultKind::Blockage { depth_db } => {
                    telemetry::counter_add("rf.fault.blockage", 1);
                    // Detector output ~ input power: one-way power depth.
                    let g = db_to_ratio(-depth_db.abs());
                    for s in &mut v[lo..hi] {
                        *s *= g;
                    }
                }
                FaultKind::Saturation { v_max } => {
                    telemetry::counter_add("rf.fault.saturation", 1);
                    for s in &mut v[lo..hi] {
                        *s = s.clamp(-v_max, v_max);
                    }
                }
                FaultKind::SnrDroop { extra_noise_db } => {
                    telemetry::counter_add("rf.fault.droop", 1);
                    let rms = (v.iter().map(|s| s * s).sum::<f64>() / v.len() as f64).sqrt();
                    let sigma = rms * db_to_ratio(extra_noise_db / 2.0);
                    let key = Mix::at(self.seed, (ev_idx as u64) << 32 | 0x30_0000).next_u64();
                    add_real_noise_keyed(&mut v[lo..hi], sigma, key);
                }
                FaultKind::ChirpDrop => {
                    telemetry::counter_add("rf.fault.drop", 1);
                    for s in &mut v[lo..hi] {
                        *s = 0.0;
                    }
                }
                FaultKind::Interference { .. }
                | FaultKind::ClockDrift { .. }
                | FaultKind::ChirpCorrupt { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture() -> Signal {
        Signal::tone(1e8, 28e9, 1e6, 1.0, 512)
    }

    #[test]
    fn empty_plan_is_bitwise_noop() {
        let plan = FaultPlan::none();
        let mut rx = capture();
        let before = rx.samples.clone();
        plan.apply_to_rx(0.0, 0, &mut rx);
        assert_eq!(rx.samples, before);
        let mut v = vec![0.5; 64];
        plan.apply_to_video(0.0, 1e6, &mut v);
        assert_eq!(v, vec![0.5; 64]);
    }

    #[test]
    fn blockage_attenuates_only_the_window() {
        let mut rx = capture();
        let before = rx.samples.clone();
        let dur = rx.duration();
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent {
                start_s: dur * 0.25,
                duration_s: dur * 0.5,
                kind: FaultKind::Blockage { depth_db: 20.0 },
            }],
        };
        plan.apply_to_rx(0.0, 0, &mut rx);
        let n = rx.len();
        // Outside the window: untouched.
        assert_eq!(rx.samples[0], before[0]);
        assert_eq!(rx.samples[n - 1], before[n - 1]);
        // Inside: 20 dB power depth = 10x amplitude.
        let mid = n / 2;
        let ratio = before[mid].norm_sq() / rx.samples[mid].norm_sq();
        assert!((ratio - 100.0).abs() < 1.0, "power ratio {ratio}");
    }

    #[test]
    fn application_is_deterministic() {
        let plan = FaultPlan::chaos(42, 0.8, 0.01);
        assert!(!plan.is_empty());
        let mut a = capture();
        let mut b = capture();
        plan.apply_to_rx(1e-3, 2, &mut a);
        plan.apply_to_rx(1e-3, 2, &mut b);
        assert_eq!(a.samples, b.samples, "same site must inject identically");
        // A different chirp index gets a different corruption stream but
        // still deterministic.
        let mut c = capture();
        plan.apply_to_rx(1e-3, 3, &mut c);
        let mut d = capture();
        plan.apply_to_rx(1e-3, 3, &mut d);
        assert_eq!(c.samples, d.samples);
    }

    #[test]
    fn chaos_plans_reproduce_and_scale() {
        assert_eq!(
            FaultPlan::chaos(7, 0.5, 0.01),
            FaultPlan::chaos(7, 0.5, 0.01)
        );
        assert!(FaultPlan::chaos(7, 0.0, 0.01).is_empty());
        assert_ne!(
            FaultPlan::chaos(7, 0.9, 0.01),
            FaultPlan::chaos(8, 0.9, 0.01)
        );
    }

    #[test]
    fn chaos_into_matches_chaos_and_reuses_capacity() {
        let mut plan = FaultPlan::chaos(11, 0.9, 0.02);
        let cap = plan.events.capacity();
        plan.chaos_into(12, 0.4, 0.01);
        assert_eq!(plan, FaultPlan::chaos(12, 0.4, 0.01));
        assert!(plan.events.capacity() >= plan.events.len());
        // Re-rolling to a smaller (or empty) schedule keeps the buffer.
        plan.chaos_into(13, 0.0, 0.01);
        assert!(plan.is_empty());
        assert_eq!(plan.events.capacity(), cap.max(plan.events.capacity()));
        plan.chaos_into(11, 0.9, 0.02);
        assert_eq!(plan, FaultPlan::chaos(11, 0.9, 0.02));
    }

    #[test]
    fn drop_zeroes_and_saturation_clips() {
        let dur = capture().duration();
        let drop = FaultPlan {
            seed: 3,
            events: vec![FaultEvent {
                start_s: 0.0,
                duration_s: dur,
                kind: FaultKind::ChirpDrop,
            }],
        };
        let mut rx = capture();
        drop.apply_to_rx(0.0, 0, &mut rx);
        assert!(rx.samples.iter().all(|c| c.norm_sq() == 0.0));
        let sat = FaultPlan {
            seed: 3,
            events: vec![FaultEvent {
                start_s: 0.0,
                duration_s: 1.0,
                kind: FaultKind::Saturation { v_max: 0.2 },
            }],
        };
        let mut v = vec![-1.0, -0.1, 0.05, 0.9];
        sat.apply_to_video(0.0, 1e6, &mut v);
        assert_eq!(v, vec![-0.2, -0.1, 0.05, 0.2]);
    }

    #[test]
    fn clock_drift_leaves_node_video_untouched() {
        let plan = FaultPlan {
            seed: 9,
            events: vec![FaultEvent {
                start_s: 0.0,
                duration_s: 1.0,
                kind: FaultKind::ClockDrift { ppm: 20.0 },
            }],
        };
        let video: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
        for t0_s in [0.0, 0.5, 0.999] {
            let mut v = video.clone();
            plan.apply_to_video(t0_s, 1e6, &mut v);
            let bits = |x: &[f64]| x.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&v), bits(&video), "video drifted at t0 = {t0_s} s");
        }
    }

    #[test]
    fn drift_skew_grows_inside_window() {
        // 0.05 ppm: 25 ns (2.5 samples at 100 MS/s) of skew 0.5 s into
        // the window, 95 ns 1.9 s in.
        let plan = FaultPlan {
            seed: 9,
            events: vec![FaultEvent {
                start_s: 1.0,
                duration_s: 2.0,
                kind: FaultKind::ClockDrift { ppm: 0.05 },
            }],
        };
        let leading_zeros = |t0_s: f64| {
            let mut rx = capture();
            plan.apply_to_rx(t0_s, 0, &mut rx);
            rx.samples.iter().take_while(|c| c.abs() == 0.0).count()
        };
        let mut before = capture();
        plan.apply_to_rx(0.5, 0, &mut before);
        assert_eq!(before.samples, capture().samples);
        let early = leading_zeros(1.5);
        let late = leading_zeros(2.9);
        assert!(early > 0 && late > early, "{early} {late}");
        assert_eq!(leading_zeros(3.5), 0);
    }
}
