//! Ablation experiments: what breaks when each design choice of MilBack
//! is removed or varied. These back the design claims the paper makes in
//! prose (the necessity of background subtraction, of orientation-
//! assisted carrier selection, of five-chirp trains) and quantify the
//! §9.4/§9.5 rate limits.

use crate::batch;
use crate::config::Fidelity;
use crate::network::Network;
use milback_ap::with_workspace;
use milback_dsp::detect::{argmax, parabolic_refine};
use milback_dsp::noise::ratio_to_db;
use milback_dsp::stats;
use milback_dsp::window::Window;
use milback_rf::fsa::Port;
use milback_rf::geometry::{deg_to_rad, Pose};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Background subtraction on/off
// ---------------------------------------------------------------------

/// One row of the background-subtraction ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubtractionRow {
    /// Node distance, m.
    pub distance_m: f64,
    /// Trials where the *subtracted* pipeline found the node within
    /// 25 cm.
    pub with_ok: usize,
    /// Trials where a *single-chirp, no-subtraction* pipeline found the
    /// node within 25 cm (it usually locks onto clutter instead).
    pub without_ok: usize,
    /// Total trials.
    pub trials: usize,
}

/// Ranging with and without background subtraction (paper §5.1: "the
/// node's reflection is much weaker than the reflection of some other
/// objects").
pub fn ablation_background_subtraction(trials: usize, seed: u64) -> Vec<SubtractionRow> {
    // Randomness drawn serially up front, simulations on the batch engine.
    let mut master = StdRng::seed_from_u64(seed);
    let inputs: Vec<(f64, u64, f64)> = [2.0, 4.0, 6.0]
        .iter()
        .flat_map(|&d| {
            (0..trials)
                .map(|_| {
                    let trial_seed: u64 = master.gen();
                    let phi = deg_to_rad(master.gen_range(-10.0..10.0));
                    (d, trial_seed, phi)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let results = batch::par_map(&inputs, |&(d, trial_seed, phi), _| {
        let pose = Pose::facing_ap(d, phi, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, trial_seed);

        // With subtraction: the standard pipeline.
        let with_ok = net
            .localize()
            .map(|fix| (fix.range - d).abs() < 0.25)
            .unwrap_or(false);

        // Without: peak of a single chirp's raw range profile.
        let (tx, captures) = net.field2_captures(5);
        let loc = net.localizer();
        let profile = loc
            .proc
            .range_profile(&loc.proc.dechirp(&captures[0][0], &tx));
        let power: Vec<f64> = profile.iter().map(|c| c.norm_sq()).collect();
        // Same search window as the localizer.
        let fs = tx.fs;
        let half = power.len() / 2;
        let bin_lo = (0.5 / loc.proc.bin_to_range(1.0, fs)) as usize;
        let window = &power[bin_lo..half];
        let without_ok = argmax(window)
            .map(|rel| {
                let peak = bin_lo + rel;
                let refined = parabolic_refine(&power[..half], peak);
                let range = loc.proc.bin_to_range(refined, fs);
                (range - d).abs() < 0.25
            })
            .unwrap_or(false);
        (with_ok, without_ok)
    });
    results
        .chunks(trials.max(1))
        .zip([2.0, 4.0, 6.0])
        .map(|(chunk, d)| SubtractionRow {
            distance_m: d,
            with_ok: chunk.iter().filter(|(w, _)| *w).count(),
            without_ok: chunk.iter().filter(|(_, wo)| *wo).count(),
            trials,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Orientation assistance on/off
// ---------------------------------------------------------------------

/// One row of the orientation-assistance ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssistRow {
    /// Node orientation, degrees.
    pub orientation_deg: f64,
    /// Downlink SINR with orientation-selected tones, dB.
    pub assisted_sinr_db: f64,
    /// Downlink SINR with fixed tones chosen for 0° orientation, dB.
    pub fixed_sinr_db: f64,
}

/// Downlink SINR across orientations with and without orientation-aware
/// carrier selection — the "OA" in OAQFM (paper §6.1–6.2).
pub fn ablation_orientation_assist(seed: u64) -> Vec<AssistRow> {
    let orientations = [4.0f64, 8.0, 12.0, 16.0, 20.0];
    batch::par_map(&orientations, |&odeg, _| {
        // ψ = −orientation so the node's incidence angle equals `odeg`.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(-odeg));
        // Assisted: tones for the true orientation.
        let mut net = Network::new(pose, Fidelity::Fast, seed);
        let assisted = net
            .downlink(&[0xA5; 8], 1e6, true)
            .map(|r| ratio_to_db(r.sinr))
            .unwrap_or(f64::NEG_INFINITY);
        // Fixed: evaluate the link budget with ±5°-orientation tones
        // (a "blind" AP that ignores the node's rotation).
        let net = Network::new(pose, Fidelity::Fast, seed);
        let fsa = net.node.fsa;
        // Both angles sit inside the FSA's scan range by construction;
        // if a config change ever moves them out, report the misalign
        // penalty as unbounded rather than panicking mid-batch.
        let (Some(f_fixed_a), Some(f_right_a)) = (
            fsa.frequency_for_angle(Port::A, deg_to_rad(5.0)),
            fsa.frequency_for_angle(Port::A, net.true_orientation()),
        ) else {
            return AssistRow {
                orientation_deg: odeg,
                assisted_sinr_db: assisted,
                fixed_sinr_db: f64::NEG_INFINITY,
            };
        };
        let g_fixed =
            net.scene
                .tone_gain_to_port(&net.node.pose, &net.node.fsa, Port::A, f_fixed_a);
        let g_right =
            net.scene
                .tone_gain_to_port(&net.node.pose, &net.node.fsa, Port::A, f_right_a);
        // Fixed-tone SINR = assisted SINR minus the beam misalignment loss.
        let fixed = assisted - ratio_to_db(g_right / g_fixed);
        AssistRow {
            orientation_deg: odeg,
            assisted_sinr_db: assisted,
            fixed_sinr_db: fixed,
        }
    })
}

// ---------------------------------------------------------------------
// Chirp-count sweep
// ---------------------------------------------------------------------

/// One row of the chirp-count ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChirpCountRow {
    /// Chirps per localization burst.
    pub n_chirps: usize,
    /// Detection successes out of `trials`.
    pub detections: usize,
    /// Mean |range error| over successful trials, cm.
    pub mean_err_cm: f64,
    /// Trials run.
    pub trials: usize,
}

/// Localization quality vs the number of Field-2 chirps (the paper uses
/// five: four pairwise differences).
pub fn ablation_chirp_count(trials: usize, seed: u64) -> Vec<ChirpCountRow> {
    let mut master = StdRng::seed_from_u64(seed);
    let d = 5.0;
    let chirp_counts = [2usize, 3, 5, 7, 9];
    let inputs: Vec<(usize, u64, f64)> = chirp_counts
        .iter()
        .flat_map(|&n_chirps| {
            (0..trials)
                .map(|_| {
                    let trial_seed: u64 = master.gen();
                    let phi = deg_to_rad(master.gen_range(-10.0..10.0));
                    (n_chirps, trial_seed, phi)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let results = batch::par_map(&inputs, |&(n_chirps, trial_seed, phi), _| {
        let pose = Pose::facing_ap(d, phi, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, trial_seed);
        let (tx, captures) = net.field2_captures(n_chirps);
        let loc = net.localizer();
        with_workspace(|ws| loc.process_with(ws, &tx, &captures))
            .map(|fix| (fix.range - d).abs())
            .filter(|err| *err < 0.5)
    });
    results
        .chunks(trials.max(1))
        .zip(chirp_counts)
        .map(|(chunk, n_chirps)| {
            let errs: Vec<f64> = chunk.iter().filter_map(|e| *e).collect();
            ChirpCountRow {
                n_chirps,
                detections: errs.len(),
                mean_err_cm: stats::mean(&errs) * 100.0,
                trials,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Range-FFT window sweep
// ---------------------------------------------------------------------

/// One row of the window ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    /// Window used for the range FFT.
    pub window: Window,
    /// Detection successes out of `trials`.
    pub detections: usize,
    /// Mean |range error| over successes, cm.
    pub mean_err_cm: f64,
    /// Trials run.
    pub trials: usize,
}

/// Ranging under clutter with different range-FFT windows: rectangular
/// leaks clutter side lobes over the node; Hann (the default) is the
/// standard compromise.
pub fn ablation_window(trials: usize, seed: u64) -> Vec<WindowRow> {
    let mut master = StdRng::seed_from_u64(seed);
    let d = 5.0;
    let windows = [Window::Rect, Window::Hann, Window::Blackman];
    let inputs: Vec<(Window, u64, f64)> = windows
        .iter()
        .flat_map(|&window| {
            (0..trials)
                .map(|_| {
                    let trial_seed: u64 = master.gen();
                    let phi = deg_to_rad(master.gen_range(-10.0..10.0));
                    (window, trial_seed, phi)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let results = batch::par_map(&inputs, |&(window, trial_seed, phi), _| {
        let pose = Pose::facing_ap(d, phi, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, trial_seed);
        let (tx, captures) = net.field2_captures(5);
        let mut loc = net.localizer();
        loc.proc.window = window;
        with_workspace(|ws| loc.process_with(ws, &tx, &captures))
            .map(|fix| (fix.range - d).abs())
            .filter(|err| *err < 0.5)
    });
    results
        .chunks(trials.max(1))
        .zip(windows)
        .map(|(chunk, window)| {
            let errs: Vec<f64> = chunk.iter().filter_map(|e| *e).collect();
            WindowRow {
                window,
                detections: errs.len(),
                mean_err_cm: stats::mean(&errs) * 100.0,
                trials,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Uplink symbol-rate sweep (to the switch cap)
// ---------------------------------------------------------------------

/// One row of the rate sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateRow {
    /// Raw uplink bit rate, Mbps.
    pub bit_rate_mbps: f64,
    /// Whether the switch supports the rate at all (§9.5's 160 Mbps cap).
    pub supported: bool,
    /// Measured decision SNR, dB (supported rates only).
    pub snr_db: f64,
    /// Measured bit errors in one frame.
    pub bit_errors: usize,
}

/// Uplink performance vs bit rate at a fixed distance, up to and beyond
/// the switch's toggle limit.
pub fn ablation_uplink_rate(distance_m: f64, seed: u64) -> Vec<RateRow> {
    let pose = Pose::facing_ap(distance_m, 0.0, deg_to_rad(15.0));
    let rates = [10.0, 20.0, 40.0, 80.0, 160.0, 200.0];
    batch::par_map(&rates, |&mbps, _| {
        let symbol_rate = mbps * 1e6 / 2.0;
        let net = Network::new(pose, Fidelity::Fast, seed);
        let supported = net.node.switch.supports_rate(symbol_rate);
        if !supported {
            return Some(RateRow {
                bit_rate_mbps: mbps,
                supported: false,
                snr_db: f64::NEG_INFINITY,
                bit_errors: 0,
            });
        }
        let mut net = Network::new(pose, Fidelity::Fast, seed);
        net.uplink(&[0x6C; 16], symbol_rate, true).map(|r| RateRow {
            bit_rate_mbps: mbps,
            supported: true,
            snr_db: ratio_to_db(r.snr),
            bit_errors: r.bit_errors,
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtraction_is_essential() {
        let rows = ablation_background_subtraction(4, 91);
        for r in &rows {
            assert_eq!(
                r.with_ok, r.trials,
                "subtracted pipeline failed at {} m",
                r.distance_m
            );
        }
        // Without subtraction the raw profile locks onto clutter at least
        // somewhere.
        let total_without: usize = rows.iter().map(|r| r.without_ok).sum();
        let total_with: usize = rows.iter().map(|r| r.with_ok).sum();
        assert!(
            total_without < total_with,
            "{total_without} vs {total_with}"
        );
    }

    #[test]
    fn orientation_assist_pays_off_at_large_angles() {
        let rows = ablation_orientation_assist(92);
        // At 20° the fixed-tone link loses double-digit dB.
        let r20 = rows.iter().find(|r| r.orientation_deg == 20.0).unwrap();
        assert!(
            r20.assisted_sinr_db - r20.fixed_sinr_db > 10.0,
            "assist gain {}",
            r20.assisted_sinr_db - r20.fixed_sinr_db
        );
        // At small angles the penalty is small.
        let r4 = rows.iter().find(|r| r.orientation_deg == 4.0).unwrap();
        assert!(r4.assisted_sinr_db - r4.fixed_sinr_db < 6.0);
    }

    #[test]
    fn more_chirps_never_hurt() {
        let rows = ablation_chirp_count(4, 93);
        let det2 = rows.iter().find(|r| r.n_chirps == 2).unwrap().detections;
        let det5 = rows.iter().find(|r| r.n_chirps == 5).unwrap().detections;
        assert!(det5 >= det2);
    }

    #[test]
    fn rate_sweep_caps_at_160() {
        let rows = ablation_uplink_rate(3.0, 94);
        let at160 = rows.iter().find(|r| r.bit_rate_mbps == 160.0).unwrap();
        assert!(at160.supported);
        let at200 = rows.iter().find(|r| r.bit_rate_mbps == 200.0).unwrap();
        assert!(!at200.supported);
        // SNR decreases with rate among supported rows.
        let snr10 = rows
            .iter()
            .find(|r| r.bit_rate_mbps == 10.0)
            .unwrap()
            .snr_db;
        let snr160 = at160.snr_db;
        assert!(snr10 > snr160 + 6.0, "{snr10} vs {snr160}");
    }
}
