//! Experiment drivers regenerating the figures and the power table of the
//! paper's evaluation (§9); Table 1 is data, `milback_baseline::table1`.
//! Each function is deterministic given its seed and returns plain row
//! structs; the `milback-bench` binaries print them.

use crate::batch;
use crate::config::Fidelity;
use crate::network::Network;
use milback_ap::tone_select::ToneSelection;
use milback_ap::uplink::ook_ber;
use milback_dsp::noise::ratio_to_db;
use milback_dsp::stats;
use milback_rf::fsa::{DualPortFsa, Port};
use milback_rf::geometry::{deg_to_rad, rad_to_deg, Pose};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default orientation used for communication experiments: 15° off
/// normal, where the two OAQFM tones are well separated (the paper's
/// microbenchmark geometry, tones 27.5/28.5 GHz).
pub const COMM_ORIENTATION_DEG: f64 = 15.0;

/// The Monte-Carlo trial driver behind every multi-trial figure and
/// ablation: `trials` runs of `run(point, trial_seed, draw)` at each of
/// `points`, returned grouped by point. All randomness comes from one
/// `seed` stream in serial order (per point, per trial: the trial's
/// seed, then `draw`); the runs go to the batch engine, so the result
/// is the same at any thread count.
pub(crate) fn monte_carlo<P: Sync, D: Sync, R: Send>(
    points: &[P],
    trials: usize,
    seed: u64,
    mut draw: impl FnMut(&mut StdRng) -> D,
    run: impl Fn(&P, u64, &D) -> R + Sync,
) -> Vec<Vec<R>> {
    let mut master = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::with_capacity(points.len() * trials);
    for point in points {
        for _ in 0..trials {
            let trial_seed: u64 = master.gen();
            inputs.push((point, trial_seed, draw(&mut master)));
        }
    }
    let mut results = batch::par_map(&inputs, |(point, trial_seed, d), _| {
        run(point, *trial_seed, d)
    })
    .into_iter();
    points
        .iter()
        .map(|_| results.by_ref().take(trials).collect())
        .collect()
}

// ---------------------------------------------------------------------
// Figure 10 — dual-port FSA beam pattern
// ---------------------------------------------------------------------

/// One sample of the FSA beam pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// Which port.
    pub port: Port,
    /// Signal frequency, GHz.
    pub freq_ghz: f64,
    /// Beam direction sample, degrees.
    pub theta_deg: f64,
    /// Antenna gain, dBi.
    pub gain_dbi: f64,
}

/// Sweeps the dual-port FSA pattern over ±40° for the paper's seven
/// sample frequencies (Fig. 10).
pub fn fig10_fsa_pattern() -> Vec<Fig10Row> {
    let fsa = DualPortFsa::milback();
    let freqs_ghz = [26.5, 27.0, 27.5, 28.0, 28.5, 29.0, 29.5];
    let mut rows = Vec::new();
    for port in Port::BOTH {
        for &f in &freqs_ghz {
            let mut theta = -40.0;
            while theta <= 40.0 {
                rows.push(Fig10Row {
                    port,
                    freq_ghz: f,
                    theta_deg: theta,
                    gain_dbi: fsa.gain_dbi(port, deg_to_rad(theta), f * 1e9),
                });
                theta += 1.0;
            }
        }
    }
    rows
}

/// Summary of the FSA microbenchmark claims (§9.1): peak gain per
/// frequency and total scan coverage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsaSummary {
    /// Minimum peak gain across the band, dBi.
    pub min_peak_gain_dbi: f64,
    /// Scan coverage across the band, degrees.
    pub coverage_deg: f64,
}

/// Computes the §9.1 FSA claims.
pub fn fsa_summary() -> FsaSummary {
    let fsa = DualPortFsa::milback();
    let mut min_gain = f64::MAX;
    let mut f = 26.5e9;
    while f <= 29.5e9 {
        min_gain = min_gain.min(fsa.peak_gain_dbi(Port::A, f));
        f += 0.1e9;
    }
    // The milback FSA always scans a non-empty range; degrade to zero
    // coverage instead of panicking if a config edit ever breaks that.
    let coverage = fsa
        .scan_range(Port::A)
        .map_or(0.0, |(lo, hi)| rad_to_deg(hi - lo));
    FsaSummary {
        min_peak_gain_dbi: min_gain,
        coverage_deg: coverage,
    }
}

// ---------------------------------------------------------------------
// Figure 11 — OAQFM microbenchmark
// ---------------------------------------------------------------------

/// Detector-output traces for the four OAQFM symbols (Fig. 11).
#[derive(Debug, Clone)]
pub struct Fig11Trace {
    /// Sample times, µs.
    pub time_us: Vec<f64>,
    /// Port-A detector output, mV.
    pub port_a_mv: Vec<f64>,
    /// Port-B detector output, mV.
    pub port_b_mv: Vec<f64>,
    /// The tones chosen, GHz.
    pub tones_ghz: (f64, f64),
    /// Symbol boundaries (µs) with labels 00, 01, 10, 11.
    pub symbols: Vec<(f64, &'static str)>,
}

/// Reproduces Fig. 11: node at 2 m, AP sends symbols 00, 01, 10, 11 at
/// 1 µs per symbol on the orientation-selected tones; each port's
/// detector output as the downlink renders it (DESIGN.md §5).
pub fn fig11_oaqfm_micro(seed: u64) -> Fig11Trace {
    use milback_proto::bits::OaqfmSymbol;

    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(COMM_ORIENTATION_DEG));
    let mut net = Network::new(pose, Fidelity::Fast, seed);
    let tones = net.plan_tones(true).expect("tone selection failed");
    let (f_a, f_b) = match tones {
        ToneSelection::Dual { f_a, f_b } => (f_a, f_b),
        ToneSelection::Single { f } => (f, f),
    };

    let symbol_rate = 1e6; // 1 µs symbols, as in §9.1
    let symbols = [(false, false), (false, true), (true, false), (true, true)]
        .map(|(a_on, b_on)| OaqfmSymbol { a_on, b_on });
    let bits_a: Vec<bool> = symbols.iter().map(|s| s.a_on).collect();
    let bits_b: Vec<bool> = symbols.iter().map(|s| s.b_on).collect();

    // Each tone at half the transmit power, through the downlink's
    // port videos.
    let p_tone = net.ap.tx.amplitude().powi(2) / 2.0;
    let [port_a, port_b] = net.dual_port_powers(p_tone, f_a, f_b);
    let ports = [
        (port_a, &bits_a[..], &bits_b[..]),
        (port_b, &bits_b[..], &bits_a[..]),
    ];
    let fs = net.node.detector.payload_video_rate(symbol_rate);
    let (mut det_a, mut det_b) = (Vec::new(), Vec::new());
    net.node_videos_into(ports, symbol_rate, fs, [&mut det_a, &mut det_b]);

    // Decimate the traces to ≤100 points per symbol for plotting.
    let step = (fs / symbol_rate / 100.0).max(1.0) as usize;
    let time_us: Vec<f64> = (0..det_a.len())
        .step_by(step)
        .map(|i| i as f64 / fs * 1e6)
        .collect();
    let port_a_mv: Vec<f64> = det_a.iter().step_by(step).map(|v| v * 1e3).collect();
    let port_b_mv: Vec<f64> = det_b.iter().step_by(step).map(|v| v * 1e3).collect();

    Fig11Trace {
        time_us,
        port_a_mv,
        port_b_mv,
        tones_ghz: (f_a / 1e9, f_b / 1e9),
        symbols: vec![(0.0, "00"), (1.0, "01"), (2.0, "10"), (3.0, "11")],
    }
}

// ---------------------------------------------------------------------
// Figure 12 — localization
// ---------------------------------------------------------------------

/// One distance point of Fig. 12a.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangingRow {
    /// True node distance, m.
    pub distance_m: f64,
    /// Mean |range error|, cm.
    pub mean_cm: f64,
    /// 90th-percentile |range error|, cm.
    pub p90_cm: f64,
    /// Successful trials out of the requested count.
    pub n: usize,
}

/// Runs the Fig. 12a ranging experiment: distances 1–8 m, `trials`
/// repetitions each (20 in the paper), node facing the AP at a small
/// random azimuth per trial.
pub fn fig12a_ranging(trials: usize, seed: u64) -> Vec<RangingRow> {
    let distances: Vec<f64> = (1..=8).map(f64::from).collect();
    let draw = |rng: &mut StdRng| deg_to_rad(rng.gen_range(-10.0..10.0));
    let results = monte_carlo(&distances, trials, seed, draw, |&d, trial_seed, &phi| {
        let pose = Pose::facing_ap(d, phi, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, trial_seed);
        net.localize().map(|fix| (fix.range - d).abs())
    });
    results
        .iter()
        .zip(distances)
        .map(|(group, d)| {
            let errs: Vec<f64> = group.iter().flatten().copied().collect();
            RangingRow {
                distance_m: d,
                mean_cm: stats::mean(&errs) * 100.0,
                p90_cm: stats::percentile(&errs, 90.0) * 100.0,
                n: errs.len(),
            }
        })
        .collect()
}

/// Summary statistics of the Fig. 12b angle-error CDF.
#[derive(Debug, Clone)]
pub struct AngleCdf {
    /// `(error_deg, P(X ≤ error))` points.
    pub cdf: Vec<(f64, f64)>,
    /// Median |angle error|, degrees.
    pub median_deg: f64,
    /// 90th-percentile |angle error|, degrees.
    pub p90_deg: f64,
}

/// Runs the Fig. 12b angle experiment: trials pooled across distances and
/// azimuths, as the paper pools its CDF.
pub fn fig12b_angle_cdf(trials_per_point: usize, seed: u64) -> AngleCdf {
    let distances = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    let draw = |rng: &mut StdRng| deg_to_rad(rng.gen_range(-20.0..20.0));
    let trial = |&d: &f64, trial_seed: u64, &phi: &f64| {
        let pose = Pose::facing_ap(d, phi, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, trial_seed);
        net.localize()
            .and_then(|fix| fix.angle)
            .map(|a| rad_to_deg(a - phi).abs())
    };
    let errs_deg: Vec<f64> = monte_carlo(&distances, trials_per_point, seed, draw, trial)
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    AngleCdf {
        cdf: stats::empirical_cdf(&errs_deg),
        median_deg: stats::median(&errs_deg),
        p90_deg: stats::percentile(&errs_deg, 90.0),
    }
}

// ---------------------------------------------------------------------
// Figure 13 — orientation sensing
// ---------------------------------------------------------------------

/// One orientation point of Fig. 13a/13b.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrientationRow {
    /// True node orientation (incidence angle), degrees.
    pub orientation_deg: f64,
    /// Mean |error|, degrees.
    pub mean_err_deg: f64,
    /// Variance of the signed error, degrees².
    pub variance_deg2: f64,
    /// Successful trials.
    pub n: usize,
}

fn orientation_sweep(
    orientations_deg: &[f64],
    trials: usize,
    seed: u64,
    at_node: bool,
) -> Vec<OrientationRow> {
    let draw = |rng: &mut StdRng| rng.gen_range(0.0..0.006);
    let trial = |&odeg: &f64, trial_seed: u64, &depth_offset: &f64| {
        // The node is rotated by ψ = −orientation so its incidence angle
        // equals `odeg`.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(-odeg));
        let mut net = Network::new(pose, Fidelity::Fast, trial_seed);
        // Each trial re-mounts the node: the mirror's effective depth
        // (hence its carrier phase) changes by millimetres.
        if let Some(m) = net.scene.mirror.as_mut() {
            m.depth_offset = depth_offset;
        }
        let est = if at_node {
            net.sense_orientation_at_node()
        } else {
            net.sense_orientation_at_ap()
        };
        est.map(|e| rad_to_deg(e) - odeg)
    };
    let results = monte_carlo(orientations_deg, trials, seed, draw, trial);
    results
        .iter()
        .zip(orientations_deg)
        .map(|(group, &odeg)| {
            let errs: Vec<f64> = group.iter().flatten().copied().collect();
            OrientationRow {
                orientation_deg: odeg,
                mean_err_deg: stats::mean_abs(&errs),
                variance_deg2: stats::variance(&errs),
                n: errs.len(),
            }
        })
        .collect()
}

/// Fig. 13a: orientation sensing at the node, sweep of orientations at
/// 2 m, `trials` repetitions (25 in the paper).
pub fn fig13a_node_orientation(trials: usize, seed: u64) -> Vec<OrientationRow> {
    let orientations: Vec<f64> = (-5..=5).map(|k| k as f64 * 4.0).collect();
    orientation_sweep(&orientations, trials, seed, true)
}

/// Fig. 13b: orientation sensing at the AP — a finer sweep around the
/// −6°…−2° mirror-collision region.
pub fn fig13b_ap_orientation(trials: usize, seed: u64) -> Vec<OrientationRow> {
    let orientations: Vec<f64> = (-6..=6).map(|k| k as f64 * 2.0).collect();
    orientation_sweep(&orientations, trials, seed, false)
}

// ---------------------------------------------------------------------
// Figures 14/15 — communication
// ---------------------------------------------------------------------

/// One distance point of a link-performance curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRow {
    /// Node distance, m.
    pub distance_m: f64,
    /// Measured SNR or SINR, dB.
    pub snr_db: f64,
    /// Analytic OOK bit-error rate at that SNR.
    pub ber: f64,
    /// Bit errors actually observed in the transferred frame.
    pub measured_bit_errors: usize,
    /// Frame bits transferred.
    pub total_bits: usize,
}

/// Fig. 14: downlink SINR vs distance (1–12 m).
pub fn fig14_downlink(seed: u64) -> Vec<LinkRow> {
    let distances: Vec<f64> = (1..=12).map(|d| d as f64).collect();
    batch::par_map(&distances, |&d, _| {
        let pose = Pose::facing_ap(d, 0.0, deg_to_rad(COMM_ORIENTATION_DEG));
        let mut net = Network::new(pose, Fidelity::Fast, seed + d as u64);
        let payload: Vec<u8> = (0u8..16)
            .map(|i| i.wrapping_mul(37).wrapping_add(d as u8))
            .collect();
        net.downlink(&payload, 1e6, true).map(|report| LinkRow {
            distance_m: d,
            snr_db: ratio_to_db(report.sinr),
            // BER follows the post-integration decision SNR, which is
            // why the paper quotes BER < 1e-8 at 12 dB detector SINR.
            ber: ook_ber(report.decision_snr),
            measured_bit_errors: report.bit_errors,
            total_bits: report.total_bits,
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fig. 15: uplink SNR vs distance at `bit_rate` bits/s (10 Mbps for
/// 15a, 40 Mbps for 15b; OAQFM carries 2 bits/symbol).
pub fn fig15_uplink(bit_rate: f64, max_distance_m: usize, seed: u64) -> Vec<LinkRow> {
    let symbol_rate = bit_rate / 2.0;
    let distances: Vec<f64> = (1..=max_distance_m).map(|d| d as f64).collect();
    batch::par_map(&distances, |&d, _| {
        let pose = Pose::facing_ap(d, 0.0, deg_to_rad(COMM_ORIENTATION_DEG));
        let mut net = Network::new(pose, Fidelity::Fast, seed + d as u64);
        let payload: Vec<u8> = (0..16).map(|i| i * 73 + d as u8).collect();
        net.uplink(&payload, symbol_rate, true)
            .map(|report| LinkRow {
                distance_m: d,
                snr_db: ratio_to_db(report.snr),
                ber: ook_ber(report.snr),
                measured_bit_errors: report.bit_errors,
                total_bits: report.total_bits,
            })
    })
    .into_iter()
    .flatten()
    .collect()
}

// ---------------------------------------------------------------------
// §9.6 — power
// ---------------------------------------------------------------------

/// §9.6 power-consumption row.
#[derive(Debug, Clone, Copy)]
pub struct PowerRow {
    /// Mode label.
    pub mode: &'static str,
    /// Node power, mW (MCU excluded, as the paper reports).
    pub power_mw: f64,
    /// Data rate the efficiency is computed at, Mbps.
    pub rate_mbps: Option<f64>,
    /// Energy per bit, nJ.
    pub nj_per_bit: Option<f64>,
}

/// Regenerates the §9.6 power table.
pub fn power_table() -> Vec<PowerRow> {
    use milback_hw::power::{NodeMode, PowerModel};
    let m = PowerModel::milback();
    vec![
        PowerRow {
            mode: "Localization",
            power_mw: m.power_mw(NodeMode::Localization),
            rate_mbps: None,
            nj_per_bit: None,
        },
        PowerRow {
            mode: "Downlink (36 Mbps)",
            power_mw: m.power_mw(NodeMode::Downlink),
            rate_mbps: Some(36.0),
            nj_per_bit: Some(m.energy_per_bit_nj(NodeMode::Downlink, 36e6)),
        },
        PowerRow {
            mode: "Uplink (40 Mbps)",
            power_mw: m.power_mw(NodeMode::Uplink { bit_rate: 40e6 }),
            rate_mbps: Some(40.0),
            nj_per_bit: Some(m.energy_per_bit_nj(NodeMode::Uplink { bit_rate: 40e6 }, 40e6)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monte_carlo_groups_match_a_serial_loop() {
        let points = [10u64, 20];
        let draw = |rng: &mut StdRng| rng.gen_range(0.0..1.0) + f64::from(rng.gen::<u32>());
        let run = |&p: &u64, trial_seed: u64, &x: &f64| (p, trial_seed, x.to_bits());
        let groups = monte_carlo(&points, 3, 41, draw, run);

        let mut master = StdRng::seed_from_u64(41);
        let mut serial = Vec::new();
        for p in &points {
            let mut group = Vec::new();
            for _ in 0..3 {
                let trial_seed: u64 = master.gen();
                let x = draw(&mut master);
                group.push(run(p, trial_seed, &x));
            }
            serial.push(group);
        }
        assert_eq!(groups, serial);
        assert_eq!(groups[0].len(), 3);
        assert_ne!(groups[0][0].1, groups[1][0].1);
    }

    #[test]
    fn fig10_has_both_ports_and_high_gain() {
        let rows = fig10_fsa_pattern();
        assert_eq!(rows.len(), 2 * 7 * 81);
        let max_gain = rows.iter().map(|r| r.gain_dbi).fold(f64::MIN, f64::max);
        assert!(max_gain > 10.0 && max_gain < 15.0, "{max_gain}");
    }

    #[test]
    fn fsa_summary_matches_section_9_1() {
        let s = fsa_summary();
        assert!(s.min_peak_gain_dbi > 10.0, "{}", s.min_peak_gain_dbi);
        assert!(s.coverage_deg >= 59.9, "{}", s.coverage_deg);
    }

    #[test]
    fn fig11_traces_separate_symbols() {
        let t = fig11_oaqfm_micro(3);
        assert_eq!(t.time_us.len(), t.port_a_mv.len());
        // During symbol 10 (2–3 µs) port A is high, port B low.
        let in_window = |ts: &[f64], vs: &[f64], lo: f64, hi: f64| -> f64 {
            let sel: Vec<f64> = ts
                .iter()
                .zip(vs)
                .filter(|(t, _)| **t > lo && **t < hi)
                .map(|(_, v)| *v)
                .collect();
            stats::mean(&sel)
        };
        let a10 = in_window(&t.time_us, &t.port_a_mv, 2.4, 2.9);
        let b10 = in_window(&t.time_us, &t.port_b_mv, 2.4, 2.9);
        assert!(a10 > 3.0 * b10.max(0.1), "a {a10} b {b10}");
        // During symbol 01 (1–2 µs) port B is high, port A low.
        let a01 = in_window(&t.time_us, &t.port_a_mv, 1.4, 1.9);
        let b01 = in_window(&t.time_us, &t.port_b_mv, 1.4, 1.9);
        assert!(b01 > 3.0 * a01.max(0.1), "a {a01} b {b01}");
    }

    #[test]
    fn power_table_matches_paper() {
        let rows = power_table();
        assert!((rows[0].power_mw - 18.0).abs() < 0.5);
        assert!((rows[1].nj_per_bit.unwrap() - 0.5).abs() < 0.05);
        assert!((rows[2].power_mw - 32.0).abs() < 1.0);
        assert!((rows[2].nj_per_bit.unwrap() - 0.8).abs() < 0.05);
    }

    // The statistical sweeps are exercised with tiny trial counts here so
    // the test suite stays fast; the bench binaries run the full counts.
    #[test]
    fn fig12a_small_run_shapes() {
        let rows = fig12a_ranging(2, 77);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.n > 0, "no fixes at {} m", r.distance_m);
            assert!(r.mean_cm < 20.0, "{} cm at {} m", r.mean_cm, r.distance_m);
        }
    }

    #[test]
    fn fig14_small_run_declines() {
        let rows = fig14_downlink(5);
        assert!(rows.len() >= 10);
        assert!(rows[0].snr_db > rows[rows.len() - 1].snr_db);
        // ≥12 dB at 10 m (§9.4 claim).
        let at10 = rows.iter().find(|r| r.distance_m == 10.0).unwrap();
        assert!(at10.snr_db > 12.0, "SINR {} dB at 10 m", at10.snr_db);
    }
}
