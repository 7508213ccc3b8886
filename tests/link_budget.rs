//! Link-budget oracles. Bit pins cannot judge a render whose bits move
//! on purpose; these tests judge it against physics:
//!
//! * Field 2: the rendered monostatic return of a tone must carry the
//!   power the closed-form two-way budget (`Scene::tone_backscatter_gain`,
//!   the radar/Friis forms of `milback_rf::propagation`) predicts;
//! * the uplink's measured SNR must track `survey::analytic_uplink_snr`
//!   across range and facing;
//! * the downlink's slicer-measured decision SNR must match the analytic
//!   one the link reports from the detector model;
//! * Field 1 must carry the node's mode decision and its own orientation
//!   sense across the range the link reaches (ROADMAP item 13): a
//!   detector input off the detector law (`slope·√(P·R)`) starves both
//!   beyond a few metres.

use milback_dsp::chirp::ChirpConfig;
use milback_dsp::noise::ratio_to_db;
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use milback_rf::channel::{NodeInterface, Scene, TxComponent};
use milback_rf::fsa::{DualPortFsa, Port};
use milback_rf::geometry::{deg_to_rad, Point, Pose};
use milback_rf::{wave_fingerprint, ChannelWorkspace};

/// Mean power of `rx` past the delay's zero-filled head.
fn mean_power(rx: &Signal) -> f64 {
    let tail = &rx.samples[200..];
    tail.iter().map(|c| c.norm_sq()).sum::<f64>() / tail.len() as f64
}

/// A unit tone at port A's aligned frequency, reflected by port A alone
/// (|Γ_A| = 1, port B absorbing), rendered through the cached Field-2
/// path and through the one-shot reference at both RX antennas, with the
/// AP's horns steered 0°, 10°, 20° and 35° off the node: on boresight,
/// down the Gaussian main lobe and onto the −25 dB side-lobe floor. One
/// workspace serves every steer, so a table reused across steers must
/// take the current horn gain. No mirror and no clutter: the node's
/// antenna-mode return is the whole capture.
#[test]
fn field2_tone_power_matches_the_two_way_budget_across_steers() {
    let fsa = DualPortFsa::milback();
    let pose = Pose::facing_ap(3.0, deg_to_rad(6.0), deg_to_rad(9.0));
    let inc = pose.incidence_from(&Point::origin());
    let f = fsa
        .frequency_for_angle(Port::A, inc)
        .expect("aligned frequency");
    let signal = Signal::tone(1e8, f, 0.0, 1.0, 4000);
    // A tone is the zero-span sweep.
    let sweep = ChirpConfig {
        f_start: f,
        f_stop: f,
        duration: signal.duration(),
        fs: signal.fs,
        amplitude: 1.0,
    };
    let comp = TxComponent { signal, sweep };
    let wave_fp = wave_fingerprint(&comp);
    let node = NodeInterface {
        pose,
        fsa: &fsa,
        gamma: [Cpx::new(-1.0, 0.0), Cpx::new(0.0, 0.0)],
    };
    let nodes = std::slice::from_ref(&node);

    let mut ws = ChannelWorkspace::new();
    let mut scene = Scene::free_space();
    assert!(scene.mirror.is_none() && scene.clutter.is_empty());
    let bearing = scene.tx_pos.bearing_to(&pose.position);
    for offset_deg in [0.0, 10.0, 20.0, 35.0] {
        scene.steer = bearing + deg_to_rad(offset_deg);
        for rx_idx in 0..2 {
            let budget = scene.tone_backscatter_gain(&pose, &fsa, Port::A, f, rx_idx);
            let mut cached = Signal::zeros(comp.signal.fs, f, 0);
            scene.monostatic_rx_multi_into(&mut ws, &comp, wave_fp, nodes, rx_idx, &mut cached);
            let one_shot = scene.monostatic_rx_multi_uncached(&comp, nodes, rx_idx);
            for (path, rx) in [("cached", &cached), ("one-shot", &one_shot)] {
                let err_db = ratio_to_db(mean_power(rx) / budget);
                assert!(
                    err_db.abs() <= 0.1,
                    "{path} render, steer {offset_deg}° off, rx{rx_idx}: {err_db:+.3} dB \
                     off the budget ({:.2} dB)",
                    ratio_to_db(budget)
                );
            }
        }
    }
}

/// What a noise-limited uplink branch measures over the analytic SNR:
/// `analytic_uplink_snr` is the half swing squared over the noise in the
/// symbol bandwidth, while the receiver averages 5 of each symbol's 8
/// branch samples and `level_snr` takes the full swing over the summed
/// on/off cluster variances, which reads 4·5/8 = 2.5× (3.98 dB) more.
const NOISE_LIMITED_GAIN: f64 = 2.5;

/// Half-width of the uplink oracle's band, dB: the scatter of a
/// variance estimated from ~290 symbols plus the mirror's coupling.
const UPLINK_BAND_DB: f64 = 2.0;

/// Uplink oracle (ROADMAP item 3): `Network::uplink`'s measured SNR at
/// 5 Msym/s tracks `survey::analytic_uplink_snr` across range and
/// facing. The analytic budget is noise-limited; close in, each branch
/// also hears the other port's keyed return through its side lobes, so
/// the measured SNR may fall to the combination of the noise-limited
/// value and that cross-port ceiling (`2·G_own/G_cross` at the worst
/// phase, from the narrowband `Scene::tone_backscatter_gain`), and no
/// lower. A wrong noise figure, a wrong FSA gain in the render or a
/// noise bandwidth that is not the branch's shifts the noise-limited
/// points out of the band.
#[test]
fn uplink_snr_tracks_the_analytic_budget() {
    use milback::survey::analytic_uplink_snr;
    use milback::{Fidelity, Network};
    use milback_ap::tone_select::ToneSelection;
    for d in [1.0, 2.0, 4.0, 6.0, 8.0] {
        for facing in [-15.0, -8.0, 8.0, 15.0] {
            let pose = Pose::facing_ap(d, 0.0, deg_to_rad(facing));
            let mut net = Network::new(pose, Fidelity::Fast, 0x11B0 + d as u64);
            let analytic =
                analytic_uplink_snr(&net.scene, &net.node, &net.ap, &pose, 10e6).expect("in scan");
            let report = net.uplink(&[0x5A; 32], 5e6, true).expect("no uplink");
            let ToneSelection::Dual { f_a, f_b } = report.tones else {
                panic!("{d} m, {facing}°: single-tone plan");
            };
            let mut scene = net.scene.clone();
            scene.steer_towards(&pose.position);
            let gain = |port, f, rx| scene.tone_backscatter_gain(&pose, &net.node.fsa, port, f, rx);
            let ceiling = [(Port::A, Port::B, f_a, 0), (Port::B, Port::A, f_b, 1)]
                .map(|(own, cross, f, rx)| 2.0 * gain(own, f, rx) / gain(cross, f, rx))
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            let high = NOISE_LIMITED_GAIN * analytic;
            let low = 1.0 / (1.0 / high + 1.0 / ceiling);
            let got = ratio_to_db(report.snr);
            let (low, high) = (ratio_to_db(low), ratio_to_db(high));
            assert!(
                got >= low - UPLINK_BAND_DB && got <= high + UPLINK_BAND_DB,
                "{d} m, {facing}°: measured {got:.2} dB outside {low:.2}..{high:.2} dB \
                 ± {UPLINK_BAND_DB} dB (analytic {:.2} dB)",
                ratio_to_db(analytic)
            );
        }
    }
}

/// Half-width of the downlink oracle's band, dB: the scatter of a
/// variance estimated from ~150 (dual-tone) or ~290 (OOK) symbols.
const DOWNLINK_BAND_DB: f64 = 1.5;

/// Downlink oracle: the decision SNR the node's slicer measures from its
/// level clusters (`DownlinkReport::measured_snr`) matches the analytic
/// decision SNR the link reports from the known components
/// (`DownlinkReport::decision_snr`: detector law, cross-port leak and
/// the detector noise integrated over the slicer's window), for
/// dual-tone plans and for the OOK fallback at normal incidence. A
/// detector video whose law or noise density departs from the model
/// fails it.
#[test]
fn downlink_decision_snr_matches_the_analytic_budget() {
    use milback::{Fidelity, Network};
    use milback_ap::tone_select::ToneSelection;
    for d in [1.0, 2.0, 4.0, 8.0] {
        for (facing, dual) in [(0.0, false), (-8.0, true), (12.0, true)] {
            let pose = Pose::facing_ap(d, 0.0, deg_to_rad(facing));
            let mut net = Network::new(pose, Fidelity::Fast, 0xD0 + d as u64);
            let r = net.downlink(&[0x5A; 32], 1e6, true).expect("no downlink");
            assert_eq!(matches!(r.tones, ToneSelection::Dual { .. }), dual);
            let (got, want) = (ratio_to_db(r.measured_snr), ratio_to_db(r.decision_snr));
            assert!(
                (got - want).abs() <= DOWNLINK_BAND_DB,
                "{d} m, {facing}°: measured {got:.2} dB vs analytic {want:.2} dB"
            );
        }
    }
}

/// The Field-1 oracle grid: range × azimuth × rotation off facing the
/// AP, plus the quickstart example's pose (3 m, azimuth 8°, rotated 12°,
/// so its orientation is −12°).
fn field1_grid() -> Vec<Pose> {
    let mut poses = Vec::new();
    for d in [2.0, 3.0, 5.0, 8.0] {
        for azimuth in [0.0, -8.0, 8.0] {
            for rotation in [0.0, -8.0, 8.0, -16.0, 16.0] {
                poses.push(Pose::facing_ap(
                    d,
                    deg_to_rad(azimuth),
                    deg_to_rad(rotation),
                ));
            }
        }
    }
    poses.push(Pose::facing_ap(3.0, deg_to_rad(8.0), deg_to_rad(12.0)));
    poses
}

/// Trials per grid pose, each on its own network seed.
const FIELD1_SEEDS: u64 = 2;

/// Every Field-1 trial: a network in the paper's indoor scene with the
/// node at a grid pose, seeded for the trial.
fn field1_trials() -> impl Iterator<Item = milback::Network> {
    field1_grid().into_iter().enumerate().flat_map(|(k, pose)| {
        (0..FIELD1_SEEDS).map(move |s| {
            let seed = 0xF1E1_0000 + 16 * k as u64 + s;
            milback::Network::new(pose, milback::Fidelity::Fast, seed)
        })
    })
}

/// Field-1 mode oracle: the node decodes both link modes from the chirp
/// count in every trial of the grid, out to 8 m.
#[test]
fn field1_mode_detection_holds_out_to_8_m() {
    use milback_proto::packet::LinkMode;
    let mut misses = Vec::new();
    let mut trials = 0;
    for mut net in field1_trials() {
        for mode in [LinkMode::Uplink, LinkMode::Downlink] {
            trials += 1;
            let got = net.signal_mode(mode);
            if got != Some(mode) {
                misses.push(format!(
                    "{:.0} m, orientation {:.0}°: {mode:?} read as {got:?}",
                    net.true_range(),
                    milback_rf::geometry::rad_to_deg(net.true_orientation())
                ));
            }
        }
    }
    assert!(
        misses.is_empty(),
        "{} of {trials} mode decisions wrong:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

/// Largest node-side orientation error that is not a gross miss, deg.
const NODE_MISS_DEG: f64 = 4.0;

/// Field-1 orientation oracle: the node's own orientation sense misses
/// by more than [`NODE_MISS_DEG`], or gives nothing, in at most 1% of the
/// grid's trials.
#[test]
fn node_orientation_gross_misses_stay_under_1_percent() {
    use milback_rf::geometry::rad_to_deg;
    let mut misses = Vec::new();
    let mut trials = 0;
    for mut net in field1_trials() {
        trials += 1;
        let truth = rad_to_deg(net.true_orientation());
        let got = net.sense_orientation_at_node().map(rad_to_deg);
        if got.is_none_or(|g| (g - truth).abs() > NODE_MISS_DEG) {
            misses.push(format!(
                "{:.0} m, azimuth {:.0}°, orientation {truth:.0}°: read {got:?}",
                net.true_range(),
                rad_to_deg(net.true_angle())
            ));
        }
    }
    assert!(
        misses.len() * 100 <= trials,
        "{} of {trials} node orientation senses missed by more than {NODE_MISS_DEG}°:\n{}",
        misses.len(),
        misses.join("\n")
    );
}
