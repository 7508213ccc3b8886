//! Field-2 link-budget oracle: the rendered monostatic return of a tone
//! must carry the power the closed-form two-way budget
//! (`Scene::tone_backscatter_gain`, the radar/Friis forms of
//! `milback_rf::propagation`) predicts. Bit pins cannot judge a render
//! whose bits move on purpose; this test judges it against physics.

use milback_dsp::noise::ratio_to_db;
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use milback_rf::channel::{GammaRun, NodeInterface, Scene, TxComponent};
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
    let comp = TxComponent::tone(Signal::tone(1e8, f, 0.0, 1.0, 4000), f);
    let wave_fp = wave_fingerprint(&comp);
    let gamma = [GammaRun {
        end: comp.signal.len(),
        gamma: [Cpx::new(-1.0, 0.0), Cpx::new(0.0, 0.0)],
    }];
    let node = NodeInterface {
        pose,
        fsa: &fsa,
        gamma: &gamma,
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
