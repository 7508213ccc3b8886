//! Integration tests for the extension features built on top of the
//! paper's core: dense OAQFM, multi-node SDM, velocity measurement,
//! reliable delivery and coverage planning.

use milback::net::{ap_line, Fabric, NetConfig};
use milback::{Fidelity, Interferer, Network, Session, SessionConfig, Workload};
use milback_proto::dense::DenseConstellation;
use milback_proto::packet::Packet;
use milback_rf::geometry::{deg_to_rad, Pose};

#[test]
fn dense_oaqfm_rate_range_tradeoff() {
    // The §9.4 extension end-to-end: L=4 doubles throughput at short
    // range; classic OAQFM survives farther.
    let near = Pose::facing_ap(2.0, 0.0, deg_to_rad(18.0));
    let mut net = Network::new(near, Fidelity::Fast, 5001);
    let dense = net
        .downlink_dense(&[0x3A; 16], 1e6, DenseConstellation::new(4), true)
        .expect("no dense link");
    assert_eq!(dense.bit_errors, 0);
    assert_eq!(dense.bit_rate, 4e6);

    let mut net = Network::new(near, Fidelity::Fast, 5001);
    let classic = net
        .downlink(&[0x3A; 16], 1e6, true)
        .expect("no classic link");
    assert_eq!(classic.bit_errors, 0);
    // Same symbol rate, double the bits.
    assert_eq!(dense.bit_rate, 2.0 * 1e6 * 2.0);
}

/// SDM with one AP: a single-cell fabric polls both nodes in turn, each
/// slot a full uplink session with the other node parked in the capture.
#[test]
fn multinode_round_localizes_and_delivers_all() {
    let poses = vec![
        Pose::facing_ap(2.0, deg_to_rad(-15.0), deg_to_rad(8.0)),
        Pose::facing_ap(4.0, deg_to_rad(10.0), deg_to_rad(-10.0)),
    ];
    let mut cfg = NetConfig::milback(Fidelity::Fast);
    cfg.localize_fraction = 0.0;
    cfg.uplink_fraction = 1.0;
    let mut fabric = Fabric::new(&ap_line(1, 0.0), &poses, cfg);
    fabric.reseed(5002);
    let round = fabric.run_round(1);
    for (k, truth) in [2.0, 4.0].into_iter().enumerate() {
        let slot = fabric.outcome(k);
        assert_eq!(slot.workload, Workload::Uplink);
        assert_eq!(slot.interferers, 1, "node {k}: neighbor not parked in");
        assert_ne!(slot.fix_range_bits, u64::MAX, "node {k} not localized");
        let range = f64::from_bits(slot.fix_range_bits);
        assert!((range - truth).abs() < 0.3, "node {k} at {range} m");
        assert!(slot.delivered, "node {k} uplink not delivered");
    }
    assert_eq!(round.delivered, 2);
}

#[test]
fn velocity_and_tracking_compose() {
    // Kinematic state: position from localization, velocity from Doppler.
    let pose = Pose::facing_ap(3.0, 0.0, 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, 5003);
    let fix = net.localize().expect("no fix");
    assert!((fix.range - 3.0).abs() < 0.1);
    let vel = net.measure_velocity(1.2, 64).expect("no velocity");
    assert!(vel.moving);
    assert!((vel.velocity - 1.2).abs() < 0.4, "v {}", vel.velocity);
}

#[test]
fn arq_delivers_over_real_channel() {
    let pose = Pose::facing_ap(3.0, 0.0, deg_to_rad(12.0));
    let mut net = Network::new(pose, Fidelity::Fast, 5200);
    let session = Session::new(SessionConfig {
        symbol_rate: 5e6,
        ..SessionConfig::milback()
    });
    let report = session
        .run(&mut net, &Packet::uplink(vec![0xF0; 12]))
        .expect("ARQ gave up at 3 m");
    assert_eq!(
        report.payload_attempts, 1,
        "clean link should deliver first try"
    );
}

#[test]
fn coverage_map_matches_adaptive_rates() {
    // The planning tool's per-cell best rate should agree with what the
    // full simulation actually achieves (within one rate step).
    use milback::survey::analytic_uplink_snr;
    use milback::ApParams;
    use milback_node::node::BackscatterNode;
    use milback_rf::channel::Scene;

    let scene = Scene::milback_indoor();
    let node = BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0));
    let ap = ApParams::milback();
    for d in [2.0, 5.0, 8.0] {
        let pose = Pose::facing_ap(d, 0.0, deg_to_rad(15.0));
        let planned = milback::adaptation::UPLINK_RATES
            .iter()
            .copied()
            .find(|&r| {
                analytic_uplink_snr(&scene, &node, &ap, &pose, r)
                    .map(|s| s >= milback::adaptation::SNR_ACCEPT)
                    .unwrap_or(false)
            });
        // Achieved: the fastest rate whose frame decodes cleanly with the
        // same SNR margin, probed fastest first on one network.
        let mut net = Network::new(pose, Fidelity::Fast, 5400 + d as u64);
        let achieved = milback::adaptation::UPLINK_RATES
            .iter()
            .copied()
            .find(|&r| {
                net.uplink(&[0x11; 8], r / 2.0, true).is_some_and(|u| {
                    u.bit_errors == 0
                        && u.payload.is_ok()
                        && u.snr >= milback::adaptation::SNR_ACCEPT
                })
            });
        // Allow one rate step of disagreement (the plan is analytic).
        match (planned, achieved) {
            (Some(p), Some(a)) => {
                let ratio = if p > a { p / a } else { a / p };
                assert!(ratio <= 2.01, "planned {p}, achieved {a} at {d} m");
            }
            (None, None) => {}
            (p, a) => panic!("plan {p:?} vs achieved {a:?} at {d} m"),
        }
    }
}

/// SDM's limit: two nodes at (nearly) the same azimuth cannot be
/// separated by beam steering — the off-slot node's residual reflections
/// share the beam. The links may still work (the parked node absorbs),
/// but localization must find the *modulating* node, not the parked one.
#[test]
fn sdm_separates_target_from_coazimuth_neighbor() {
    let poses = [
        Pose::facing_ap(2.5, deg_to_rad(2.0), deg_to_rad(8.0)),
        Pose::facing_ap(5.0, deg_to_rad(-2.0), deg_to_rad(-8.0)), // nearly co-azimuth
    ];
    // Localizing each node must return its own range, not the
    // neighbor's: the neighbor is parked absorptive, so background
    // subtraction removes what little it reflects.
    for (k, truth) in [2.5, 5.0].into_iter().enumerate() {
        let mut net = Network::new(poses[k], Fidelity::Fast, 5500 + k as u64);
        net.interferers.push(Interferer {
            pose: poses[1 - k],
            fsa: net.node.fsa,
            gamma: net.node.parked_gamma(),
        });
        let fix = net.localize().unwrap_or_else(|| panic!("node {k} lost"));
        assert!((fix.range - truth).abs() < 0.3, "node {k} at {}", fix.range);
    }
}
