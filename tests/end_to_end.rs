//! End-to-end integration: the complete MilBack system — localization,
//! orientation sensing at both ends, downlink and uplink — running through
//! the cluttered indoor channel.

use milback::{Fidelity, Network, Session, SessionConfig};
use milback_proto::arq::parse_header;
use milback_proto::packet::{LinkMode, Packet};
use milback_rf::geometry::{deg_to_rad, rad_to_deg, Pose};

#[test]
fn complete_session_at_3m() {
    let pose = Pose::facing_ap(3.0, deg_to_rad(5.0), deg_to_rad(12.0));
    let mut net = Network::new(pose, Fidelity::Fast, 1000);

    // Localization lands within 10 cm in this regime. The angle estimate
    // is unbiased but a single trial carries σ ≈ 1.3° of phase noise at
    // 3 m (the paper pools trials before quoting ~1° median error), so a
    // lone seed must be allowed ~2.5σ: 3.5°.
    let fix = net.localize().expect("localization failed");
    assert!((fix.range - 3.0).abs() < 0.10, "range {}", fix.range);
    let angle = fix.angle.expect("no angle estimate");
    assert!(
        (rad_to_deg(angle) - 5.0).abs() < 3.5,
        "angle {}",
        rad_to_deg(angle)
    );

    // Orientation within 3° at both ends (paper §9.3 regime).
    let true_inc = net.true_orientation();
    let ap_est = net
        .sense_orientation_at_ap()
        .expect("AP orientation failed");
    assert!(rad_to_deg(ap_est - true_inc).abs() < 3.0);
    let node_est = net
        .sense_orientation_at_node()
        .expect("node orientation failed");
    assert!(rad_to_deg(node_est - true_inc).abs() < 3.0);

    // Error-free two-way data at this distance.
    let dl = net
        .downlink(b"downlink payload!", 1e6, false)
        .expect("no downlink");
    assert_eq!(dl.bit_errors, 0);
    assert_eq!(dl.payload.as_deref().unwrap(), b"downlink payload!");
    let ul = net
        .uplink(b"uplink payload!!!", 5e6, false)
        .expect("no uplink");
    assert_eq!(ul.bit_errors, 0);
    assert_eq!(ul.payload.as_deref().unwrap(), b"uplink payload!!!");
}

/// One-shot exchange: a session with no retry budget at either stage.
fn one_shot(symbol_rate: f64) -> Session {
    Session::new(SessionConfig {
        mode_attempts: 1,
        payload_attempts: 1,
        symbol_rate,
        ..SessionConfig::milback()
    })
}

#[test]
fn full_packet_round_trip_both_modes() {
    let pose = Pose::facing_ap(2.5, 0.0, deg_to_rad(-10.0));
    let mut net = Network::new(pose, Fidelity::Fast, 1001);

    let down = Packet::downlink((0u8..32).collect());
    let out = one_shot(1e6)
        .run(&mut net, &down)
        .expect("downlink exchange failed");
    assert_eq!(out.mode, LinkMode::Downlink);
    assert!(out.fix.is_some(), "no localization in packet");
    assert_eq!(
        out.downlink
            .expect("downlink skipped")
            .payload
            .as_deref()
            .unwrap(),
        &(0u8..32).collect::<Vec<u8>>()[..]
    );

    let up = Packet::uplink((100u8..132).collect());
    let out = one_shot(5e6)
        .run(&mut net, &up)
        .expect("uplink exchange failed");
    assert_eq!(out.mode, LinkMode::Uplink);
    let frame = out.uplink.expect("uplink skipped").payload.unwrap();
    // The uplink frame carries the session's ARQ header.
    assert_eq!(
        parse_header(&frame).map(|(_, p)| p),
        Some(&(100u8..132).collect::<Vec<u8>>()[..])
    );
}

/// Seeds per distance for the Fig. 12a check, fixed before any run:
/// `5000..5048` at every distance.
const FIG12A_SEEDS: std::ops::Range<u64> = 5000..5048;

#[test]
fn localization_works_at_every_paper_distance() {
    // Fig. 12a at 1–8 m, judged over many seeds rather than one: a
    // single noise draw at 8 m misses about 1.5% of the time, so a
    // one-seed assert pins the noise bits, not the ranging.
    //
    // Per distance: a fix on every seed at 1–7 m and on ≥90% at 8 m;
    // every fix within the 0.25 m band; median error ≤5 cm out to 5 m
    // and ≤12 cm at 8 m (the DESIGN.md §4 targets).
    let cases: Vec<(u32, u64)> = (1..=8)
        .flat_map(|d| FIG12A_SEEDS.map(move |seed| (d, seed)))
        .collect();
    let errors = milback::batch::par_map(&cases, |&(d, seed), _| {
        let mut net = Network::new(Pose::facing_ap(d as f64, 0.0, 0.0), Fidelity::Fast, seed);
        net.localize().map(|fix| (fix.range - d as f64).abs())
    });
    for d in 1..=8u32 {
        let at_d: Vec<(u64, Option<f64>)> = cases
            .iter()
            .zip(&errors)
            .filter(|((dd, _), _)| *dd == d)
            .map(|((_, seed), e)| (*seed, *e))
            .collect();
        let mut fixes: Vec<f64> = at_d.iter().filter_map(|(_, e)| *e).collect();
        let misses: Vec<u64> = at_d
            .iter()
            .filter(|(_, e)| e.is_none())
            .map(|(s, _)| *s)
            .collect();
        let min_fixes = if d < 8 {
            at_d.len()
        } else {
            (at_d.len() * 9).div_ceil(10)
        };
        assert!(
            fixes.len() >= min_fixes,
            "{} of {} fixes at {d} m (no fix at seeds {misses:?})",
            fixes.len(),
            at_d.len()
        );
        for ((seed, e), _) in at_d.iter().zip(0..) {
            if let Some(e) = e {
                assert!(*e < 0.25, "range error {e} m at {d} m, seed {seed}");
            }
        }
        fixes.sort_by(f64::total_cmp);
        let median = fixes[fixes.len() / 2];
        let bound = match d {
            1..=5 => 0.05,
            8 => 0.12,
            _ => 0.25,
        };
        assert!(median <= bound, "median range error {median} m at {d} m");
    }
}

#[test]
fn uplink_outranges_40mbps_with_10mbps() {
    // Fig 15 shape: at 8 m the 10 Mbps link is comfortably better than
    // the 40 Mbps link.
    let pose = Pose::facing_ap(8.0, 0.0, deg_to_rad(15.0));
    let mut net = Network::new(pose, Fidelity::Fast, 1003);
    let slow = net.uplink(&[0x55; 16], 5e6, true).expect("no uplink");
    let mut net = Network::new(pose, Fidelity::Fast, 1003);
    let fast = net.uplink(&[0x55; 16], 20e6, true).expect("no uplink");
    assert!(
        slow.snr > 2.0 * fast.snr,
        "10 Mbps SNR {} vs 40 Mbps {}",
        slow.snr,
        fast.snr
    );
}

#[test]
fn deterministic_runs() {
    let pose = Pose::facing_ap(3.0, 0.0, deg_to_rad(8.0));
    let run = || {
        let mut net = Network::new(pose, Fidelity::Fast, 12345);
        let fix = net.localize();
        let ul = net
            .uplink(&[9, 9, 9], 5e6, true)
            .map(|r| (r.bit_errors, r.snr.to_bits()));
        (fix, ul)
    };
    assert_eq!(run(), run());
}

#[test]
fn batch_engine_parallel_matches_serial() {
    // The batch engine must produce bit-identical results regardless of
    // worker count: trial seeds derive from (master, index) alone, and
    // results land in index-addressed slots. Run a real localization
    // workload serially and at several thread counts and compare.
    let trial = |&seed: &u64, index: usize| {
        let phi = deg_to_rad((index as f64 % 13.0) - 6.0);
        let pose = Pose::facing_ap(2.5 + 0.1 * (index % 4) as f64, phi, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, seed);
        net.localize()
            .map(|fix| (fix.range.to_bits(), fix.angle.map(f64::to_bits)))
    };
    let master = 0xDEC0DE;
    let seeds: Vec<u64> = (0..12)
        .map(|i| milback::batch::derive_seed(master, i))
        .collect();
    let serial = milback::batch::par_map_with_threads(&seeds, 1, trial);
    for threads in [2, 3, 8] {
        let parallel = milback::batch::par_map_with_threads(&seeds, threads, trial);
        assert_eq!(serial, parallel, "diverged at {threads} threads");
    }
    // And the default entry point (machine thread count) agrees too.
    assert_eq!(serial, milback::batch::par_map(&seeds, trial));
}

#[test]
fn energy_accounting_consistent_with_paper() {
    use milback_hw::power::{NodeMode, PowerModel};
    let p = PowerModel::milback();
    assert!((p.power_mw(NodeMode::Downlink) - 18.0).abs() < 0.5);
    assert!((p.power_mw(NodeMode::Uplink { bit_rate: 40e6 }) - 32.0).abs() < 1.0);
    // MilBack strictly dominates mmTag on energy while adding downlink.
    let [mmtag, .., milback] = milback_baseline::table1();
    assert!(milback.uplink_nj_per_bit.unwrap() < mmtag.uplink_nj_per_bit.unwrap());
    assert!(milback.capabilities.downlink);
    assert!(!mmtag.capabilities.downlink);
}
