//! Dense-network fabric pins (DESIGN.md §16): the slotted MAC never
//! double-books a cell's airtime, a single-node fabric is bitwise the
//! plain supervised session, an empty interferer list is bitwise free
//! (and a parked neighbor is not), and a multi-AP round with drift and
//! handoffs is thread-invariant with byte-identical deterministic
//! telemetry views — the same pin `tests/serve.rs` holds for the
//! serving engine.
//!
//! The tests share one global lock: the telemetry registry and enable
//! flag are process-wide, so view captures must not overlap.

use milback::net::{ap_line, net_roster, Fabric, NetConfig, RoundSchedule};
use milback::{derive_seed, Fidelity, Interferer, Network, Session, SessionConfig, SessionCtx};
use milback_node::node::BackscatterNode;
use milback_rf::geometry::{deg_to_rad, Pose};
use milback_telemetry as telemetry;
use proptest::prelude::*;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MAC safety: for any assignment and slot geometry, two slots of
    /// the same cell never overlap (the guard trails each window), and
    /// the round span covers every slot. The schedule is refilled in
    /// place over an earlier round, as the fabric does every round, so
    /// nothing from the previous layout may survive.
    #[test]
    fn slotted_rounds_never_double_book_airtime(
        previous in proptest::collection::vec(0usize..4, 1..48),
        assignment in proptest::collection::vec(0usize..4, 1..48),
        slot_us in 50.0f64..500.0,
        guard_us in 0.0f64..120.0,
    ) {
        let slot_s = slot_us * 1e-6;
        let guard_s = guard_us * 1e-6;
        let mut sched = RoundSchedule::default();
        sched.fill(&previous, 4, slot_s, guard_s);
        sched.fill(&assignment, 4, slot_s, guard_s);
        prop_assert_eq!(sched.slots.len(), assignment.len());
        for cell in 0..4 {
            let mut windows: Vec<(f64, f64)> = sched
                .slots
                .iter()
                .filter(|s| s.cell == cell)
                .map(|s| (s.start_s, s.start_s + s.airtime_s))
                .collect();
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in windows.windows(2) {
                prop_assert!(
                    w[0].1 <= w[1].0 + 1e-12,
                    "cell {} double-booked: {:?} overlaps {:?}",
                    cell, w[0], w[1]
                );
            }
        }
        for (node, s) in sched.slots.iter().enumerate() {
            prop_assert_eq!(s.node, node);
            prop_assert_eq!(s.cell, assignment[node]);
            prop_assert!(s.start_s + s.airtime_s <= sched.round_s + 1e-12);
        }
    }
}

/// Fabric ≡ session: a one-node, one-AP fabric round runs exactly the
/// plain supervised localization session — same seed derivation, same
/// clock, bit-identical fix. The MAC layer adds scheduling, never
/// physics.
#[test]
fn single_node_fabric_matches_plain_session_bitwise() {
    let _guard = serialized();
    let master = 0x51_EC0DE;
    let pose = Pose::facing_ap(2.1, deg_to_rad(-3.0), deg_to_rad(11.0));
    let aps = ap_line(1, 4.0);

    let cfg = NetConfig {
        localize_fraction: 1.0,
        ..NetConfig::milback(Fidelity::Fast)
    };
    let mut fabric = Fabric::new(&aps, &[pose], cfg);
    fabric.reseed(master);
    let report = fabric.run_round(1);
    assert_eq!(report.sessions, 1);
    let outcome = fabric.outcome(0);

    // The plain path: same pose, same derived slot seed, same clock.
    let mut net = Network::new(pose, Fidelity::Fast, 0);
    net.reseed(derive_seed(derive_seed(master, 0), 0));
    net.clock_s = 0.0;
    let mut ctx = SessionCtx::new();
    let summary = Session::new(SessionConfig::milback()).localize_in(&mut ctx, &mut net);

    let expect = summary.fix.map_or(u64::MAX, |f| f.range.to_bits());
    assert_eq!(
        outcome.fix_range_bits, expect,
        "fabric slot diverged from the plain session"
    );
    assert!(outcome.completed);
    assert_eq!(outcome.delivered, summary.fix.is_some());
}

/// Interference costs nothing when absent: an interferer pushed and
/// cleared leaves the capture bit-identical (no RNG draws, no residual
/// arithmetic), while an actually-parked neighbor perturbs the fix.
#[test]
fn empty_interferer_list_is_bitwise_free_and_clutter_is_not() {
    let _guard = serialized();
    let pose = Pose::facing_ap(2.0, deg_to_rad(-4.0), deg_to_rad(10.0));
    let neighbor =
        BackscatterNode::milback(Pose::facing_ap(2.4, deg_to_rad(6.0), deg_to_rad(12.0)));
    let parked = Interferer {
        pose: neighbor.pose,
        fsa: neighbor.fsa,
        gamma: neighbor.parked_gamma(),
    };

    let mut net = Network::new(pose, Fidelity::Fast, 7);
    net.reseed(0xC0FFEE);
    let clean = net.localize().expect("clean fix");

    net.interferers.push(parked);
    net.interferers.clear();
    net.reseed(0xC0FFEE);
    let replay = net.localize().expect("replay fix");
    assert_eq!(
        clean.range.to_bits(),
        replay.range.to_bits(),
        "an empty interferer list changed the capture"
    );
    assert_eq!(clean.peak_power.to_bits(), replay.peak_power.to_bits());

    net.interferers.push(parked);
    net.reseed(0xC0FFEE);
    let cluttered = net.localize().expect("cluttered fix");
    assert_ne!(
        clean.range.to_bits(),
        cluttered.range.to_bits(),
        "a parked neighbor left the capture untouched"
    );
}

/// Parked same-cell neighbours reach the fabric's captures: a round
/// with the default three interferers differs from the same round with
/// `max_interferers: 0`.
#[test]
fn parked_neighbors_change_the_round_vs_zero_neighbors() {
    let _guard = serialized();
    let aps = ap_line(1, 4.0);
    let poses = net_roster(4, &aps, 0x0FF);
    let base = NetConfig::milback(Fidelity::Fast);

    let mut zero = Fabric::new(
        &aps,
        &poses,
        NetConfig {
            max_interferers: 0,
            ..base
        },
    );
    zero.reseed(0xD15AB1E);
    let zero_report = zero.run_round(1);

    let mut on = Fabric::new(&aps, &poses, base);
    on.reseed(0xD15AB1E);
    let on_report = on.run_round(1);
    assert_ne!(
        on_report.digest, zero_report.digest,
        "same-cell neighbors produced no clutter"
    );
    assert!((0..poses.len()).all(|i| zero.outcome(i).interferers == 0));
    assert!((0..poses.len()).all(|i| on.outcome(i).interferers > 0));
}

/// The fabric soak pin: two rounds of a drifting, multi-AP, interfering
/// deployment at 1 and at 4 worker threads produce identical digests,
/// identical per-slot outcomes, identical assignments and handoff
/// counts, and byte-identical deterministic telemetry views.
#[test]
fn rounds_are_thread_invariant_with_identical_telemetry_views() {
    let _guard = serialized();
    let aps = ap_line(2, 4.0);
    let poses = net_roster(10, &aps, 0xFA8);
    let cfg = NetConfig {
        drift_step_m: 0.15,
        ..NetConfig::milback(Fidelity::Fast)
    };

    let was = telemetry::enabled();
    telemetry::set_enabled(true);

    telemetry::reset();
    let mut serial = Fabric::new(&aps, &poses, cfg);
    serial.reseed(0x7E57);
    let s0 = serial.run_round(1);
    let s1 = serial.run_round(1);
    let serial_view = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::reset();
    let mut parallel = Fabric::new(&aps, &poses, cfg);
    parallel.reseed(0x7E57);
    let p0 = parallel.run_round(4);
    let p1 = parallel.run_round(4);
    let parallel_view = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::set_enabled(was);

    for (s, p) in [(s0, p0), (s1, p1)] {
        assert_eq!(s.digest, p.digest, "round digests diverged");
        assert_eq!(s.delivered, p.delivered);
        assert_eq!(s.fixes, p.fixes);
        assert_eq!(s.handoffs, p.handoffs);
        assert_eq!(s.overruns, p.overruns);
        assert_eq!(s.delivered_bits, p.delivered_bits);
        assert_eq!(s.round_airtime_s.to_bits(), p.round_airtime_s.to_bits());
    }
    assert_eq!(serial.assignment(), parallel.assignment());
    assert_eq!(serial.handoffs(), parallel.handoffs());
    for node in 0..poses.len() {
        assert_eq!(
            serial.outcome(node),
            parallel.outcome(node),
            "node {node} outcome diverged across thread counts"
        );
    }
    assert_eq!(
        serial_view, parallel_view,
        "deterministic telemetry views diverged"
    );
    // The soak exercised what it pins: sessions completed and both
    // cells served nodes.
    assert!(s0.completed > 0, "soak completed nothing");
    assert!(serial.assignment().contains(&0));
    assert!(serial.assignment().contains(&1));
}

/// Cross-build pin: two rounds of a drifting 2-AP fabric with
/// 3-neighbour interference must reproduce recorded round digests.
/// Unlike the two-run pins above, this catches a change that shifts
/// both runs alike.
#[test]
fn drifting_two_ap_round_digests_are_pinned() {
    let _guard = serialized();
    let aps = ap_line(2, 4.0);
    let poses = net_roster(10, &aps, 0xFA8);
    let cfg = NetConfig {
        drift_step_m: 0.15,
        max_interferers: 3,
        ..NetConfig::milback(Fidelity::Fast)
    };
    let mut fabric = Fabric::new(&aps, &poses, cfg);
    fabric.reseed(0x7E57);
    let digests = [fabric.run_round(1).digest, fabric.run_round(1).digest];
    assert_eq!(
        digests,
        [0x3f96_a8d9_8eda_2af9, 0x37a2_ba9c_237a_4328],
        "round digests moved: [{:#018x}, {:#018x}]",
        digests[0],
        digests[1]
    );
}

/// Work-ledger pin: at one worker the schedule, and so each pooled
/// context's cache traffic, is deterministic. After a warm-up round of
/// the drifting 2-AP fabric, the next round's ray-table builds and
/// lookups (read from the raw snapshot, `.local` counters included) and
/// its neighbour replays are literals. Ray tables do not key on the
/// steer, so a parked neighbour's tables, built once, serve every slot
/// of its cell in the round; a key that folds the steer again rebuilds
/// them at every slot and fails this pin on any host.
#[test]
fn drifting_round_ray_table_builds_are_pinned() {
    let _guard = serialized();
    let aps = ap_line(2, 4.0);
    let poses = net_roster(10, &aps, 0xFA8);
    let cfg = NetConfig {
        drift_step_m: 0.15,
        max_interferers: 3,
        ..NetConfig::milback(Fidelity::Fast)
    };
    let mut fabric = Fabric::new(&aps, &poses, cfg);
    fabric.reseed(0x7E57);
    fabric.run_round(1);

    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::reset();
    fabric.run_round(1);
    let snapshot = telemetry::snapshot();
    telemetry::set_enabled(was);

    let count = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let ledger = [
        "rf.ray.cache.miss.local",
        "rf.ray.cache.hit.local",
        "net.interference.bursts",
        "net.interference.rays",
    ]
    .map(count);
    assert_eq!(ledger, [24, 136, 10, 60], "round work moved: {ledger:?}");
}
