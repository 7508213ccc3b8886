//! Chaos determinism pins (DESIGN.md §14): fault-injected sweeps are
//! thread-count-invariant down to the bit, and an *empty* fault plan is
//! bitwise indistinguishable from no fault layer at all. The matching
//! telemetry pin (serial and parallel deterministic views byte-identical)
//! lives in `tests/telemetry.rs`, which serializes every registry user.

use milback::chaos::{chaos_sweep, chaos_sweep_with_threads, ChaosPoint};
use milback::serve::roster;
use milback::{
    Fidelity, Network, Outcome, ServeConfig, ServeEngine, TrafficConfig, TrafficSchedule, Workload,
};
use milback_rf::faults::FaultPlan;
use milback_rf::geometry::{deg_to_rad, Pose};

fn points() -> Vec<ChaosPoint> {
    vec![
        ChaosPoint {
            intensity: 0.6,
            range_m: 2.0,
        },
        ChaosPoint {
            intensity: 0.9,
            range_m: 2.5,
        },
    ]
}

/// Serial and 4-thread chaos sweeps agree outcome-for-outcome: the fault
/// plans, retries and fallbacks of every trial depend only on the
/// per-trial derived seed, never on scheduling.
#[test]
fn chaos_sweep_is_thread_count_invariant() {
    let serial = chaos_sweep(&points(), 2, 0xC4A0);
    let parallel = chaos_sweep_with_threads(&points(), 2, 0xC4A0, 4);
    assert_eq!(serial, parallel);
}

/// An empty fault plan is bitwise free: a network carrying
/// `FaultPlan::none()` — or an empty plan with a nonzero seed — renders,
/// localizes and communicates exactly like one whose fault field was
/// never touched. Every fault hook early-returns before consuming any
/// randomness.
#[test]
fn empty_fault_plan_is_bitwise_identical() {
    let pose = Pose::facing_ap(2.5, 0.0, deg_to_rad(10.0));

    let mut plain = Network::new(pose, Fidelity::Fast, 0xFA17);
    let mut with_empty = Network::new(pose, Fidelity::Fast, 0xFA17);
    with_empty.faults = FaultPlan {
        seed: 0xDEAD_BEEF,
        events: Vec::new(),
    };

    // Field-2 captures: the raw rendered signals must match bit for bit.
    let (tx_a, caps_a) = plain.field2_captures(5).expect("the node renders");
    let (tx_b, caps_b) = with_empty.field2_captures(5).expect("the node renders");
    assert_eq!(tx_a, tx_b);
    assert_eq!(caps_a, caps_b);

    // Localization fix, bitwise.
    assert_eq!(plain.localize(), with_empty.localize());

    // A downlink transfer: same bit errors, same payload bytes.
    let dl_a = plain
        .downlink(&[0xA5; 16], 1e6, false)
        .expect("no downlink");
    let dl_b = with_empty
        .downlink(&[0xA5; 16], 1e6, false)
        .expect("no downlink");
    assert_eq!(dl_a.bit_errors, dl_b.bit_errors);
    assert_eq!(dl_a.payload, dl_b.payload);
}

/// Chaos under load (DESIGN.md §15): sampled fault plans on every
/// session *and* a saturated serving pool at once. The engine must
/// degrade gracefully — typed sheds, typed failures, delivered payloads
/// where the ARQ can win — and stay deterministic; overload must never
/// escalate into panics, lost tickets or whole-exchange drops.
#[test]
fn chaos_under_load_degrades_gracefully() {
    let traffic = TrafficConfig {
        nodes: 3,
        sessions: 18,
        rate_hz: 400.0,       // far past the virtual server's capacity
        fault_intensity: 0.7, // and most sessions carry a fault plan
        ..TrafficConfig::milback()
    };
    let serve = ServeConfig {
        shed_depth: 2,
        reject_depth: 8,
        virtual_service_s: 0.050,
        shed_service_s: 0.030,
        ..ServeConfig::milback()
    };
    let schedule = TrafficSchedule::generate(&traffic, 0xC4A0_10AD);
    let poses = roster(traffic.nodes, 0xC4A0_10AD);

    let mut engine = ServeEngine::new(&poses, serve);
    let report = engine.serve_schedule(&schedule, 4);

    // Every request resolved exactly once, whatever the overload and
    // the faults did to it.
    assert_eq!(engine.resolutions().len(), traffic.sessions);
    assert_eq!(
        report.completed + report.failed + report.shed + report.rejected,
        traffic.sessions
    );
    // The overload policy actually engaged...
    assert!(
        report.shed + report.field2_shed + report.rejected > 0,
        "saturation engaged no overload policy"
    );
    // ...and degradation stayed typed and bounded: whole-request drops
    // only ever hit the Localize class, and fault-driven failures are
    // typed errors, not silent losses.
    for r in engine.resolutions() {
        if r.outcome == Outcome::Shed {
            assert_eq!(r.workload, Workload::Localize);
        }
        if r.shed && r.outcome == Outcome::Completed {
            assert!(r.delivered, "shed exchange lost its payload");
        }
    }

    // Determinism survives chaos + overload: a fresh engine at one
    // thread resolves the same schedule identically.
    let mut serial = ServeEngine::new(&poses, serve);
    let serial_report = serial.serve_schedule(&schedule, 1);
    assert_eq!(serial.resolutions(), engine.resolutions());
    assert_eq!(serial_report.outcome_digest, report.outcome_digest);
}
