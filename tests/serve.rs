//! Serving-engine pins (DESIGN.md §15): property tests over the
//! work-stealing session pool — exactly-once resolution, per-node FIFO,
//! shed-only-Field-2 — plus the soak determinism pin: the same seeded
//! schedule at 1 and 4 worker threads resolves identically, with
//! byte-identical deterministic telemetry views.
//!
//! The tests share one global lock: the telemetry registry and enable
//! flag are process-wide, so the soak test's view capture must not
//! overlap another test's sessions.

use milback::serve::roster;
use milback::{
    Outcome, Resolution, ServeConfig, ServeEngine, SessionRequest, TrafficConfig, TrafficSchedule,
    Workload,
};
use milback_telemetry as telemetry;
use proptest::prelude::*;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A permissive config: thresholds high enough that light traffic never
/// sheds, so admission outcomes are easy to reason about.
fn permissive() -> ServeConfig {
    ServeConfig {
        shed_depth: 1_000,
        reject_depth: 2_000,
        ..ServeConfig::milback()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Exactly-once: every ticketed request reaches exactly one terminal
    /// state — completed, failed, shed or rejected — never lost, never
    /// duplicated, at any thread count, with or without faults.
    #[test]
    fn every_submission_resolves_exactly_once(
        seed in any::<u64>(),
        rate_hz in 10.0f64..400.0,
        threads in 1usize..5,
        faulty in any::<bool>(),
    ) {
        let _guard = serialized();
        let cfg = TrafficConfig {
            nodes: 3,
            sessions: 12,
            rate_hz,
            fault_intensity: if faulty { 0.5 } else { 0.0 },
            ..TrafficConfig::milback()
        };
        let schedule = TrafficSchedule::generate(&cfg, seed);
        let mut engine = ServeEngine::new(&roster(cfg.nodes, seed), ServeConfig::milback());
        let report = engine.serve_schedule(&schedule, threads);
        prop_assert_eq!(report.submitted, cfg.sessions);
        prop_assert_eq!(engine.resolutions().len(), cfg.sessions);
        for (i, r) in engine.resolutions().iter().enumerate() {
            prop_assert_eq!(r.ticket, i, "ticket order broken");
            prop_assert!(r.resolved(), "ticket {} left pending", i);
        }
        // The terminal states partition the submissions exactly.
        prop_assert_eq!(
            report.completed + report.failed + report.shed + report.rejected,
            cfg.sessions
        );
    }

    /// Per-node FIFO: within a node's lane, executed sessions carry
    /// consecutive sequence numbers in ticket (= submission) order —
    /// stealing moves whole chains, never reorders within one.
    #[test]
    fn per_node_service_order_is_fifo(seed in any::<u64>(), threads in 1usize..5) {
        let _guard = serialized();
        let cfg = TrafficConfig {
            nodes: 3,
            sessions: 12,
            ..TrafficConfig::milback()
        };
        let schedule = TrafficSchedule::generate(&cfg, seed);
        let mut engine = ServeEngine::new(&roster(cfg.nodes, seed), permissive());
        engine.serve_schedule(&schedule, threads);
        for node in 0..cfg.nodes {
            let seqs: Vec<u32> = engine
                .resolutions()
                .iter()
                .filter(|r| r.node == node && r.node_seq != u32::MAX)
                .map(|r| r.node_seq)
                .collect();
            let expect: Vec<u32> = (0..seqs.len() as u32).collect();
            prop_assert_eq!(seqs, expect, "node {} served out of order", node);
        }
    }

    /// Load shedding only ever drops Field-2 work: whole-request drops
    /// are limited to the `Localize` class, and every shed exchange
    /// still delivers its payload — the ARQ stays alive under overload.
    #[test]
    fn shedding_only_drops_field2_never_payload_arq(seed in any::<u64>()) {
        let _guard = serialized();
        let cfg = TrafficConfig {
            nodes: 2,
            sessions: 16,
            rate_hz: 500.0,
            localize_fraction: 0.5,
            ..TrafficConfig::milback()
        };
        // Shed almost immediately, never reject: every exchange runs,
        // most of them shed.
        let serve = ServeConfig {
            shed_depth: 1,
            reject_depth: 1_000,
            virtual_service_s: 0.050,
            shed_service_s: 0.040,
            ..ServeConfig::milback()
        };
        let schedule = TrafficSchedule::generate(&cfg, seed);
        let mut engine = ServeEngine::new(&roster(cfg.nodes, seed), serve);
        let report = engine.serve_schedule(&schedule, 2);
        prop_assert!(report.field2_shed > 0, "saturation produced no shed exchanges");
        prop_assert_eq!(report.rejected, 0);
        for r in engine.resolutions() {
            if r.outcome == Outcome::Shed {
                prop_assert_eq!(
                    r.workload,
                    Workload::Localize,
                    "a payload exchange was dropped whole"
                );
            }
            if r.shed {
                prop_assert!(r.workload != Workload::Localize);
                prop_assert_eq!(r.outcome, Outcome::Completed);
                prop_assert!(r.delivered, "shed exchange lost its payload");
                prop_assert_eq!(r.fix_range_bits, u64::MAX, "shed exchange went on air");
            }
        }
    }

    /// The submission buffer is hard-bounded: `try_submit` hands the
    /// request back at capacity, and a drain makes room again. Nothing
    /// queues beyond `queue_capacity`.
    #[test]
    fn submission_queue_is_bounded(seed in any::<u64>(), cap in 1usize..6) {
        let _guard = serialized();
        let serve = ServeConfig {
            queue_capacity: cap,
            ..permissive()
        };
        let mut engine = ServeEngine::new(&roster(2, seed), serve);
        engine.begin_epoch(seed);
        let req = SessionRequest {
            node: 0,
            arrival_s: 0.0,
            workload: Workload::Localize,
            payload_len: 0,
            intensity: 0.0,
        };
        for _ in 0..cap {
            prop_assert!(engine.try_submit(req).is_ok());
        }
        for _ in 0..3 {
            let back = engine.try_submit(req);
            prop_assert_eq!(back, Err(req), "queue accepted past capacity");
        }
        engine.drain(1);
        prop_assert!(engine.try_submit(req).is_ok(), "drain did not make room");
        engine.drain(1);
        prop_assert_eq!(engine.resolutions().len(), cap + 1);
    }
}

/// The soak pin: a mixed, partly-faulty schedule served at 1 and at 4
/// worker threads produces identical resolution sequences (hence
/// identical multisets), identical outcome digests, and byte-identical
/// deterministic telemetry views.
#[test]
fn soak_is_thread_invariant_with_identical_telemetry_views() {
    let _guard = serialized();
    let cfg = TrafficConfig {
        nodes: 4,
        sessions: 20,
        rate_hz: 80.0,
        fault_intensity: 0.4,
        ..TrafficConfig::milback()
    };
    let schedule = TrafficSchedule::generate(&cfg, 0x50AC);
    let poses = roster(cfg.nodes, 0x50AC);

    let was = telemetry::enabled();
    telemetry::set_enabled(true);

    telemetry::reset();
    let mut serial_engine = ServeEngine::new(&poses, ServeConfig::milback());
    let serial = serial_engine.serve_schedule(&schedule, 1);
    let serial_view = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::reset();
    let mut parallel_engine = ServeEngine::new(&poses, ServeConfig::milback());
    let parallel = parallel_engine.serve_schedule(&schedule, 4);
    let parallel_view = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::set_enabled(was);

    let serial_res: &[Resolution] = serial_engine.resolutions();
    assert_eq!(
        serial_res,
        parallel_engine.resolutions(),
        "resolutions diverged across thread counts"
    );
    assert_eq!(
        serial.outcome_digest, parallel.outcome_digest,
        "outcome digests diverged"
    );
    assert_eq!(serial.submitted, parallel.submitted);
    assert_eq!(serial.completed, parallel.completed);
    assert_eq!(serial.failed, parallel.failed);
    assert_eq!(serial.shed, parallel.shed);
    assert_eq!(serial.rejected, parallel.rejected);
    assert_eq!(serial.max_depth, parallel.max_depth);
    assert_eq!(
        serial_view, parallel_view,
        "deterministic telemetry views diverged"
    );
    // The soak actually exercised the machinery it claims to pin.
    assert!(serial.completed > 0, "soak completed nothing");
}

/// Epoch repeatability on one engine: serving the same schedule twice
/// (fresh epoch each time, pooled buffers reused) resolves identically —
/// pool reuse leaks no state between epochs.
#[test]
fn repeated_epochs_resolve_identically() {
    let _guard = serialized();
    let cfg = TrafficConfig {
        nodes: 3,
        sessions: 10,
        fault_intensity: 0.3,
        ..TrafficConfig::milback()
    };
    let schedule = TrafficSchedule::generate(&cfg, 0xE90C);
    let mut engine = ServeEngine::new(&roster(cfg.nodes, 0xE90C), ServeConfig::milback());
    let first = engine.serve_schedule(&schedule, 2);
    let first_res = engine.resolutions().to_vec();
    let second = engine.serve_schedule(&schedule, 2);
    assert_eq!(first_res, engine.resolutions(), "epochs diverged");
    assert_eq!(first.outcome_digest, second.outcome_digest);
}

/// Cross-build pin: a faulted schedule's outcome digest must equal a
/// recorded literal. The other determinism pins compare two runs of one
/// build, so a change that shifts behaviour the same way in both runs
/// passes them; this one does not. The schedule includes failed sessions, so the
/// failure path is pinned as well as the completed one.
#[test]
fn faulted_schedule_digest_is_pinned() {
    let _guard = serialized();
    let cfg = TrafficConfig {
        nodes: 3,
        sessions: 16,
        rate_hz: 20.0,
        localize_fraction: 0.25,
        fault_intensity: 1.0,
        ..TrafficConfig::milback()
    };
    let schedule = TrafficSchedule::generate(&cfg, 1);
    let mut engine = ServeEngine::new(&roster(cfg.nodes, 1), permissive());
    let report = engine.serve_schedule(&schedule, 1);
    assert!(
        engine
            .resolutions()
            .iter()
            .any(|r| matches!(r.outcome, Outcome::Failed(_))),
        "the pinned schedule no longer exercises the failure path"
    );
    assert_eq!(
        report.outcome_digest, 0x085d_2be4_d2b3_95c9,
        "outcome digest moved: {:#018x}",
        report.outcome_digest
    );
}
