//! The two serving workloads, `localize` and `exchange`: a
//! `ServeEngine` over a small `serve::roster`, driven one request per
//! `try_submit` + `drain` on one worker, each drain timed from outside.
//! Arrivals are jittered-periodic at 20 Hz against the engine's 30 ms
//! virtual service, so the modeled queue never reaches the shed depth.

use crate::replay::{Replayer, Shape};
use crate::report::{self, Report};
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use milback::batch::derive_seed;
use milback::serve::roster;
use milback::session::FailureKind;
use milback::{
    Fidelity, Network, Outcome, Resolution, ServeConfig, ServeEngine, ServeReport, SessionRequest,
    TrafficSchedule, Workload,
};
use milback_telemetry as telemetry;
use std::time::Instant;

/// One serving workload's shape.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Payload exchanges (alternating downlink/uplink) instead of
    /// Field-2-only localization.
    pub exchange: bool,
    /// Roster size.
    pub nodes: usize,
    /// Mean arrival rate, requests/s of simulated time.
    pub rate_hz: f64,
    /// Payload bytes per exchange.
    pub payload_len: usize,
    /// Per-request chaos intensity is uniform in `[0, fault_intensity)`.
    pub fault_intensity: f64,
    /// Drains per second of `--seconds`, sized so one run's drains take
    /// about `--seconds` on a 2-core x86-64 host.
    pub per_second: f64,
    /// Identical timed epochs of the untraced run. Each request's host
    /// time is the fastest of its passes: interference from other
    /// tenants of a shared host only ever adds time, and the passes are
    /// far enough apart to see different host states.
    pub passes: usize,
    /// Leading requests replayed through `serve_schedule` at 1 and 2
    /// workers for the digest checks.
    pub check_prefix: usize,
    /// Distinct engine set-ups `j` whose times `setup_s` is the median of.
    pub setup_reps: usize,
    /// Takes of each set-up in the untraced run, spread over its passes.
    /// Set-up `j`'s time is the fastest of its takes, as a request's is
    /// the fastest of its passes.
    pub setup_takes: usize,
}

/// Localize-only traffic on a clean channel.
pub const LOCALIZE: Spec = Spec {
    name: "localize",
    exchange: false,
    nodes: 4,
    rate_hz: 20.0,
    payload_len: 0,
    fault_intensity: 0.0,
    per_second: 70.0,
    passes: 3,
    check_prefix: 40,
    setup_reps: 4,
    setup_takes: 6,
};

/// 50/50 downlink/uplink 16-byte exchanges under chaos faults.
pub const EXCHANGE: Spec = Spec {
    name: "exchange",
    exchange: true,
    nodes: 4,
    rate_hz: 20.0,
    payload_len: 16,
    fault_intensity: 0.25,
    per_second: 3.5,
    passes: 2,
    check_prefix: 6,
    setup_reps: 2,
    setup_takes: 3,
};

/// The deployment is fixed: `--seed` draws the traffic (node sequence,
/// arrival jitter, fault intensities) and every session's channel and
/// fault randomness over this one roster. Per-node orientation sets the
/// uplink tone plan and with it the transfer's sample count, so a
/// seed-drawn roster would move host time by more than the bounds.
const ROSTER_SEED: u64 = 0x5E55_0001;

/// A fix further than this from the true range fails the sanity check.
pub const FIX_BAND_M: f64 = 0.3;

/// SplitMix64 stream for the benchmark's own input draws.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The measured schedule: `n` requests, arrival `k` at
/// `(k + u/2) / rate` so any window of `m` arrivals spans at least
/// `(m - 1/2) / rate` and the modeled depth stays at most 2. Exchanges
/// alternate, so the mix is 50/50 to within one request.
fn schedule(spec: &Spec, n: usize, seed: u64) -> TrafficSchedule {
    let mut mix = SplitMix(derive_seed(seed, 0x5E55_0002));
    let requests = (0..n)
        .map(|k| SessionRequest {
            node: (mix.next() % spec.nodes as u64) as usize,
            arrival_s: (k as f64 + 0.5 * mix.unit()) / spec.rate_hz,
            workload: class(spec, k),
            payload_len: spec.payload_len,
            intensity: spec.fault_intensity * mix.unit(),
        })
        .collect();
    TrafficSchedule {
        master_seed: derive_seed(seed, 0x5E55_0003),
        requests,
    }
}

/// Exchanges alternate uplink and downlink, uplink first.
fn class(spec: &Spec, k: usize) -> Workload {
    match (spec.exchange, k % 2) {
        (false, _) => Workload::Localize,
        (true, 0) => Workload::Uplink,
        (true, _) => Workload::Downlink,
    }
}

/// Warm-up epoch: one clean request per node (exchange classes
/// alternating by node), filling FFT plans, templates, channel caches
/// and link scratch before anything is timed.
fn warm_schedule(spec: &Spec, seed: u64) -> TrafficSchedule {
    let requests = (0..spec.nodes)
        .map(|k| SessionRequest {
            node: k,
            arrival_s: k as f64 / spec.rate_hz,
            workload: class(spec, k),
            payload_len: spec.payload_len,
            intensity: 0.0,
        })
        .collect();
    TrafficSchedule {
        master_seed: derive_seed(seed, 0x5E55_0004),
        requests,
    }
}

/// The timed epochs: `passes` identical epochs of one schedule.
struct Passes {
    /// Per request, the fastest of its `try_submit` + `drain` times
    /// across the passes, ns.
    min_ns: Vec<u64>,
    /// Executed sessions per second of each pass (host-drift diagnostic).
    pass_rates: Vec<f64>,
    /// Outcome digest of each pass.
    digests: Vec<u64>,
    /// Outcome digest after the first `check_prefix` requests.
    prefix_digest: u64,
    report: ServeReport,
    resolutions: Vec<Resolution>,
}

/// Runs `passes` timed epochs of `sched`, calling `after` with each
/// request's ticket as soon as it resolved (outside its timed region).
fn measured_passes(
    engine: &mut ServeEngine,
    sched: &TrafficSchedule,
    passes: usize,
    prefix: usize,
    mut after: impl FnMut(usize, &ServeEngine),
) -> Passes {
    let n = sched.requests.len();
    let mut min_ns = vec![u64::MAX; n];
    let mut pass_rates = Vec::with_capacity(passes);
    let mut digests = Vec::with_capacity(passes);
    let mut prefix_digest = 0;
    for _ in 0..passes {
        engine.begin_epoch(sched.master_seed);
        let mut pass_ns = 0u64;
        for (k, &req) in sched.requests.iter().enumerate() {
            let t0 = Instant::now();
            engine
                .try_submit(req)
                .expect("one pending request never fills the queue");
            engine.drain(1);
            let ns = t0.elapsed().as_nanos() as u64;
            min_ns[k] = min_ns[k].min(ns);
            pass_ns += ns;
            if k + 1 == prefix {
                prefix_digest = engine.report().outcome_digest;
            }
            after(k, engine);
        }
        let ran = engine
            .resolutions()
            .iter()
            .filter(|r| r.node_seq != u32::MAX)
            .count();
        pass_rates.push(ran as f64 / (pass_ns as f64 / 1e9));
        digests.push(engine.report().outcome_digest);
    }
    Passes {
        min_ns,
        pass_rates,
        digests,
        prefix_digest,
        report: engine.report(),
        resolutions: engine.resolutions().to_vec(),
    }
}

/// Runs one serving workload and reports its metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::new();
    // `per_second * seconds` drains in all: `passes` passes over a share
    // of them when untraced; one pass over all of them when traced, and
    // at least the 100 sessions a p90 needs.
    let total = ((spec.per_second * seconds).round() as usize).max(1);
    let n = if trace {
        total.max(stats::min_samples(0.9))
    } else {
        total.div_ceil(spec.passes)
    };
    let poses = roster(spec.nodes, ROSTER_SEED);
    let true_range: Vec<f64> = poses
        .iter()
        .map(|&p| Network::new(p, Fidelity::Fast, 0).true_range())
        .collect();
    let sched = schedule(spec, n, seed);
    let warm = warm_schedule(spec, seed);

    // Set-up: engine construction plus the warm-up epoch. On a shared
    // host, set-up time switches between two speeds ~30% apart for
    // seconds at a time, so a median of back-to-back set-ups flips
    // between runs. The untraced run therefore takes its set-ups one at a
    // time, spread evenly over its drains (outside the timed regions),
    // and filters them like the passes. The traced run, which does not
    // report `setup_s`, takes one of each up front to keep its telemetry
    // snapshot clean. The first engine is the one measured.
    let set_up = || {
        let t0 = Instant::now();
        let mut e = ServeEngine::new(&poses, ServeConfig::milback());
        e.serve_schedule(&warm, 1);
        (e, t0.elapsed().as_secs_f64())
    };
    let passes = if trace { 1 } else { spec.passes };
    let total_setups = spec.setup_reps * if trace { 1 } else { spec.setup_takes };
    let stride = (n * passes).div_ceil(total_setups);
    let (mut engine, first) = set_up();
    let mut setups = vec![first];
    if trace {
        setups.extend((1..total_setups).map(|_| set_up().1));
    }
    let mut drains = 0;

    if trace {
        telemetry::set_enabled(true);
        telemetry::reset();
    }
    let prefix = spec.check_prefix.min(n);
    // The traced run replays each executed session right after its drain,
    // so the replay and the untraced time it reconciles against see the
    // same host state. Telemetry is off during the replay: the snapshot
    // counts only the engine's own work.
    let mut replay = trace.then(|| {
        let lanes = poses
            .iter()
            .map(|&p| Network::new(p, Fidelity::Fast, 0))
            .collect();
        (
            Replayer::new(lanes, ServeConfig::milback().session),
            Tracer::new(),
        )
    });
    let pass = measured_passes(&mut engine, &sched, passes, prefix, |k, e| {
        drains += 1;
        if drains % stride == 0 && setups.len() < total_setups {
            setups.push(set_up().1);
        }
        if let Some((rp, tr)) = replay.as_mut() {
            telemetry::set_enabled(false);
            replay_request(
                rp,
                tr,
                sched.master_seed,
                &sched.requests[k],
                &e.resolutions()[k],
            );
            telemetry::set_enabled(true);
        }
    });
    let snap = trace.then(telemetry::snapshot);
    setups.extend((setups.len()..total_setups).map(|_| set_up().1));
    rep.set(
        "setup_s",
        stats::median(&stats::fastest_per_index(&setups, spec.setup_reps)),
    );
    rep.line(report::setup_line(&setups, spec.setup_reps));

    // --- End-to-end metrics ------------------------------------------
    let executed: Vec<usize> = (0..n)
        .filter(|&k| pass.resolutions[k].node_seq != u32::MAX)
        .collect();
    let lat_ms: Vec<f64> = executed
        .iter()
        .map(|&k| pass.min_ns[k] as f64 / 1e6)
        .collect();
    let classes: Vec<Workload> = executed
        .iter()
        .map(|&k| pass.resolutions[k].workload)
        .collect();
    let drain_total_ns: f64 = pass.min_ns.iter().map(|&ns| ns as f64).sum();
    rep.set(
        "sessions_per_s",
        executed.len() as f64 / (drain_total_ns / 1e9),
    );
    rep.line(format!(
        "passes {passes} x {n} requests, sessions/s per pass: {}",
        pass.pass_rates
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    rep.set("session_p50_ms", stats::class_median(&classes, &lat_ms));
    match stats::percentile(&lat_ms, 0.9) {
        Ok(v) => rep.set("session_p90_ms", v),
        Err(e) => rep.line(format!("note   session_p90_ms not reported: {e}")),
    }
    let mut tally = Tally {
        attempted: n as u64,
        ..Tally::default()
    };
    for r in &pass.resolutions {
        tally.delivered += r.delivered as u64;
        match r.outcome {
            Outcome::Failed(_) => tally.failed += 1,
            Outcome::Shed => tally.shed += 1,
            Outcome::Rejected => tally.rejected += 1,
            Outcome::Completed | Outcome::Pending => {}
        }
    }
    rep.set("delivered_frac", tally.delivered_frac());
    rep.set("failed_frac", tally.failed_frac());
    rep.tally = tally;
    let range_err_cm: Vec<f64> = pass
        .resolutions
        .iter()
        .filter(|r| r.fix_range_bits != u64::MAX)
        .map(|r| (f64::from_bits(r.fix_range_bits) - true_range[r.node]).abs() * 100.0)
        .collect();
    match stats::percentile(&range_err_cm, 0.5) {
        Ok(v) => rep.set("range_err_p50_cm", v),
        Err(e) => rep.line(format!("note   range_err_p50_cm not reported: {e}")),
    }

    // --- Output checks -------------------------------------------------
    let r = &pass.report;
    rep.line(format!(
        "outcome {} requests: {} completed, {} failed, {} shed, {} rejected, {} field2-shed, \
         depth peak {}, {} fixes",
        r.submitted,
        r.completed,
        r.failed,
        r.shed,
        r.rejected,
        r.field2_shed,
        r.max_depth,
        range_err_cm.len()
    ));
    rep.line(format!(
        "digest per-request-drain epoch {:#018x} (each pass: {})",
        r.outcome_digest,
        pass.digests
            .iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    rep.check(
        "every pass resolves identically",
        pass.digests.iter().all(|&d| d == r.outcome_digest),
    );
    rep.check(
        "every request resolved exactly once, in order",
        pass.resolutions.len() == n
            && pass
                .resolutions
                .iter()
                .enumerate()
                .all(|(k, r)| r.ticket == k && r.resolved()),
    );
    let prefix_sched = TrafficSchedule {
        master_seed: sched.master_seed,
        requests: sched.requests[..prefix].to_vec(),
    };
    let d1 = engine.serve_schedule(&prefix_sched, 1).outcome_digest;
    let d2 = engine.serve_schedule(&prefix_sched, 2).outcome_digest;
    rep.line(format!(
        "digest first {prefix} requests: per-request drain {:#018x}, serve_schedule 1 worker \
         {d1:#018x}, 2 workers {d2:#018x}",
        pass.prefix_digest
    ));
    rep.check(
        "per-request drain digest == serve_schedule",
        pass.prefix_digest == d1,
    );
    rep.check("1-worker digest == 2-worker digest", d1 == d2);
    let worst_cm = range_err_cm.iter().copied().fold(0.0, f64::max);
    rep.check(
        &format!("every fix within {FIX_BAND_M} m of true range (worst {worst_cm:.1} cm)"),
        range_err_cm.iter().all(|&e| e < FIX_BAND_M * 100.0),
    );
    if !spec.exchange {
        rep.check("localize fixes produced", !range_err_cm.is_empty());
    }

    if let (Some(snap), Some((_, tr))) = (snap, replay) {
        let stem = format!("{}-seed{seed}", spec.name);
        traced(
            &mut rep,
            &stem,
            &pass,
            executed.len(),
            &snap,
            &tr,
            drain_total_ns,
        );
    }
    rep
}

/// Replays one resolved request stage by stage (executed ones only).
fn replay_request(
    rp: &mut Replayer,
    tr: &mut Tracer,
    epoch_seed: u64,
    req: &SessionRequest,
    res: &Resolution,
) {
    if res.node_seq == u32::MAX {
        return;
    }
    let (mode_attempts, payload_attempts) = match res.outcome {
        Outcome::Failed(FailureKind::ModeDetect) => (res.mode_attempts, 0),
        Outcome::Failed(FailureKind::Payload) => (1, res.payload_attempts),
        _ => (res.mode_attempts, res.payload_attempts),
    };
    rp.replay(
        tr,
        &Shape {
            session: res.ticket as u64,
            node: res.node,
            workload: res.workload,
            seed: derive_seed(epoch_seed, res.ticket as u64),
            start_s: req.arrival_s,
            intensity: req.intensity,
            mode_attempts: u32::from(mode_attempts),
            payload_attempts: u32::from(payload_attempts),
            shed: res.shed,
            payload_len: req.payload_len,
        },
    );
}

/// Per-layer attribution: telemetry work counts from the timed epoch and
/// the replay's stage self times, reconciled against the drain time.
fn traced(
    rep: &mut Report,
    stem: &str,
    pass: &Passes,
    executed: usize,
    snap: &telemetry::Snapshot,
    tr: &Tracer,
    drain_total_ns: f64,
) {
    let r = &pass.report;
    report::layer_counts(rep, snap, executed as u64);
    rep.set(
        "serve.shed_frac",
        stats::ratio((r.shed + r.field2_shed) as u64, r.submitted as u64),
    );
    rep.set("serve.depth_peak", r.max_depth as f64);
    let engine_session_ns = report::hist_sum(snap, "core.serve.session.ns") as f64;
    let overhead_ns = drain_total_ns - engine_session_ns;
    rep.set(
        "serve.overhead_ms",
        overhead_ns / executed.max(1) as f64 / 1e6,
    );
    report::attribution(
        rep,
        tr,
        stem,
        drain_total_ns,
        Some(("serve.overhead", overhead_ns)),
    );
}
