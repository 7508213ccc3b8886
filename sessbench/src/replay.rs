//! Traced replay: re-runs a resolved session stage by stage through
//! each layer's public entry points, in `Session::run_in` order, with a
//! span around every call. Field 1 repeats as many times as the engine
//! reported mode attempts and the payload as many times as it reported
//! payload attempts, so retries are attributed to their layers instead
//! of falling into the residual.
//!
//! The replay is a cost model, not a second engine: payload tone plans
//! use the true orientation (`use_truth = true`, so sensing is timed
//! separately as `ap.orient`), and retries follow the engine's counts
//! rather than the replay's own channel draws.

use crate::trace::Tracer;
use milback::batch::derive_seed;
use milback::{Network, SessionConfig, SessionCtx, Workload};
use milback_dsp::signal::Signal;
use milback_proto::arq::{with_header_into, SeqBit};
use milback_proto::packet::LinkMode;
use milback_rf::faults::FaultPlan;

/// Span names, one per layer stage. `session.run` is the root of every
/// replayed session; its self time is the supervisor's own work (chirp
/// triage, ARQ bookkeeping, fault-plan setup).
pub const SESSION: &str = "session.run";
/// `Network::signal_mode`.
pub const FIELD1: &str = "protocol.field1";
/// `Network::sense_orientation_at_node`.
pub const NODE_ORIENT: &str = "node.orient";
/// `Network::field2_captures_into`.
pub const FIELD2_RENDER: &str = "rf.field2_render";
/// `Localizer::process_with` / `process_masked_with`.
pub const AP_LOCALIZE: &str = "ap.localize";
/// `Network::sense_orientation_at_ap` (Field 2 and each payload plan).
pub const AP_ORIENT: &str = "ap.orient";
/// `Network::downlink(.., use_truth = true)`.
pub const DOWNLINK: &str = "link.downlink";
/// `Network::uplink(.., use_truth = true)`.
pub const UPLINK: &str = "link.uplink";

/// Everything the replay needs to know about one resolved session.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Span session id (serve ticket, or fabric `round * nodes + node`).
    pub session: u64,
    /// Replay lane index.
    pub node: usize,
    /// Service class.
    pub workload: Workload,
    /// RNG seed the engine used for this session.
    pub seed: u64,
    /// Lane clock floor: the request's arrival (serve) or slot start
    /// (fabric), seconds.
    pub start_s: f64,
    /// Chaos intensity of the session's fault plan (0 = clean).
    pub intensity: f64,
    /// Field-1 transmissions the engine used (exchanges; at least one
    /// is replayed).
    pub mode_attempts: u32,
    /// Payload transmissions the engine used (0 = the session failed
    /// in Field 1 and never reached the payload).
    pub payload_attempts: u32,
    /// Field-2 work shed by the serving engine's overload policy.
    pub shed: bool,
    /// Payload bytes for exchanges.
    pub payload_len: usize,
}

/// Replay lanes plus pooled scratch, reused across sessions.
pub struct Replayer {
    /// Networks the sessions run on, indexed by [`Shape::node`].
    pub lanes: Vec<Network>,
    session: SessionConfig,
    ctx: SessionCtx,
    plan: FaultPlan,
    payload: Vec<u8>,
    frame: Vec<u8>,
    energies: Vec<f64>,
    sorted: Vec<f64>,
    alive: Vec<bool>,
}

impl Replayer {
    /// A replayer over pre-built lane networks.
    pub fn new(lanes: Vec<Network>, session: SessionConfig) -> Self {
        Self {
            lanes,
            session,
            ctx: SessionCtx::new(),
            plan: FaultPlan::none(),
            payload: Vec::new(),
            frame: Vec::new(),
            energies: Vec::new(),
            sorted: Vec::new(),
            alive: Vec::new(),
        }
    }

    /// Replays one session under a `session.run` root span.
    pub fn replay(&mut self, tr: &mut Tracer, s: &Shape) {
        let sid = s.session;
        let root = tr.begin(SESSION, sid);
        let cfg = self.session;
        let net = &mut self.lanes[s.node];
        let pkt = net.fidelity.packet();
        net.reseed(s.seed);
        net.clock_s = net.clock_s.max(s.start_s);
        let t0 = net.clock_s;
        self.plan.events.clear();
        if s.intensity > 0.0 {
            let horizon = 8.0 * pkt.total_duration() + 0.2;
            self.plan
                .chaos_into(derive_seed(s.seed, 1), s.intensity, horizon);
            for ev in &mut self.plan.events {
                ev.start_s += t0;
            }
        }
        std::mem::swap(&mut net.faults, &mut self.plan);

        let mode = match s.workload {
            Workload::Localize => None,
            Workload::Downlink => Some(LinkMode::Downlink),
            Workload::Uplink => Some(LinkMode::Uplink),
        };
        if let Some(mode) = mode {
            for attempt in 1..=s.mode_attempts.max(1) {
                tr.time(FIELD1, sid, || net.signal_mode(mode));
                net.clock_s += pkt.field1_duration();
                if attempt < s.mode_attempts {
                    net.clock_s += cfg.backoff.delay_s(attempt as usize);
                }
            }
            if s.payload_attempts > 0 {
                tr.time(NODE_ORIENT, sid, || net.sense_orientation_at_node());
                net.clock_s += pkt.field1_chirp.duration;
            }
        }
        let field2 = match mode {
            None => true,
            Some(_) => s.payload_attempts > 0 && !s.shed,
        };
        if field2 {
            let ctx = &mut self.ctx;
            tr.time(FIELD2_RENDER, sid, || {
                net.field2_captures_into(&mut ctx.chan, cfg.field2_chirps, &mut ctx.burst)
            });
            // Energy triage, as the supervisor does it (session self time).
            let energy = |pair: &[Signal; 2]| -> f64 {
                pair.iter()
                    .map(|x| x.samples.iter().map(|c| c.norm_sq()).sum::<f64>())
                    .sum()
            };
            self.energies.clear();
            self.energies.extend(ctx.burst.captures.iter().map(energy));
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.energies);
            self.sorted.sort_by(f64::total_cmp);
            let median = self.sorted[self.sorted.len() / 2];
            self.alive.clear();
            self.alive
                .extend(self.energies.iter().map(|&e| e > cfg.energy_floor * median));
            let n_alive = self.alive.iter().filter(|&&a| a).count();
            let localizer = net.localizer();
            if n_alive == self.alive.len() {
                tr.time(AP_LOCALIZE, sid, || {
                    localizer.process_with(&mut ctx.dsp, &ctx.burst.tx, &ctx.burst.captures)
                });
            } else if n_alive >= cfg.min_chirps.max(2) {
                let alive = &self.alive;
                tr.time(AP_LOCALIZE, sid, || {
                    localizer.process_masked_with(
                        &mut ctx.dsp,
                        &ctx.burst.tx,
                        &ctx.burst.captures,
                        alive,
                    )
                });
            }
            net.clock_s += cfg.field2_airtime_s(&pkt);
            if mode.is_some() {
                tr.time(AP_ORIENT, sid, || net.sense_orientation_at_ap());
                net.clock_s += cfg.field2_airtime_s(&pkt);
            }
        }

        if let Some(mode) = mode {
            self.payload.clear();
            self.payload.extend(
                (0..s.payload_len)
                    .map(|i| (s.seed.rotate_left(((i % 8) * 8) as u32) as u8) ^ (i as u8)),
            );
            // Uplinks carry the ARQ frame (header attached), as the
            // supervisor's sender puts it on air.
            with_header_into(SeqBit::Zero, &self.payload, &mut self.frame);
            let airtime = cfg.payload_airtime_s(&pkt);
            for attempt in 1..=s.payload_attempts {
                // The engine plans tones by sensing again unless Field 2
                // was shed (cached orientation); a failed sense aborts
                // the transfer before anything goes on air.
                let planned = s.shed
                    || tr
                        .time(AP_ORIENT, sid, || net.sense_orientation_at_ap())
                        .is_some();
                match mode {
                    _ if !planned => {}
                    LinkMode::Downlink => {
                        let payload = &self.payload;
                        tr.time(DOWNLINK, sid, || {
                            net.downlink(payload, cfg.symbol_rate, true)
                        });
                    }
                    LinkMode::Uplink => {
                        let frame = &self.frame;
                        tr.time(UPLINK, sid, || net.uplink(frame, cfg.symbol_rate, true));
                    }
                }
                net.clock_s += airtime;
                if attempt < s.payload_attempts {
                    net.clock_s += cfg.backoff.delay_s(attempt as usize);
                }
            }
        }
        std::mem::swap(&mut net.faults, &mut self.plan);
        tr.end(root);
    }
}
