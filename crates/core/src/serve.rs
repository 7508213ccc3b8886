//! Session-serving engine (DESIGN.md §15): a long-running request
//! processor layered on the deterministic batch engine.
//!
//! The batch engine ([`crate::batch`]) answers "run these N independent
//! trials"; a deployment's access point instead faces an *arrival
//! process* — session requests from many nodes, bursty, with no known
//! end. This module is that serving loop:
//!
//! * **Work-stealing pool** — requests are grouped into per-node
//!   *chains* (arrival order within a node) and the chains are the jobs
//!   of [`crate::batch::run_stealing_with_threads`]. Stealing moves
//!   whole chains between workers, so per-node FIFO order holds by
//!   construction while uneven chain costs still balance.
//! * **Pooled session state** — the engine is a scheduler over the
//!   crate's lane pool, shared with the [`crate::net`] fabric: every
//!   reusable buffer a session touches ([`SessionCtx`]: DSP workspace,
//!   channel cache, Field-2 render and link buffers, triage scratch)
//!   lives in scratch contexts checked out per chain; per-node
//!   [`Network`](crate::Network)s, packet buffers and fault plans live
//!   in the lanes. The steady-state `Localize` serving loop performs **zero
//!   heap allocations** (pinned by `tests/zero_alloc.rs`; the `Downlink`
//!   / `Uplink` classes still allocate inside the link layer's
//!   modulator, documented in DESIGN.md §15).
//! * **Bounded queues + backpressure** — the submission buffer holds at
//!   most `queue_capacity` requests. [`ServeEngine::try_submit`] returns
//!   the request back when full; [`ServeEngine::submit`] instead makes
//!   the caller pay for a drain first (blocking backpressure). Nothing
//!   grows without bound.
//! * **Telemetry-driven load shedding** — admission tracks a virtual
//!   service backlog (one modeled server drains it by the elapsed
//!   arrival time) and exports its depth as the `core.serve.depth` histogram /
//!   gauge. Past `shed_depth` the engine sheds Field-2 work: `Localize`
//!   requests resolve as [`Outcome::Shed`] without going on air, and
//!   exchange requests run with [`Session::run_in`]`(.., shed_field2 =
//!   true)` — localization dropped, payload ARQ kept alive on the
//!   lane's last sensed AP orientation, recorded as the typed
//!   [`crate::session::Degradation::Field2Shed`]. An exchange on a lane
//!   that has not sensed this epoch runs its Field 2 instead. Past
//!   `reject_depth` requests are rejected outright.
//!
//! ## Determinism
//!
//! The pinned guarantees of the batch engine survive the serving layer:
//!
//! * Admission is a pure function of the submission sequence and
//!   [`ServeConfig`] — it models time from request *arrival stamps*,
//!   never the wall clock.
//! * Each session reseeds its lane's [`Network`](crate::Network) from
//!   [`derive_seed`]`(epoch_seed, ticket)` and advances the lane clock
//!   to `max(lane clock, arrival)`, so an outcome depends only on the
//!   request, its ticket, and its lane predecessors — never on which
//!   worker ran the chain or how submissions were batched into drains.
//! * Wall-clock latencies are kept out of [`Resolution`] and recorded
//!   only under `.ns`-suffixed telemetry names, so
//!   `deterministic_view()` stays byte-identical across runs and thread
//!   counts; [`ServeReport::outcome_digest`] fingerprints the resolved
//!   outcomes for cheap two-run comparison.

use crate::batch::derive_seed;
use crate::config::Fidelity;
use crate::lanes::{serve_session, Lane, LanePool};
use crate::session::{FailureKind, Session, SessionConfig, SessionCtx};
use milback_dsp::noise::Mix;
use milback_rf::faults::FaultPlan;
use milback_rf::geometry::{deg_to_rad, Pose};
use milback_telemetry as telemetry;
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------
// Requests and traffic
// ---------------------------------------------------------------------

/// Service class of one submitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Field-2-only localization ([`Session::localize_in`]): the
    /// zero-allocation service class, and the first work shed under
    /// overload.
    Localize,
    /// Full supervised exchange delivering a downlink payload.
    Downlink,
    /// Full supervised exchange delivering an uplink payload.
    Uplink,
}

/// One session request. Plain `Copy` data so schedules and pool slots
/// never allocate per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRequest {
    /// Index of the target node (a lane of the engine's roster).
    pub node: usize,
    /// Arrival stamp, seconds. Admission models time from these stamps,
    /// so a schedule replays identically regardless of wall clock.
    pub arrival_s: f64,
    /// Service class.
    pub workload: Workload,
    /// Payload bytes for the exchange classes (ignored by `Localize`).
    pub payload_len: usize,
    /// Chaos intensity for this session's fault plan, `0.0` = clean
    /// channel (see [`FaultPlan::chaos`]).
    pub intensity: f64,
}

/// Parameters of a synthetic Poisson arrival process over a node roster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Nodes in the roster (requests target `0..nodes`).
    pub nodes: usize,
    /// Total requests to generate.
    pub sessions: usize,
    /// Mean arrival rate, requests/second (exponential interarrivals).
    pub rate_hz: f64,
    /// Fraction of requests that are `Localize` (the rest are payload
    /// exchanges).
    pub localize_fraction: f64,
    /// Among exchanges, the fraction that are `Uplink`.
    pub uplink_fraction: f64,
    /// Payload bytes per exchange request.
    pub payload_len: usize,
    /// Upper bound on per-request chaos intensity (sampled uniformly in
    /// `[0, fault_intensity)`); `0.0` keeps every channel clean.
    pub fault_intensity: f64,
}

impl TrafficConfig {
    /// A moderate mixed workload: six nodes, 48 requests at 40 req/s,
    /// 60% localization, clean channels.
    pub fn milback() -> Self {
        Self {
            nodes: 6,
            sessions: 48,
            rate_hz: 40.0,
            localize_fraction: 0.6,
            uplink_fraction: 0.4,
            payload_len: 16,
            fault_intensity: 0.0,
        }
    }
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self::milback()
    }
}

/// A fully materialized request schedule: reproducible traffic keyed by
/// a master seed, ready to feed [`ServeEngine::serve_schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSchedule {
    /// Epoch seed: per-session RNG seeds derive from this and the
    /// submission ticket.
    pub master_seed: u64,
    /// Requests in arrival order (non-decreasing `arrival_s`).
    pub requests: Vec<SessionRequest>,
}

impl TrafficSchedule {
    /// Generates a schedule from `cfg`. Deterministic: the same
    /// `(cfg, master_seed)` always yields the same requests.
    pub fn generate(cfg: &TrafficConfig, master_seed: u64) -> Self {
        assert!(cfg.nodes >= 1, "roster must not be empty");
        assert!(cfg.rate_hz > 0.0, "arrival rate must be positive");
        let mut mix = Mix::at(derive_seed(master_seed ^ 0x074A_FF1C, 0), 0);
        let mut t = 0.0_f64;
        let mut requests = Vec::with_capacity(cfg.sessions);
        for _ in 0..cfg.sessions {
            let u = mix.unit();
            t += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / cfg.rate_hz;
            let node = (mix.next_u64() % cfg.nodes as u64) as usize;
            let workload = if mix.unit() < cfg.localize_fraction {
                Workload::Localize
            } else if mix.unit() < cfg.uplink_fraction {
                Workload::Uplink
            } else {
                Workload::Downlink
            };
            let intensity = cfg.fault_intensity * mix.unit();
            requests.push(SessionRequest {
                node,
                arrival_s: t,
                workload,
                payload_len: cfg.payload_len,
                intensity,
            });
        }
        Self {
            master_seed,
            requests,
        }
    }
}

/// A deterministic roster of `n` node poses inside the paper's working
/// region (ranges 1.7–2.6 m, azimuth ±8°, facing offset 8–14°), for
/// serving demos, benches and tests.
pub fn roster(n: usize, seed: u64) -> Vec<Pose> {
    (0..n)
        .map(|k| {
            let mut mix = Mix::at(derive_seed(seed ^ 0x5e57_e001, k as u64), 0);
            let r = 1.7 + 0.9 * mix.unit();
            let phi = deg_to_rad(-8.0 + 16.0 * mix.unit());
            let psi = deg_to_rad(8.0 + 6.0 * mix.unit());
            Pose::facing_ap(r, phi, psi)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Serving-engine policy: queue bound, overload thresholds and the
/// virtual service model behind the admission backlog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Session supervisor budgets ([`SessionConfig`]).
    pub session: SessionConfig,
    /// Channel fidelity for every lane's [`Network`](crate::Network).
    pub fidelity: Fidelity,
    /// Submission buffer bound (≥ 1): [`ServeEngine::try_submit`]
    /// refuses past this, [`ServeEngine::submit`] drains first.
    pub queue_capacity: usize,
    /// Modeled queue depth at which Field-2 work is shed.
    pub shed_depth: usize,
    /// Modeled queue depth at which requests are rejected outright.
    pub reject_depth: usize,
    /// Modeled service time of a full session, seconds (the unit the
    /// admission backlog is measured in).
    pub virtual_service_s: f64,
    /// Modeled service time of a shed session, seconds.
    pub shed_service_s: f64,
}

impl ServeConfig {
    /// Defaults tuned so [`TrafficConfig::milback`] traffic (40 req/s
    /// against a 30 ms virtual service, offered load 1.2) visibly
    /// crosses the shed threshold without rejecting everything.
    pub fn milback() -> Self {
        Self {
            session: SessionConfig::milback(),
            fidelity: Fidelity::Fast,
            queue_capacity: 16,
            shed_depth: 4,
            reject_depth: 12,
            virtual_service_s: 0.030,
            shed_service_s: 0.010,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::milback()
    }
}

// ---------------------------------------------------------------------
// Resolutions
// ---------------------------------------------------------------------

/// Terminal state of one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Not yet resolved. Only observable between `submit` and `drain`;
    /// [`ServeEngine::serve_schedule`] never returns one (the
    /// exactly-once property pinned by `tests/serve.rs`).
    Pending,
    /// The session ran to completion (possibly degraded — see
    /// [`Resolution::shed`] and [`Resolution::degradations`]).
    Completed,
    /// The session ran and exhausted a retry budget at this stage.
    Failed(FailureKind),
    /// A `Localize` request dropped whole by the overload policy —
    /// nothing went on air.
    Shed,
    /// Refused at admission (modeled depth ≥ `reject_depth`); never
    /// executed.
    Rejected,
}

/// The resolved record of one submitted request. Plain `Copy` data —
/// no wall-clock times, no heap — so resolutions can be compared across
/// runs and thread counts for exact equality and folded into
/// [`ServeReport::outcome_digest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolution {
    /// Submission ticket (index into the epoch's submission sequence).
    pub ticket: usize,
    /// Target node.
    pub node: usize,
    /// FIFO position within the node's lane (`u32::MAX` when the
    /// request never executed: rejected or shed whole).
    pub node_seq: u32,
    /// Service class of the request.
    pub workload: Workload,
    /// Terminal state.
    pub outcome: Outcome,
    /// Whether the session executed with Field-2 work shed.
    pub shed: bool,
    /// Field-1 transmissions used.
    pub mode_attempts: u8,
    /// Payload transmissions used.
    pub payload_attempts: u8,
    /// Field-2 chirps localization used.
    pub chirps_used: u8,
    /// Degradations recorded by the session supervisor.
    pub degradations: u8,
    /// Payload CRC passed (exchanges) / fix produced (`Localize`).
    pub delivered: bool,
    /// Bit pattern of the localization fix's range (`u64::MAX` when no
    /// fix) — exact across runs, unlike a rounded float.
    pub fix_range_bits: u64,
}

impl Resolution {
    pub(crate) fn unresolved(ticket: usize, node: usize, workload: Workload) -> Self {
        Self {
            ticket,
            node,
            node_seq: u32::MAX,
            workload,
            outcome: Outcome::Pending,
            shed: false,
            mode_attempts: 0,
            payload_attempts: 0,
            chirps_used: 0,
            degradations: 0,
            delivered: false,
            fix_range_bits: u64::MAX,
        }
    }

    /// Whether this request has reached a terminal state.
    pub fn resolved(&self) -> bool {
        self.outcome != Outcome::Pending
    }
}

/// Aggregate of one serving epoch: outcome counts and their digest, all
/// deterministic. Per-session wall-clock time is recorded only as
/// `core.serve.session.ns` telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests ticketed this epoch.
    pub submitted: usize,
    /// Sessions that ran to completion.
    pub completed: usize,
    /// Sessions that exhausted a retry budget.
    pub failed: usize,
    /// `Localize` requests dropped whole by the overload policy.
    pub shed: usize,
    /// Requests refused at admission.
    pub rejected: usize,
    /// Sessions executed with Field-2 work shed (subset of
    /// `completed + failed`).
    pub field2_shed: usize,
    /// Peak modeled queue depth seen by admission.
    pub max_depth: usize,
    /// FNV-1a over every [`Resolution`] in ticket order — byte-identical
    /// across runs and thread counts for a fixed schedule.
    pub outcome_digest: u64,
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Admission verdict for one ticketed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    Admit,
    Shed,
    Reject,
}

/// Serve's own state on each lane, beside the lane's network and
/// packet buffer: a pooled fault plan and the node's FIFO counter.
struct ServeLane {
    plan: FaultPlan,
    served: u32,
}

/// One request waiting in the bounded submission buffer.
#[derive(Debug, Clone, Copy)]
struct PendingEntry {
    ticket: usize,
    req: SessionRequest,
    adm: Admission,
}

/// One chain link: a ticketed request plus its shed flag.
#[derive(Debug, Clone, Copy)]
struct ChainEntry {
    ticket: usize,
    req: SessionRequest,
    shed: bool,
}

/// The session-serving engine. Owns every pooled resource — lanes,
/// scratch contexts, claim flags, resolution slots — and reuses all of
/// them across submissions, drains and epochs.
pub struct ServeEngine {
    config: ServeConfig,
    session: Session,
    epoch_seed: u64,
    pool: LanePool<ServeLane>,
    pending: Vec<PendingEntry>,
    chains: Vec<Vec<ChainEntry>>,
    active: Vec<usize>,
    slots: Vec<Mutex<Resolution>>,
    resolutions: Vec<Resolution>,
    submitted: usize,
    backlog_s: f64,
    last_arrival_s: f64,
    max_depth: usize,
}

impl ServeEngine {
    /// Builds an engine over a node roster. Lane networks are built
    /// here (the only per-node allocation); every later epoch reuses
    /// them.
    pub fn new(poses: &[Pose], config: ServeConfig) -> Self {
        assert!(!poses.is_empty(), "roster must not be empty");
        assert!(config.queue_capacity >= 1, "queue_capacity must be >= 1");
        assert!(
            config.virtual_service_s > 0.0,
            "virtual_service_s must be positive"
        );
        let pool = LanePool::new(poses.iter().copied(), config.fidelity, || ServeLane {
            plan: FaultPlan::none(),
            served: 0,
        });
        Self {
            config,
            session: Session::new(config.session),
            epoch_seed: 0,
            pool,
            pending: Vec::with_capacity(config.queue_capacity),
            chains: (0..poses.len()).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            slots: Vec::new(),
            resolutions: Vec::new(),
            submitted: 0,
            backlog_s: 0.0,
            last_arrival_s: 0.0,
            max_depth: 0,
        }
    }

    /// Number of serving lanes (roster size).
    pub fn nodes(&self) -> usize {
        self.pool.len()
    }

    /// Starts a fresh epoch keyed by `master_seed`: lane clocks, sensed
    /// AP orientations, FIFO counters, admission state and resolutions
    /// reset; every pooled
    /// buffer keeps its capacity. Requires an empty submission buffer.
    pub fn begin_epoch(&mut self, master_seed: u64) {
        assert!(
            self.pending.is_empty(),
            "drain() before beginning a new epoch"
        );
        self.epoch_seed = master_seed;
        self.submitted = 0;
        self.backlog_s = 0.0;
        self.last_arrival_s = 0.0;
        self.max_depth = 0;
        self.resolutions.clear();
        for lane in self.pool.lanes_mut() {
            lane.net.clock_s = 0.0;
            lane.net.reseed(master_seed);
            lane.net.sensed_orientation = None;
            lane.state.served = 0;
        }
    }

    /// Virtual-time admission: drains the modeled backlog by the time
    /// elapsed since the previous arrival, then places this request by
    /// the resulting queue depth. Pure function of the submission
    /// sequence — identical at any thread count.
    fn admit(&mut self, req: &SessionRequest) -> Admission {
        let cfg = &self.config;
        let dt = (req.arrival_s - self.last_arrival_s).max(0.0);
        self.last_arrival_s = self.last_arrival_s.max(req.arrival_s);
        self.backlog_s = (self.backlog_s - dt).max(0.0);
        let depth = (self.backlog_s / cfg.virtual_service_s).ceil() as usize;
        self.max_depth = self.max_depth.max(depth);
        telemetry::observe("core.serve.depth", depth as u64);
        telemetry::gauge_set("core.serve.depth.peak", self.max_depth as f64);
        if depth >= cfg.reject_depth {
            telemetry::counter_add("core.serve.rejected", 1);
            Admission::Reject
        } else if depth >= cfg.shed_depth {
            telemetry::counter_add("core.serve.shed", 1);
            if req.workload != Workload::Localize {
                self.backlog_s += cfg.shed_service_s;
            }
            Admission::Shed
        } else {
            telemetry::counter_add("core.serve.admitted", 1);
            self.backlog_s += cfg.virtual_service_s;
            Admission::Admit
        }
    }

    /// Ticket a request, or hand it back when the submission buffer is
    /// full (the non-blocking face of backpressure). A returned ticket
    /// is a promise: the request will resolve exactly once, visible in
    /// [`ServeEngine::resolutions`] after the drain that runs it.
    pub fn try_submit(&mut self, req: SessionRequest) -> Result<usize, SessionRequest> {
        assert!(req.node < self.nodes(), "request targets unknown node");
        if self.pending.len() >= self.config.queue_capacity {
            telemetry::counter_add("core.serve.queue_full", 1);
            return Err(req);
        }
        let ticket = self.submitted;
        self.submitted += 1;
        telemetry::counter_add("core.serve.submitted", 1);
        let adm = self.admit(&req);
        self.pending.push(PendingEntry { ticket, req, adm });
        Ok(ticket)
    }

    /// Ticket a request, draining first when the buffer is full — the
    /// blocking face of backpressure: the submitter pays the service
    /// cost instead of growing a queue.
    pub fn submit(&mut self, req: SessionRequest, threads: usize) -> usize {
        if self.pending.len() >= self.config.queue_capacity {
            self.drain(threads);
        }
        self.try_submit(req)
            .expect("submission buffer still full after drain")
    }

    /// Runs every pending request to resolution on `threads` workers
    /// (`1` runs inline, allocation-free in steady state). Requests are
    /// grouped into per-node chains and dispatched over the
    /// work-stealing pool; outcomes land in ticket-ordered
    /// [`ServeEngine::resolutions`].
    pub fn drain(&mut self, threads: usize) {
        if self.pending.is_empty() {
            return;
        }
        // Resolution slots and chain assembly. Rejected requests and
        // shed `Localize` requests resolve here, without touching a
        // lane; everything else joins its node's chain.
        for chain in &mut self.chains {
            chain.clear();
        }
        self.active.clear();
        for &PendingEntry { ticket, req, adm } in &self.pending {
            let res = Resolution::unresolved(ticket, req.node, req.workload);
            while self.slots.len() <= ticket {
                self.slots.push(Mutex::new(res));
            }
            let slot = self.slots[ticket]
                .get_mut()
                .unwrap_or_else(|e| e.into_inner());
            *slot = res;
            match adm {
                Admission::Reject => slot.outcome = Outcome::Rejected,
                Admission::Shed if req.workload == Workload::Localize => {
                    slot.outcome = Outcome::Shed;
                }
                adm => {
                    if self.chains[req.node].is_empty() {
                        self.active.push(req.node);
                    }
                    self.chains[req.node].push(ChainEntry {
                        ticket,
                        req,
                        shed: adm == Admission::Shed,
                    });
                }
            }
        }

        // One job per active node: its whole chain, against its lane.
        let n_jobs = self.active.len();
        let workers = self.pool.prepare(n_jobs, threads);
        let active = &self.active;
        let chains = &self.chains;
        let slots = &self.slots;
        let session = &self.session;
        let epoch_seed = self.epoch_seed;
        self.pool.run(
            n_jobs,
            workers,
            |job| active[job],
            |node, lane, ctx| {
                for entry in &chains[node] {
                    let t0 = Instant::now();
                    let res = run_one(session, epoch_seed, lane, ctx, entry);
                    let ns = t0.elapsed().as_nanos() as u64;
                    telemetry::observe("core.serve.session.ns", ns);
                    let mut slot = slots[entry.ticket]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    debug_assert!(!slot.resolved(), "ticket {} resolved twice", entry.ticket);
                    *slot = res;
                }
            },
        );

        // Copy resolutions out in ticket order (tickets in the pending
        // buffer are consecutive by construction).
        for i in 0..self.pending.len() {
            let ticket = self.pending[i].ticket;
            let slot = self.slots[ticket]
                .get_mut()
                .unwrap_or_else(|e| e.into_inner());
            debug_assert!(slot.resolved(), "ticket {ticket} never resolved");
            debug_assert_eq!(self.resolutions.len(), ticket, "ticket order broken");
            self.resolutions.push(*slot);
        }
        self.pending.clear();
    }

    /// Resolutions of every drained request this epoch, in ticket
    /// order.
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolutions
    }

    /// Runs a whole schedule as one epoch: reset, submit every request
    /// through the backpressured path, final drain, report.
    pub fn serve_schedule(&mut self, schedule: &TrafficSchedule, threads: usize) -> ServeReport {
        self.begin_epoch(schedule.master_seed);
        for &req in &schedule.requests {
            self.submit(req, threads);
        }
        self.drain(threads);
        self.report()
    }

    /// Aggregates the epoch so far.
    pub fn report(&self) -> ServeReport {
        let mut completed = 0;
        let mut failed = 0;
        let mut shed = 0;
        let mut rejected = 0;
        let mut field2_shed = 0;
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for r in &self.resolutions {
            match r.outcome {
                Outcome::Pending => {}
                Outcome::Completed => completed += 1,
                Outcome::Failed(_) => failed += 1,
                Outcome::Shed => shed += 1,
                Outcome::Rejected => rejected += 1,
            }
            if r.shed {
                field2_shed += 1;
            }
            for w in [
                r.ticket as u64,
                r.node as u64,
                r.node_seq as u64,
                workload_code(r.workload),
                outcome_code(r.outcome),
                r.shed as u64,
                r.mode_attempts as u64,
                r.payload_attempts as u64,
                r.chirps_used as u64,
                r.degradations as u64,
                r.delivered as u64,
                r.fix_range_bits,
            ] {
                digest = fnv_word(digest, w);
            }
        }

        ServeReport {
            submitted: self.submitted,
            completed,
            failed,
            shed,
            rejected,
            field2_shed,
            max_depth: self.max_depth,
            outcome_digest: digest,
        }
    }
}

/// Runs one chained session against its lane. Everything that decides
/// the outcome — seed, clock, fault plan — derives from `(epoch_seed,
/// ticket, lane history)`, never from the worker or the wall clock.
fn run_one(
    session: &Session,
    epoch_seed: u64,
    lane: &mut Lane<ServeLane>,
    ctx: &mut SessionCtx,
    entry: &ChainEntry,
) -> Resolution {
    let ChainEntry { ticket, req, shed } = *entry;
    let Lane {
        net,
        packet,
        state: ServeLane { plan, served },
    } = lane;
    let seed = derive_seed(epoch_seed, ticket as u64);
    let t0 = net.clock_s.max(req.arrival_s);
    net.clock_s = t0;

    // Per-session fault plan, scheduled relative to the lane clock so
    // fault windows land on this session no matter how much lane time
    // its predecessors consumed.
    plan.events.clear();
    if req.intensity > 0.0 {
        let pkt = net.fidelity.packet();
        let horizon = 8.0 * pkt.total_duration() + 0.2;
        plan.chaos_into(derive_seed(seed, 1), req.intensity, horizon);
        for ev in &mut plan.events {
            ev.start_s += t0;
        }
    }
    std::mem::swap(&mut net.faults, plan);

    let mut res = Resolution::unresolved(ticket, req.node, req.workload);
    res.node_seq = *served;
    *served += 1;
    // A shed payload plans from the lane's last sense; without one, sense.
    res.shed = shed && net.sensed_orientation.is_some();
    serve_session(session, ctx, net, packet, req.payload_len, seed, &mut res);
    match res.outcome {
        Outcome::Failed(_) => telemetry::counter_add("core.serve.failed", 1),
        _ => telemetry::counter_add("core.serve.completed", 1),
    }
    std::mem::swap(&mut net.faults, plan);
    res
}

pub(crate) fn workload_code(w: Workload) -> u64 {
    match w {
        Workload::Localize => 0,
        Workload::Downlink => 1,
        Workload::Uplink => 2,
    }
}

fn outcome_code(o: Outcome) -> u64 {
    match o {
        Outcome::Pending => 0,
        Outcome::Completed => 1,
        Outcome::Failed(FailureKind::ModeDetect) => 2,
        Outcome::Failed(FailureKind::Payload) => 3,
        Outcome::Shed => 4,
        Outcome::Rejected => 5,
    }
}

#[inline]
pub(crate) fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light_config() -> ServeConfig {
        // Thresholds high enough that the default schedule admits
        // everything cleanly.
        ServeConfig {
            shed_depth: 1_000,
            reject_depth: 2_000,
            ..ServeConfig::milback()
        }
    }

    #[test]
    fn schedule_generation_is_deterministic_and_ordered() {
        let cfg = TrafficConfig::milback();
        let a = TrafficSchedule::generate(&cfg, 7);
        let b = TrafficSchedule::generate(&cfg, 7);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_ne!(
            a,
            TrafficSchedule::generate(&cfg, 8),
            "different seeds must differ"
        );
        assert_eq!(a.requests.len(), cfg.sessions);
        for w in a.requests.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s, "arrivals out of order");
        }
        assert!(a.requests.iter().all(|r| r.node < cfg.nodes));
        assert!(a.requests.iter().any(|r| r.workload == Workload::Localize));
        assert!(a.requests.iter().any(|r| r.workload != Workload::Localize));
    }

    #[test]
    fn clean_epoch_completes_everything_in_fifo_order() {
        let cfg = TrafficConfig {
            nodes: 3,
            sessions: 12,
            ..TrafficConfig::milback()
        };
        let schedule = TrafficSchedule::generate(&cfg, 11);
        let mut engine = ServeEngine::new(&roster(cfg.nodes, 11), light_config());
        let report = engine.serve_schedule(&schedule, 1);
        assert_eq!(report.submitted, 12);
        assert_eq!(report.completed + report.failed, 12);
        assert_eq!(report.shed + report.rejected, 0);
        // Exactly-once: every ticket resolved, in ticket order.
        assert_eq!(engine.resolutions().len(), 12);
        for (i, r) in engine.resolutions().iter().enumerate() {
            assert_eq!(r.ticket, i);
            assert!(r.resolved());
        }
        // Per-node FIFO: node_seq increases with ticket within a node.
        for node in 0..cfg.nodes {
            let seqs: Vec<u32> = engine
                .resolutions()
                .iter()
                .filter(|r| r.node == node && r.node_seq != u32::MAX)
                .map(|r| r.node_seq)
                .collect();
            let expect: Vec<u32> = (0..seqs.len() as u32).collect();
            assert_eq!(seqs, expect, "node {node} served out of order");
        }
    }

    #[test]
    fn two_runs_resolve_identically() {
        let cfg = TrafficConfig {
            nodes: 3,
            sessions: 10,
            ..TrafficConfig::milback()
        };
        let schedule = TrafficSchedule::generate(&cfg, 23);
        let mut engine = ServeEngine::new(&roster(cfg.nodes, 23), ServeConfig::milback());
        let a = engine.serve_schedule(&schedule, 1);
        let res_a: Vec<Resolution> = engine.resolutions().to_vec();
        let b = engine.serve_schedule(&schedule, 2);
        assert_eq!(res_a, engine.resolutions(), "resolutions diverged");
        assert_eq!(a.outcome_digest, b.outcome_digest, "digest diverged");
    }

    #[test]
    fn overload_sheds_and_rejects_deterministically() {
        // Saturating traffic against a slow virtual server: everything
        // past the ramp-up sheds or rejects.
        let cfg = TrafficConfig {
            nodes: 2,
            sessions: 24,
            rate_hz: 500.0,
            localize_fraction: 0.5,
            ..TrafficConfig::milback()
        };
        let serve = ServeConfig {
            shed_depth: 2,
            reject_depth: 6,
            virtual_service_s: 0.050,
            shed_service_s: 0.040,
            ..ServeConfig::milback()
        };
        let schedule = TrafficSchedule::generate(&cfg, 41);
        let mut engine = ServeEngine::new(&roster(cfg.nodes, 41), serve);
        let report = engine.serve_schedule(&schedule, 1);
        assert!(report.rejected > 0, "no rejections under saturation");
        assert!(
            report.shed + report.field2_shed > 0,
            "no shedding under saturation"
        );
        assert!(report.max_depth >= serve.reject_depth);
        // Shed exchanges still deliver their payload: ARQ stays alive.
        for r in engine.resolutions() {
            if r.shed && r.outcome == Outcome::Completed {
                assert!(r.delivered, "shed exchange lost its payload");
            }
            if r.outcome == Outcome::Shed {
                assert_eq!(
                    r.workload,
                    Workload::Localize,
                    "only Localize may be dropped whole"
                );
            }
        }
    }

    #[test]
    fn try_submit_applies_backpressure_without_unbounded_growth() {
        let serve = ServeConfig {
            queue_capacity: 4,
            ..light_config()
        };
        let mut engine = ServeEngine::new(&roster(2, 5), serve);
        engine.begin_epoch(5);
        let req = SessionRequest {
            node: 0,
            arrival_s: 0.0,
            workload: Workload::Localize,
            payload_len: 0,
            intensity: 0.0,
        };
        for _ in 0..4 {
            assert!(engine.try_submit(req).is_ok());
        }
        let back = engine.try_submit(req).expect_err("full queue accepted");
        assert_eq!(back, req, "rejected request must come back unchanged");
        // The blocking face drains and then succeeds.
        let ticket = engine.submit(req, 1);
        assert_eq!(ticket, 4);
        engine.drain(1);
        assert_eq!(engine.resolutions().len(), 5);
    }
}
