//! Dense-network fabric (DESIGN.md §16): hundreds-to-thousands of
//! backscatter nodes, several APs, one deterministic slotted MAC.
//!
//! The paper deploys one AP and one node per session; §7 closes with
//! SDM multi-node support and leaves network scale open. This module is
//! that scale-out. One [`Fabric`] owns a whole deployment:
//!
//! * **Slotted polling MAC** — every round, each coverage cell polls its
//!   members in fixed slots ([`RoundSchedule::fill`]): member `j` of
//!   a cell owns the airtime window `[j·(slot+guard), j·(slot+guard) +
//!   slot)`. Cells transmit concurrently (each AP's steered horn beams
//!   suppress other cells' traffic below the noise floor — the same
//!   argument the paper's §7 polling MAC makes for unaddressed nodes),
//!   but *within* a cell the Field-1/Field-2 airtimes of two nodes never
//!   overlap, serialized on the shared `Network::clock_s`. Sessions that
//!   outrun their slot are counted (`net.slot.overrun`), not clipped.
//! * **Inter-node interference** — a scheduled node's Field-2 capture
//!   accumulates the residual reflections of its strongest parked
//!   same-cell neighbors as clutter, summed once per antenna per burst
//!   through the §13 cached ray tables
//!   (`Scene::accumulate_backscatter_into`), reported under the
//!   `net.interference.*` telemetry family. The tables do not depend
//!   on the steer, so a neighbor's are built once per round. An empty
//!   neighbor list is bitwise free.
//! * **Cells and handoff** — nodes are assigned to the AP with the
//!   strongest closed-form two-way response
//!   (`milback_ap::coverage::response_db`), with a hysteresis margin;
//!   per-round pose drift moves border nodes across cells and every
//!   crossing is a deterministic handoff event.
//!
//! The fabric is a scheduler over the crate's lane pool, the same one
//! the §15 serving engine runs on: per-node lanes, pooled scratch
//! contexts, work stealing and the one session body both engines share.
//! What the fabric adds is the round: pose drift, cell assignment, the
//! slot layout, the interferer pick and the workload draw.
//!
//! ## Determinism
//!
//! Everything that decides an outcome derives from `(master seed, round,
//! node index)`: slot seeds via [`derive_seed`], drift and workload
//! draws from index-keyed SplitMix64 streams, interference lists from
//! the deterministic per-round response ordering. Worker threads only
//! decide *where* a slot runs, never *what* it computes, so a round is
//! bitwise identical at any `MILBACK_THREADS` — mirroring the §15
//! serving engine, and pinned by `tests/net.rs` plus the cross-process
//! view comparison in `crates/core/tests/determinism.rs`. Wall-clock time
//! is confined to `.ns` telemetry and [`RoundReport::wall_s`].
//!
//! ## Example: a slotted round never double-books airtime
//!
//! ```
//! use milback::net::RoundSchedule;
//!
//! // Six nodes across two cells (0 and 1), 100 µs slots, 10 µs guard,
//! // laid out by the same in-place fill every fabric round runs.
//! let assignment = [0, 1, 0, 1, 1, 0];
//! let mut sched = RoundSchedule::default();
//! sched.fill(&assignment, 2, 100e-6, 10e-6);
//! assert_eq!(sched.slots.len(), 6);
//! // Same-cell slots are disjoint: sorted by start, each ends (plus its
//! // guard) before the next begins.
//! for cell in 0..2 {
//!     let mut windows: Vec<(f64, f64)> = sched
//!         .slots
//!         .iter()
//!         .filter(|s| s.cell == cell)
//!         .map(|s| (s.start_s, s.start_s + s.airtime_s))
//!         .collect();
//!     windows.sort_by(|a, b| a.0.total_cmp(&b.0));
//!     for pair in windows.windows(2) {
//!         assert!(pair[0].1 <= pair[1].0, "cell {cell} double-booked");
//!     }
//! }
//! ```
//!
//! ## Example: strongest-response cell assignment
//!
//! ```
//! use milback::net::{ap_line, net_roster, Fabric, NetConfig};
//! use milback::Fidelity;
//!
//! let aps = ap_line(2, 4.0); // two APs 4 m apart
//! let poses = net_roster(8, &aps, 0xD0C);
//! let mut fabric = Fabric::new(&aps, &poses, NetConfig::milback(Fidelity::Fast));
//! fabric.assign_cells();
//! // Every node got exactly one serving AP, and both cells are used.
//! let cells = fabric.assignment();
//! assert_eq!(cells.len(), 8);
//! assert!(cells.iter().all(|&c| c < 2));
//! assert!(cells.contains(&0) && cells.contains(&1));
//! ```

use crate::batch::derive_seed;
use crate::config::Fidelity;
use crate::lanes::{serve_session, Lane, LanePool};
use crate::network::Interferer;
use crate::serve::{fnv_word, workload_code, Outcome, Resolution, Workload};
use crate::session::{Session, SessionConfig, SessionCtx};
use milback_ap::coverage;
use milback_dsp::noise::Mix;
use milback_dsp::num::Cpx;
use milback_node::node::BackscatterNode;
use milback_rf::fsa::DualPortFsa;
use milback_rf::geometry::{deg_to_rad, Point, Pose};
use milback_telemetry as telemetry;
use std::time::Instant;

/// Salts for the per-round index-keyed input streams (kept distinct so
/// drift, workload and roster draws never alias).
const ROSTER_SALT: u64 = 0x0E75_0E75;
const DRIFT_SALT: u64 = 0xD21F_7D21;
const WORK_SALT: u64 = 0x3108_AD00;

/// Handoff hysteresis, dB: a node moves cells only when another AP
/// beats its current response by more than this.
const HANDOFF_MARGIN_DB: f64 = 1.0;

// ---------------------------------------------------------------------
// Configuration and topology
// ---------------------------------------------------------------------

/// Dense-network fabric policy: slot geometry, interference model,
/// drift and workload mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Session supervisor budgets for every scheduled session.
    pub session: SessionConfig,
    /// Channel fidelity for every lane's [`Network`](crate::Network).
    pub fidelity: Fidelity,
    /// Airtime slot length, seconds. Sessions that outrun it are counted
    /// as overruns, never clipped.
    pub slot_s: f64,
    /// Guard time between same-cell slots (beam re-steering), seconds.
    pub guard_s: f64,
    /// Strongest same-cell neighbors layered into a scheduled capture
    /// as parked-neighbor clutter; `0` turns interference off.
    pub max_interferers: usize,
    /// Per-round bounded pose drift: each round every node sits at its
    /// roster pose plus a per-axis offset uniform in `±drift_step_m`.
    /// `0.0` pins every node (and makes rounds bit-identical repeats).
    pub drift_step_m: f64,
    /// Fraction of slots running `Localize` (the rest exchange payloads).
    pub localize_fraction: f64,
    /// Among exchanges, the fraction running `Uplink`.
    pub uplink_fraction: f64,
    /// Payload bytes per exchange slot.
    pub payload_len: usize,
}

impl NetConfig {
    /// Paper-shaped defaults: slots sized for one supervised session
    /// (three packet durations), 1 ms steering guard, three-neighbor
    /// interference, no drift, and the §15 serving mix (60% localize,
    /// 40/60 uplink/downlink split).
    pub fn milback(fidelity: Fidelity) -> Self {
        let pkt = fidelity.packet();
        Self {
            session: SessionConfig::milback(),
            fidelity,
            slot_s: 3.0 * pkt.total_duration(),
            guard_s: 1e-3,
            max_interferers: 3,
            drift_step_m: 0.0,
            localize_fraction: 0.6,
            uplink_fraction: 0.4,
            payload_len: 16,
        }
    }
}

/// AP positions on a line along +x at `spacing_m` intervals, the first
/// at the origin — a corridor deployment.
pub fn ap_line(n_aps: usize, spacing_m: f64) -> Vec<Point> {
    assert!(n_aps >= 1, "need at least one AP");
    (0..n_aps)
        .map(|k| Point::new(k as f64 * spacing_m, 0.0))
        .collect()
}

/// A deterministic roster of `n` node poses across a multi-AP corridor.
///
/// Node `k` homes to AP `k % aps.len()`. Most nodes sit in the paper's
/// working region around their home AP (ranges 1.7–2.6 m, azimuth ±8°,
/// facing offset 8–14° — the §15 serving roster); with two or more APs,
/// ~30% are *border* nodes placed in the strip between adjacent APs,
/// facing the midpoint, so both APs see comparable responses and
/// per-round drift produces real handoffs.
pub fn net_roster(n: usize, aps: &[Point], seed: u64) -> Vec<Pose> {
    assert!(!aps.is_empty(), "need at least one AP");
    (0..n)
        .map(|k| {
            let mut mix = Mix::at(derive_seed(seed ^ ROSTER_SALT, k as u64), 0);
            let home = k % aps.len();
            let border = aps.len() >= 2 && mix.unit() < 0.3;
            if border {
                let a = aps[home];
                let b = aps[(home + 1) % aps.len()];
                let u = 0.38 + 0.24 * mix.unit();
                let position = Point::new(
                    a.x + u * (b.x - a.x),
                    a.y + u * (b.y - a.y) + 1.3 + 0.9 * mix.unit(),
                );
                let mid = Point::new(0.5 * (a.x + b.x), 0.5 * (a.y + b.y));
                let facing = position.bearing_to(&mid) + deg_to_rad(-25.0 + 50.0 * mix.unit());
                Pose::new(position, facing)
            } else {
                let r = 1.7 + 0.9 * mix.unit();
                let phi = deg_to_rad(-8.0 + 16.0 * mix.unit());
                let psi = deg_to_rad(8.0 + 6.0 * mix.unit());
                let local = Pose::facing_ap(r, phi, psi);
                Pose::new(
                    Point::new(
                        local.position.x + aps[home].x,
                        local.position.y + aps[home].y,
                    ),
                    local.facing,
                )
            }
        })
        .collect()
}

/// Translates a global pose into an AP's local frame (the frame every
/// lane [`Network`]'s scene lives in). Translation only: facing is a
/// global azimuth and bearings are translation-invariant.
fn local_pose(pose: Pose, ap: Point) -> Pose {
    Pose::new(
        Point::new(pose.position.x - ap.x, pose.position.y - ap.y),
        pose.facing,
    )
}

// ---------------------------------------------------------------------
// Slot schedule
// ---------------------------------------------------------------------

/// One airtime slot of a round: which node, in which cell, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Scheduled node.
    pub node: usize,
    /// Serving cell (AP index).
    pub cell: usize,
    /// Slot start, seconds from the round origin.
    pub start_s: f64,
    /// On-air window length, seconds (the guard trails it).
    pub airtime_s: f64,
}

/// A slotted round: per-cell back-to-back polling, cells concurrent.
/// The fabric refills one schedule in place every round; see the module
/// docs for the no-double-booking doctest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundSchedule {
    /// One slot per node, in node order.
    pub slots: Vec<Slot>,
    /// Round span: the longest cell's polling sequence, seconds.
    pub round_s: f64,
    /// Per-cell polling counters (scratch, pooled across fills).
    next: Vec<usize>,
}

impl RoundSchedule {
    /// Lays out one polling round in place, reusing this schedule's
    /// buffers: the `j`-th member of each cell owns `[j·(slot+guard),
    /// j·(slot+guard) + slot)`. Deterministic in the assignment; same-cell
    /// windows are disjoint by construction (property-tested in
    /// `tests/net.rs`).
    pub fn fill(&mut self, assignment: &[usize], n_cells: usize, slot_s: f64, guard_s: f64) {
        assert!(n_cells >= 1, "need at least one cell");
        assert!(slot_s > 0.0, "slots need positive airtime");
        let pitch = slot_s + guard_s;
        self.next.clear();
        self.next.resize(n_cells, 0);
        self.slots.clear();
        for (node, &cell) in assignment.iter().enumerate() {
            assert!(cell < n_cells, "node {node} assigned to unknown cell");
            let j = self.next[cell];
            self.next[cell] += 1;
            self.slots.push(Slot {
                node,
                cell,
                start_s: j as f64 * pitch,
                airtime_s: slot_s,
            });
        }
        self.round_s = self.next.iter().max().copied().unwrap_or(0) as f64 * pitch;
    }
}

// ---------------------------------------------------------------------
// Outcomes and reports
// ---------------------------------------------------------------------

/// The resolved record of one scheduled slot. Plain `Copy` data, no
/// wall-clock content — comparable bitwise across runs and thread
/// counts, and the unit the round digest folds over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotOutcome {
    /// Scheduled node.
    pub node: usize,
    /// Serving cell.
    pub cell: usize,
    /// Service class this slot ran.
    pub workload: Workload,
    /// Parked neighbors layered into the capture.
    pub interferers: u8,
    /// Session ran to completion (vs exhausting a retry budget).
    pub completed: bool,
    /// Payload CRC passed (exchanges) / fix produced (`Localize`).
    pub delivered: bool,
    /// Payload bits delivered by this slot.
    pub delivered_bits: u32,
    /// Degradations recorded by the session supervisor.
    pub degradations: u8,
    /// Bit pattern of the fix range (`u64::MAX` when no fix).
    pub fix_range_bits: u64,
    /// Lane airtime the session consumed, seconds.
    pub airtime_s: f64,
    /// Whether the session outran its slot.
    pub overrun: bool,
}

impl SlotOutcome {
    fn empty() -> Self {
        Self {
            node: 0,
            cell: 0,
            workload: Workload::Localize,
            interferers: 0,
            completed: false,
            delivered: false,
            delivered_bits: 0,
            degradations: 0,
            fix_range_bits: u64::MAX,
            airtime_s: 0.0,
            overrun: false,
        }
    }
}

/// Aggregate of one fabric round. Everything except `wall_s` is
/// deterministic (thread- and run-invariant for a fixed fabric state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundReport {
    /// Round index (0-based, monotonic per fabric).
    pub round: u64,
    /// Slots scheduled (= nodes).
    pub sessions: usize,
    /// Sessions that ran to completion.
    pub completed: usize,
    /// Sessions that delivered (payload CRC / localization fix).
    pub delivered: usize,
    /// Localization fixes produced.
    pub fixes: usize,
    /// Nodes that changed serving cell this round.
    pub handoffs: usize,
    /// Sessions that outran their slot.
    pub overruns: usize,
    /// Payload bits delivered across the round.
    pub delivered_bits: u64,
    /// Schedule span of the round (longest cell), seconds — the airtime
    /// denominator of `goodput_bps`.
    pub round_airtime_s: f64,
    /// Aggregate goodput over the round's schedule airtime, bits/s.
    pub goodput_bps: f64,
    /// FNV-1a over every [`SlotOutcome`] in node order.
    pub digest: u64,
    /// Wall-clock dispatch time, seconds (measurement, not deterministic).
    pub wall_s: f64,
}

// ---------------------------------------------------------------------
// The fabric
// ---------------------------------------------------------------------

/// A dense-network deployment: many nodes, several APs, one slotted MAC.
/// Owns every pooled resource (lanes, scratch contexts, claim flags,
/// outcome slots, per-round scratch) and reuses all of them round after
/// round — a warmed all-`Localize` round at one worker performs zero
/// steady-state heap allocations (pinned by `tests/zero_alloc.rs`).
pub struct Fabric {
    config: NetConfig,
    aps: Vec<Point>,
    /// Roster baseline poses (global frame).
    base: Vec<Pose>,
    /// This round's drifted poses (global frame).
    poses: Vec<Pose>,
    /// Serving cell per node (`usize::MAX` before the first assignment).
    assignment: Vec<usize>,
    /// Response toward the serving AP, dB (per node).
    response_db: Vec<f64>,
    /// Scratch: per-AP responses for one node.
    resp_scratch: Vec<f64>,
    /// Per-cell members sorted by descending response (interferer pick).
    order: Vec<Vec<usize>>,
    /// This round's slot layout.
    schedule: RoundSchedule,
    /// Node lanes, each holding its node's last slot outcome. Lane
    /// networks live in the serving AP's local frame.
    pool: LanePool<SlotOutcome>,
    session: Session,
    /// One scene in the home frame for closed-form response evaluation.
    eval_scene: milback_rf::channel::Scene,
    fsa: DualPortFsa,
    parked: [Cpx; 2],
    master_seed: u64,
    round: u64,
    clock_s: f64,
    total_handoffs: u64,
}

impl Fabric {
    /// Builds a fabric over AP positions and a global-frame node roster.
    /// The only per-node allocations happen here; rounds reuse them.
    pub fn new(aps: &[Point], poses: &[Pose], config: NetConfig) -> Self {
        assert!(!aps.is_empty(), "need at least one AP");
        assert!(!poses.is_empty(), "need at least one node");
        let proto_node = BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0));
        let parked = proto_node.parked_gamma();
        let fsa = proto_node.fsa;
        let pool = LanePool::new(
            poses.iter().map(|&pose| local_pose(pose, aps[0])),
            config.fidelity,
            SlotOutcome::empty,
        );
        Self {
            config,
            aps: aps.to_vec(),
            base: poses.to_vec(),
            poses: poses.to_vec(),
            assignment: vec![usize::MAX; poses.len()],
            response_db: vec![f64::NEG_INFINITY; poses.len()],
            resp_scratch: Vec::with_capacity(aps.len()),
            order: (0..aps.len()).map(|_| Vec::new()).collect(),
            schedule: RoundSchedule::default(),
            pool,
            session: Session::new(config.session),
            eval_scene: milback_rf::channel::Scene::milback_indoor(),
            fsa,
            parked,
            master_seed: 0,
            round: 0,
            clock_s: 0.0,
            total_handoffs: 0,
        }
    }

    /// Nodes in the fabric.
    pub fn nodes(&self) -> usize {
        self.pool.len()
    }

    /// Coverage cells (APs) in the fabric.
    pub fn cells(&self) -> usize {
        self.aps.len()
    }

    /// Serving cell per node (valid after [`Fabric::assign_cells`] or
    /// the first round).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Total handoffs since construction.
    pub fn handoffs(&self) -> u64 {
        self.total_handoffs
    }

    /// The resolved outcome of `node`'s slot in the last round.
    pub fn outcome(&self, node: usize) -> SlotOutcome {
        self.pool.lock(node).state
    }

    /// Re-keys the fabric: resets the round counter, the shared clock
    /// and every lane, exactly like the serving engine's `begin_epoch`.
    pub fn reseed(&mut self, master_seed: u64) {
        self.master_seed = master_seed;
        self.round = 0;
        self.clock_s = 0.0;
        self.total_handoffs = 0;
        self.assignment.fill(usize::MAX);
        self.response_db.fill(f64::NEG_INFINITY);
        self.poses.copy_from_slice(&self.base);
        for lane in self.pool.lanes_mut() {
            lane.net.clock_s = 0.0;
            lane.net.reseed(master_seed);
            lane.net.interferers.clear();
        }
    }

    /// Assigns every node to its strongest-response cell (with 1 dB of
    /// handoff hysteresis) from the current poses, rebuilding the
    /// per-cell interference orderings.
    /// Returns the number of handoffs (re-assignments of an already
    /// assigned node). Pure closed-form math — no signal rendering — and
    /// deterministic in the pose set.
    pub fn assign_cells(&mut self) -> usize {
        let n = self.poses.len();
        let mut handoffs = 0;
        for i in 0..n {
            self.resp_scratch.clear();
            for ap in &self.aps {
                let local = local_pose(self.poses[i], *ap);
                self.eval_scene.steer_towards(&local.position);
                self.resp_scratch
                    .push(coverage::response_db(&self.eval_scene, &local, &self.fsa));
            }
            let prev = self.assignment[i];
            let current = (prev != usize::MAX).then_some(prev);
            let cell = coverage::pick_cell(current, &self.resp_scratch, HANDOFF_MARGIN_DB);
            if prev != usize::MAX && cell != prev {
                handoffs += 1;
            }
            self.assignment[i] = cell;
            self.response_db[i] = self.resp_scratch[cell];
        }
        self.total_handoffs += handoffs as u64;
        telemetry::counter_add("net.handoff", handoffs as u64);

        // Interference ordering: members by descending serving response,
        // ties broken by node index — deterministic, so every slot's
        // neighbor list is too.
        for order in &mut self.order {
            order.clear();
        }
        for (i, &cell) in self.assignment.iter().enumerate() {
            self.order[cell].push(i);
        }
        let resp = &self.response_db;
        for order in &mut self.order {
            order.sort_unstable_by(|&a, &b| resp[b].total_cmp(&resp[a]).then(a.cmp(&b)));
        }
        handoffs
    }

    /// Runs one full polling round on `threads` workers (`1` runs
    /// inline): drift poses, re-assign cells, lay out the slotted
    /// schedule, then dispatch every node's session over the
    /// work-stealing pool. The returned report (minus `wall_s`) and
    /// every [`Fabric::outcome`] are bitwise identical at any thread
    /// count.
    pub fn run_round(&mut self, threads: usize) -> RoundReport {
        let round_seed = derive_seed(self.master_seed, self.round);
        let n = self.poses.len();

        // 1. Bounded pose drift from the roster baseline (never a random
        //    walk: offsets are per-round draws, so a round's geometry
        //    depends only on (master, round, node)).
        let step = self.config.drift_step_m;
        if step > 0.0 {
            for i in 0..n {
                let mut mix = Mix::at(derive_seed(round_seed ^ DRIFT_SALT, i as u64), 0);
                let base = self.base[i];
                self.poses[i] = Pose::new(
                    Point::new(
                        base.position.x + step * (2.0 * mix.unit() - 1.0),
                        base.position.y + step * (2.0 * mix.unit() - 1.0),
                    ),
                    base.facing,
                );
            }
        }

        // 2. Cells, handoffs, interference ordering.
        let handoffs = self.assign_cells();

        // 3. Slot layout.
        let cfg = &self.config;
        self.schedule
            .fill(&self.assignment, self.aps.len(), cfg.slot_s, cfg.guard_s);
        let round_airtime_s = self.schedule.round_s;

        // 4. Dispatch: one job per node, each against its own lane.
        let workers = self.pool.prepare(n, threads);
        telemetry::counter_add("net.round.slots", n as u64);
        let span = telemetry::span("net.round.ns");
        let t0 = Instant::now();
        let fabric = &*self;
        fabric.pool.run(
            n,
            workers,
            |i| i,
            |i, lane, ctx| {
                lane.state = fabric.run_slot(round_seed, i, lane, ctx);
            },
        );
        let wall_s = t0.elapsed().as_secs_f64();
        span.end();

        // 5. Aggregate in node order (deterministic digest).
        let mut report = RoundReport {
            round: self.round,
            sessions: n,
            completed: 0,
            delivered: 0,
            fixes: 0,
            handoffs,
            overruns: 0,
            delivered_bits: 0,
            round_airtime_s,
            goodput_bps: 0.0,
            digest: 0xcbf2_9ce4_8422_2325_u64,
            wall_s,
        };
        for lane in self.pool.lanes_mut() {
            let r = lane.state;
            report.completed += r.completed as usize;
            report.delivered += r.delivered as usize;
            report.fixes += (r.fix_range_bits != u64::MAX) as usize;
            report.overruns += r.overrun as usize;
            report.delivered_bits += u64::from(r.delivered_bits);
            for w in [
                r.node as u64,
                r.cell as u64,
                workload_code(r.workload),
                u64::from(r.interferers),
                r.completed as u64,
                r.delivered as u64,
                u64::from(r.delivered_bits),
                u64::from(r.degradations),
                r.fix_range_bits,
                r.airtime_s.to_bits(),
                r.overrun as u64,
            ] {
                report.digest = fnv_word(report.digest, w);
            }
        }
        if round_airtime_s > 0.0 {
            report.goodput_bps = report.delivered_bits as f64 / round_airtime_s;
        }
        telemetry::counter_add("net.slot.overrun", report.overruns as u64);
        telemetry::counter_add("net.delivered.bits", report.delivered_bits);

        self.clock_s += round_airtime_s;
        self.round += 1;
        report
    }

    /// Runs one node's scheduled slot against its lane. Everything that
    /// decides the outcome — seed, clock, pose, neighbors, workload —
    /// derives from `(master, round, node)` and the deterministic
    /// assignment state; never from the worker or the wall clock.
    fn run_slot(
        &self,
        round_seed: u64,
        i: usize,
        lane: &mut Lane<SlotOutcome>,
        ctx: &mut SessionCtx,
    ) -> SlotOutcome {
        let cfg = &self.config;
        let slot = self.schedule.slots[i];
        let ap = self.aps[slot.cell];
        let net = &mut lane.net;

        net.set_node_pose(local_pose(self.poses[i], ap));
        let slot_abs_start = self.clock_s + slot.start_s;
        net.clock_s = slot_abs_start;

        // Interference: the strongest parked same-cell neighbors, in the
        // deterministic per-round response order, translated into this
        // AP's local frame. Pooled: clear + push within capacity.
        net.interferers.clear();
        net.interferers.extend(
            self.order[slot.cell]
                .iter()
                .filter(|&&j| j != i)
                .take(cfg.max_interferers)
                .map(|&j| Interferer {
                    pose: local_pose(self.poses[j], ap),
                    fsa: self.fsa,
                    gamma: self.parked,
                }),
        );
        if !net.interferers.is_empty() {
            telemetry::counter_add("net.interference.slots", 1);
        }
        let interferers = net.interferers.len().min(255) as u8;

        let mut mix = Mix::at(derive_seed(round_seed ^ WORK_SALT, i as u64), 0);
        let workload = if mix.unit() < cfg.localize_fraction {
            Workload::Localize
        } else if mix.unit() < cfg.uplink_fraction {
            Workload::Uplink
        } else {
            Workload::Downlink
        };

        let mut res = Resolution::unresolved(i, i, workload);
        let seed = derive_seed(round_seed, i as u64);
        serve_session(
            &self.session,
            ctx,
            net,
            &mut lane.packet,
            cfg.payload_len,
            seed,
            &mut res,
        );
        let airtime_s = net.clock_s - slot_abs_start;
        let payload_bits = (cfg.payload_len * 8).min(u32::MAX as usize) as u32;
        SlotOutcome {
            node: i,
            cell: slot.cell,
            workload,
            interferers,
            completed: res.outcome == Outcome::Completed,
            delivered: res.delivered,
            delivered_bits: if res.delivered && workload != Workload::Localize {
                payload_bits
            } else {
                0
            },
            degradations: res.degradations,
            fix_range_bits: res.fix_range_bits,
            airtime_s,
            overrun: airtime_s > slot.airtime_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_deterministic_and_spread() {
        let aps = ap_line(2, 4.0);
        let a = net_roster(32, &aps, 9);
        let b = net_roster(32, &aps, 9);
        assert_eq!(a, b);
        assert_ne!(a, net_roster(32, &aps, 10));
        // Some nodes near each AP's home region.
        assert!(a.iter().any(|p| p.position.x < 3.0));
        assert!(a.iter().any(|p| p.position.x > 3.0));
    }

    #[test]
    fn slotted_schedule_serializes_cells() {
        let assignment = [0usize, 0, 1, 0, 1];
        let mut s = RoundSchedule::default();
        s.fill(&assignment, 2, 1e-3, 1e-4);
        // Cell 0 members poll at 0, 1.1 ms, 2.2 ms; cell 1 at 0, 1.1 ms.
        assert_eq!(s.slots[0].start_s, 0.0);
        assert!((s.slots[1].start_s - 1.1e-3).abs() < 1e-12);
        assert!((s.slots[3].start_s - 2.2e-3).abs() < 1e-12);
        assert_eq!(s.slots[2].start_s, 0.0);
        assert!((s.round_s - 3.3e-3).abs() < 1e-12);
    }

    #[test]
    fn assignment_prefers_the_nearer_ap() {
        let aps = ap_line(2, 8.0);
        // One node squarely in each AP's home region, facing its AP
        // (AP1 sits at (8, 0), so the second node's broadside azimuth
        // is ~0°, toward +x).
        let poses = [
            Pose::facing_ap(2.0, 0.0, deg_to_rad(10.0)),
            Pose::new(Point::new(8.0 - 2.0, 0.0), deg_to_rad(10.0)),
        ];
        let mut fabric = Fabric::new(&aps, &poses, NetConfig::milback(Fidelity::Fast));
        fabric.assign_cells();
        assert_eq!(fabric.assignment()[0], 0);
        assert_eq!(fabric.assignment()[1], 1);
    }

    #[test]
    fn rounds_advance_clock_and_digest_repeats() {
        let aps = ap_line(1, 4.0);
        let poses = net_roster(3, &aps, 3);
        let cfg = NetConfig {
            localize_fraction: 1.0,
            ..NetConfig::milback(Fidelity::Fast)
        };
        let mut fabric = Fabric::new(&aps, &poses, cfg);
        fabric.reseed(0xFAB);
        let a = fabric.run_round(1);
        assert_eq!(a.sessions, 3);
        assert!(a.round_airtime_s > 0.0);
        // Re-keyed fabric replays the identical round.
        fabric.reseed(0xFAB);
        let b = fabric.run_round(1);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.delivered, b.delivered);
    }
}
