//! The `fabric` workload: a `net::Fabric` of 2 APs and a roster well
//! beyond the 16-entry per-context ray cache, with 0.15 m drift and
//! 3-neighbour interference, run round after round on 2 workers.
//!
//! Every slot localizes. Under the default 60/40 localize/exchange mix a
//! slot's host time ranges from ~40 ms (localize) to ~600 ms (uplink),
//! and the workload's throughput spread 32% across ten seeds, past any
//! bound the benchmark may set. Localize-only slots keep what this
//! workload is for (cold ray caches, interference accumulation, the
//! steal pool, lane and scratch locks, drift and handoffs); the exchange
//! layers are measured on the `exchange` workload.

use crate::replay::{Replayer, Shape};
use crate::report::{self, Report};
use crate::serve_wl::FIX_BAND_M;
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use milback::batch::derive_seed;
use milback::SlotOutcome;
use milback::{ap_line, net_roster, Fabric, Fidelity, Interferer, NetConfig, Network, RoundReport};
use milback_dsp::num::Cpx;
use milback_node::node::BackscatterNode;
use milback_rf::channel::Scene;
use milback_rf::fsa::DualPortFsa;
use milback_rf::geometry::{Point, Pose};
use milback_telemetry as telemetry;
use std::time::Instant;

/// Nodes in the roster.
const NODES: usize = 40;
/// APs on a line, this far apart.
const APS: usize = 2;
const SPACING_M: f64 = 4.0;
/// Workers the fabric runs on.
const WORKERS: usize = 2;
/// Rounds per second of `--seconds`, sized so one run's rounds take
/// about `--seconds` on a 2-core x86-64 host.
const ROUNDS_PER_SECOND: f64 = 1.0;
/// The deployment is fixed: `--seed` draws the fabric's master seed
/// (per-round drift, channel randomness) over this one roster. Which
/// nodes sit on the cell border decides how many fixes fail, so a
/// seed-drawn roster would move `delivered_frac` by ±10%.
const ROSTER_SEED: u64 = 0xFAB_0001;
/// Distinct fabric set-ups whose times `setup_s` is the median of, and
/// takes of each in the untraced run, spread over its rounds as the
/// serving workloads spread theirs over their passes.
const SETUP_REPS: usize = 3;
const SETUP_TAKES: usize = 2;
/// Per-axis drift bound: a drifted pose lies within `DRIFT_M * √2` of
/// its roster pose.
const DRIFT_M: f64 = 0.15;
/// Share of fixes that may lie beyond the range band. About 2% do: nodes
/// near the cell edge, 2.3 to 3 m from their AP with three parked
/// neighbours, where the localizer can lock onto a wrong peak.
const MAX_WRONG_FIX_FRAC: f64 = 0.05;
/// Rounds of each pass of the traced run's 2-1-2 worker scaling probe.
const SCALING_ROUNDS: usize = 3;

fn config() -> NetConfig {
    NetConfig {
        drift_step_m: DRIFT_M,
        localize_fraction: 1.0,
        ..NetConfig::milback(Fidelity::Fast)
    }
}

/// One timed round plus what the replay needs from it.
struct Round {
    report: RoundReport,
    assignment: Vec<usize>,
    outcomes: Vec<SlotOutcome>,
}

/// Runs `rounds` rounds from a fresh reseed, calling `after` with each
/// round as soon as it finishes (outside its timed region).
fn run_rounds(
    fabric: &mut Fabric,
    master: u64,
    rounds: usize,
    workers: usize,
    mut after: impl FnMut(usize, &Round),
) -> Vec<Round> {
    fabric.reseed(master);
    (0..rounds)
        .map(|r| {
            let report = fabric.run_round(workers);
            let round = Round {
                report,
                assignment: fabric.assignment().to_vec(),
                outcomes: (0..fabric.nodes()).map(|i| fabric.outcome(i)).collect(),
            };
            after(r, &round);
            round
        })
        .collect()
}

fn wall_s(rounds: &[Round]) -> f64 {
    rounds.iter().map(|r| r.report.wall_s).sum()
}

fn digests(rounds: &[Round]) -> Vec<u64> {
    rounds.iter().map(|r| r.report.digest).collect()
}

/// Runs the fabric workload and reports its metrics.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::new();
    // The traced run adds a 1-worker pass with a serial replay and the
    // scaling probe, so it runs half the rounds.
    let mut rounds = ((ROUNDS_PER_SECOND * seconds).round() as usize).max(1);
    if trace {
        rounds = rounds.div_ceil(2);
    }
    let aps = ap_line(APS, SPACING_M);
    let poses = net_roster(NODES, &aps, ROSTER_SEED);
    let master = derive_seed(seed, 0xFAB_0002);

    // Set-up: construction, first cell assignment and one warm-up round,
    // taken one at a time between the timed rounds (all up front in the
    // traced run, which does not report `setup_s`). Each set-up's time is
    // the fastest of its takes. The first fabric is the one measured.
    let set_up = || {
        let t0 = Instant::now();
        let mut f = Fabric::new(&aps, &poses, config());
        f.reseed(derive_seed(seed, 0xFAB_0003));
        f.run_round(WORKERS);
        (f, t0.elapsed().as_secs_f64())
    };
    let total_setups = SETUP_REPS * if trace { 1 } else { SETUP_TAKES };
    let stride = rounds.div_ceil(total_setups);
    let (mut fabric, first) = set_up();
    let mut setups = vec![first];
    if trace {
        setups.extend((1..total_setups).map(|_| set_up().1));
        telemetry::set_enabled(true);
        telemetry::reset();
    }
    let timed = run_rounds(&mut fabric, master, rounds, WORKERS, |r, _| {
        if (r + 1) % stride == 0 && setups.len() < total_setups {
            setups.push(set_up().1);
        }
    });
    let snap2 = trace.then(telemetry::snapshot);
    setups.extend((setups.len()..total_setups).map(|_| set_up().1));
    rep.set(
        "setup_s",
        stats::median(&stats::fastest_per_index(&setups, SETUP_REPS)),
    );
    rep.line(report::setup_line(&setups, SETUP_REPS));

    // --- Fixes ---------------------------------------------------------
    // The fabric does not report drifted poses, but drift keeps each
    // within `DRIFT_M * √2` of its roster pose, so a right fix lies
    // within that plus `FIX_BAND_M` of the roster pose's range to its
    // serving AP. A fix beyond it is wrong and is not delivered.
    let band_m = FIX_BAND_M + DRIFT_M * std::f64::consts::SQRT_2;
    let tx = Scene::milback_indoor().tx_pos;
    let range_err_cm: Vec<f64> = timed
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| o.fix_range_bits != u64::MAX)
        .map(|o| {
            let truth = tx.distance_to(&local(poses[o.node], aps[o.cell]).position);
            (f64::from_bits(o.fix_range_bits) - truth).abs() * 100.0
        })
        .collect();
    let wrong = range_err_cm
        .iter()
        .filter(|&&e| e >= band_m * 100.0)
        .count();

    // --- End-to-end metrics ------------------------------------------
    let mut tally = Tally::default();
    let mut handoffs = 0u64;
    for r in &timed {
        let r = &r.report;
        tally.attempted += r.sessions as u64;
        tally.delivered += r.delivered as u64;
        tally.failed += (r.sessions - r.completed) as u64;
        handoffs += r.handoffs as u64;
    }
    tally.delivered -= wrong as u64;
    let wall2 = wall_s(&timed);
    rep.set("sessions_per_s", tally.attempted as f64 / wall2);
    // The fabric exposes no per-slot wall time: a round's host time per
    // slot is the session-time sample.
    let per_slot_ms: Vec<f64> = timed
        .iter()
        .map(|r| r.report.wall_s * 1e3 / r.report.sessions as f64)
        .collect();
    rep.set("session_p50_ms", stats::median(&per_slot_ms));
    rep.set("delivered_frac", tally.delivered_frac());
    rep.set("failed_frac", tally.failed_frac());
    if let Ok(v) = stats::percentile(&range_err_cm, 0.5) {
        rep.set("range_err_p50_cm", v);
    }
    rep.tally = tally;
    rep.line(format!(
        "outcome {} rounds x {NODES} slots on {WORKERS} workers: {} delivered, {} failed, \
         {handoffs} handoffs; {} fixes, {wrong} beyond {band_m:.3} m; s per round: {}",
        timed.len(),
        tally.delivered,
        tally.failed,
        range_err_cm.len(),
        timed
            .iter()
            .map(|r| format!("{:.3}", r.report.wall_s))
            .collect::<Vec<_>>()
            .join(" "),
    ));

    // --- Output checks -------------------------------------------------
    let d2 = digests(&timed);
    let fold = d2.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &d| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01b3)
    });
    rep.line(format!(
        "digest {WORKERS}-worker rounds (folded)        {fold:#018x}"
    ));
    rep.check(
        "every slot resolved",
        timed
            .iter()
            .all(|r| r.report.sessions == NODES && r.outcomes.len() == NODES),
    );
    rep.check(
        &format!(
            "wrong fixes at most {:.0}% ({wrong} of {})",
            MAX_WRONG_FIX_FRAC * 100.0,
            range_err_cm.len()
        ),
        !range_err_cm.is_empty() && wrong as f64 <= MAX_WRONG_FIX_FRAC * range_err_cm.len() as f64,
    );
    let check_rounds = if trace { rounds } else { 1 };
    if trace {
        telemetry::reset();
    }
    // The traced run replays each serial round right after it, so the
    // replay and the untraced time it reconciles against see the same
    // host state. Telemetry is off during the replay: the snapshot
    // counts only the fabric's own work.
    let mut replay = trace.then(|| SlotReplay::new(&aps, &poses, master));
    let serial = run_rounds(&mut fabric, master, check_rounds, 1, |r, round| {
        if let Some(rp) = replay.as_mut() {
            telemetry::set_enabled(false);
            rp.round(r, round);
            telemetry::set_enabled(true);
        }
    });
    let snap1 = trace.then(telemetry::snapshot);
    let d1 = digests(&serial);
    rep.line(format!(
        "digest round 0: 1 worker {:#018x}, {WORKERS} workers {:#018x}",
        d1[0], d2[0]
    ));
    rep.check(
        &format!("1-worker digest == {WORKERS}-worker digest ({check_rounds} rounds)"),
        d1[..] == d2[..check_rounds],
    );

    if let (Some(snap2), Some(snap1)) = (snap2, snap1) {
        rep.check(
            "work counts equal at 1 and 2 workers",
            report::counts_digest(&snap1) == report::counts_digest(&snap2),
        );
        // `.local` counts (ray cache, FFT plans) are deterministic only
        // at a fixed worker count: take them from the serial pass, and
        // the plan misses from the workload's own 2-worker pass.
        report::layer_counts(&mut rep, &snap1, tally.attempted);
        rep.set(
            "dsp.plan_miss_after_warm",
            report::counter(&snap2, "dsp.plan_cache.miss.local") as f64,
        );
        rep.set("net.handoffs", handoffs as f64);
        let round_ms: Vec<f64> = timed.iter().map(|r| r.report.wall_s * 1e3).collect();
        rep.set("net.round_ms", stats::median(&round_ms));
        scaling(&mut rep, &mut fabric, master, &d2);
        if let Some(rp) = replay {
            let stem = format!("fabric-seed{seed}");
            report::attribution(&mut rep, &rp.tracer, &stem, wall_s(&serial) * 1e9, None);
        }
    }
    rep
}

/// `net.scaling_2w`: 1-worker over 2-worker wall of the same rounds,
/// from passes alternated 2-1-2 with telemetry off and no replay, so
/// host drift during the probe falls on both sides of the ratio.
fn scaling(rep: &mut Report, fabric: &mut Fabric, master: u64, d2: &[u64]) {
    telemetry::set_enabled(false);
    let n = SCALING_ROUNDS.min(d2.len());
    let mut walls = [Vec::new(), Vec::new()];
    let mut same = true;
    for workers in [WORKERS, 1, WORKERS] {
        let pass = run_rounds(fabric, master, n, workers, |_, _| {});
        same &= digests(&pass)[..] == d2[..n];
        walls[usize::from(workers == 1)].push(wall_s(&pass));
    }
    let (w2, w1) = (stats::median(&walls[0]), stats::median(&walls[1]));
    rep.set("net.scaling_2w", w1 / w2);
    rep.line(format!(
        "net    scaling probe, {n} rounds per pass: {WORKERS} workers {:.3} s, 1 worker {w1:.3} s, \
         {WORKERS} workers {:.3} s",
        walls[0][0], walls[0][1]
    ));
    rep.check("scaling probe digests == timed digests", same);
}

/// Replays every slot of a round stage by stage under spans. The replay
/// uses the roster poses: the fabric does not report its drifted ones,
/// so that difference stays in the residual together with the fabric's
/// own scheduling work.
struct SlotReplay {
    aps: Vec<Point>,
    poses: Vec<Pose>,
    master: u64,
    fsa: DualPortFsa,
    parked: [Cpx; 2],
    /// Closed-form response of every node toward every AP, for the
    /// strongest-neighbour interferer pick.
    response: Vec<Vec<f64>>,
    /// One replay lane, re-posed per slot: the fabric's per-node lanes
    /// each pool their own scratch, which the replay need not duplicate.
    replayer: Replayer,
    tracer: Tracer,
}

fn local(p: Pose, ap: Point) -> Pose {
    Pose::new(
        Point::new(p.position.x - ap.x, p.position.y - ap.y),
        p.facing,
    )
}

impl SlotReplay {
    fn new(aps: &[Point], poses: &[Pose], master: u64) -> Self {
        let cfg = config();
        let node = BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0));
        let mut scene = Scene::milback_indoor();
        let response = poses
            .iter()
            .map(|&p| {
                aps.iter()
                    .map(|&ap| {
                        let l = local(p, ap);
                        scene.steer_towards(&l.position);
                        milback_ap::coverage::response_db(&scene, &l, &node.fsa)
                    })
                    .collect()
            })
            .collect();
        let lane = Network::new(local(poses[0], aps[0]), cfg.fidelity, 0);
        Self {
            aps: aps.to_vec(),
            poses: poses.to_vec(),
            master,
            fsa: node.fsa,
            parked: node.parked_gamma(),
            response,
            replayer: Replayer::new(vec![lane], cfg.session),
            tracer: Tracer::new(),
        }
    }

    fn round(&mut self, round_idx: usize, round: &Round) {
        let round_seed = derive_seed(self.master, round_idx as u64);
        let mut order: Vec<Vec<usize>> = vec![Vec::new(); self.aps.len()];
        for (i, &cell) in round.assignment.iter().enumerate() {
            order[cell].push(i);
        }
        for (cell, members) in order.iter_mut().enumerate() {
            let resp = &self.response;
            members.sort_by(|&a, &b| resp[b][cell].total_cmp(&resp[a][cell]).then(a.cmp(&b)));
        }
        for (i, out) in round.outcomes.iter().enumerate() {
            let cell = round.assignment[i];
            let ap = self.aps[cell];
            let net = &mut self.replayer.lanes[0];
            net.set_node_pose(local(self.poses[i], ap));
            net.interferers.clear();
            for &j in order[cell]
                .iter()
                .filter(|&&j| j != i)
                .take(usize::from(out.interferers))
            {
                net.interferers.push(Interferer {
                    pose: local(self.poses[j], ap),
                    fsa: self.fsa,
                    gamma: self.parked,
                });
            }
            self.replayer.replay(
                &mut self.tracer,
                &Shape {
                    session: (round_idx * self.poses.len() + i) as u64,
                    node: 0,
                    workload: out.workload,
                    seed: derive_seed(round_seed, i as u64),
                    start_s: 0.0,
                    intensity: 0.0,
                    mode_attempts: 0,
                    payload_attempts: 0,
                    shed: false,
                    payload_len: 0,
                },
            );
        }
    }
}
