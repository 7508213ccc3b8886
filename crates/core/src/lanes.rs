//! The lane pool under both multi-node engines (DESIGN.md §15–16).
//!
//! A *lane* is one node's persistent state: its [`Network`] (whose
//! session clock and RNG carry across that node's sessions), a pooled
//! packet buffer, and whatever per-node state the engine keeps.
//! [`LanePool`] holds the lanes behind `Mutex`es together with the
//! scratch [`SessionCtx`] pool and the work-stealing claim flags, and
//! [`serve_session`] is the one body that runs a session against a lane
//! and records it. The serving engine ([`crate::serve`]) and the fabric
//! ([`crate::net`]) are schedulers on top: they decide which lane runs
//! which job, at what clock and with which seed — never how a session
//! runs.

use crate::batch::{run_stealing_with_threads, StealQueue};
use crate::config::Fidelity;
use crate::network::Network;
use crate::serve::{Outcome, Resolution, Workload};
use crate::session::{FailureKind, Session, SessionCtx};
use milback_proto::packet::{LinkMode, Packet};
use milback_rf::geometry::Pose;
use std::sync::{Mutex, MutexGuard};

/// One node's lane: its [`Network`], a pooled packet buffer and the
/// engine's per-node `state`. Jobs run against their lane serially,
/// which is what makes per-node order meaningful.
pub(crate) struct Lane<S> {
    pub(crate) net: Network,
    pub(crate) packet: Packet,
    pub(crate) state: S,
}

/// Lanes, scratch contexts and claim flags, all reused across runs.
pub(crate) struct LanePool<S> {
    lanes: Vec<Mutex<Lane<S>>>,
    ctxs: Vec<Mutex<SessionCtx>>,
    claims: StealQueue,
}

impl<S: Send> LanePool<S> {
    /// One lane per pose, each starting from `state()`. The only
    /// per-node allocations an engine makes happen here.
    pub(crate) fn new(
        poses: impl IntoIterator<Item = Pose>,
        fidelity: Fidelity,
        state: impl Fn() -> S,
    ) -> Self {
        let lanes = poses
            .into_iter()
            .map(|pose| {
                Mutex::new(Lane {
                    net: Network::new(pose, fidelity, 0),
                    packet: Packet {
                        mode: LinkMode::Downlink,
                        payload: Vec::new(),
                    },
                    state: state(),
                })
            })
            .collect();
        Self {
            lanes,
            ctxs: Vec::new(),
            claims: StealQueue::new(),
        }
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Every lane, exclusively (resets and aggregation between runs).
    pub(crate) fn lanes_mut(&mut self) -> impl Iterator<Item = &mut Lane<S>> {
        self.lanes
            .iter_mut()
            .map(|l| l.get_mut().unwrap_or_else(|e| e.into_inner()))
    }

    /// Locks lane `i`.
    pub(crate) fn lock(&self, i: usize) -> MutexGuard<'_, Lane<S>> {
        self.lanes[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Readies the pool for `n` jobs on up to `threads` workers: one
    /// scratch context per worker that can actually run, cleared claim
    /// flags. Returns the worker count to hand to [`LanePool::run`].
    pub(crate) fn prepare(&mut self, n: usize, threads: usize) -> usize {
        let workers = threads.max(1).min(n.max(1));
        while self.ctxs.len() < workers {
            self.ctxs.push(Mutex::new(SessionCtx::new()));
        }
        self.claims.reset(n);
        workers
    }

    /// Runs jobs `0..n` over the work-stealing pool. Job `j` locks lane
    /// `lane_of(j)`, checks out a scratch context and calls `f(lane
    /// index, lane, ctx)`. Which worker runs a job — and which context
    /// it gets — never changes what the job computes.
    pub(crate) fn run<F>(
        &self,
        n: usize,
        workers: usize,
        lane_of: impl Fn(usize) -> usize + Sync,
        f: F,
    ) where
        F: Fn(usize, &mut Lane<S>, &mut SessionCtx) + Sync,
    {
        if n == 0 {
            return;
        }
        run_stealing_with_threads(&self.claims, n, workers, |job| {
            let i = lane_of(job);
            let mut lane = self.lock(i);
            // Start at this job's context and take the first free one;
            // with one worker context 0 is always free and the whole
            // loop stays inline.
            let n_ctx = self.ctxs.len();
            let ctx = (0..n_ctx).find_map(|k| self.ctxs[(job + k) % n_ctx].try_lock().ok());
            let mut ctx = ctx.unwrap_or_else(|| {
                self.ctxs[job % n_ctx]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
            });
            f(i, &mut lane, &mut ctx);
        });
    }
}

/// Runs one session of class `res.workload` on a lane and records it
/// in `res`: `Localize` runs Field 2 alone, the exchange classes fill
/// `packet` with a `payload_len`-byte payload keyed by `seed` and run
/// the supervised exchange (Field 2 shed when `res.shed`). The lane's
/// RNG is reseeded from `seed`; the caller sets its clock, pose and
/// faults. Everything `res` gains is a function of those inputs.
pub(crate) fn serve_session(
    session: &Session,
    ctx: &mut SessionCtx,
    net: &mut Network,
    packet: &mut Packet,
    payload_len: usize,
    seed: u64,
    res: &mut Resolution,
) {
    net.reseed(seed);
    if res.workload == Workload::Localize {
        let s = session.localize_in(ctx, net);
        res.outcome = Outcome::Completed;
        res.chirps_used = s.chirps_used.min(255) as u8;
        res.degradations = (s.dropped > 0) as u8 + s.fell_back as u8 + s.fix.is_none() as u8;
        res.delivered = s.fix.is_some();
        res.fix_range_bits = s.fix.map_or(u64::MAX, |f| f.range.to_bits());
        return;
    }
    packet.mode = if res.workload == Workload::Downlink {
        LinkMode::Downlink
    } else {
        LinkMode::Uplink
    };
    packet.payload.clear();
    packet.payload.extend(
        (0..payload_len).map(|i| (seed.rotate_left(((i % 8) * 8) as u32) as u8) ^ (i as u8)),
    );
    match session.run_in(ctx, net, packet, res.shed) {
        Ok(r) => {
            res.outcome = Outcome::Completed;
            res.mode_attempts = r.mode_attempts.min(255) as u8;
            res.payload_attempts = r.payload_attempts.min(255) as u8;
            res.chirps_used = r.chirps_used.min(255) as u8;
            res.degradations = r.degradations.len().min(255) as u8;
            res.delivered = match res.workload {
                Workload::Downlink => r.downlink.as_ref().is_some_and(|d| d.payload.is_ok()),
                _ => r.uplink.as_ref().is_some_and(|u| u.payload.is_ok()),
            };
            res.fix_range_bits = r.fix.map_or(u64::MAX, |f| f.range.to_bits());
        }
        Err(e) => {
            res.outcome = Outcome::Failed(e.kind);
            res.degradations = e.degradations.len().min(255) as u8;
            match e.kind {
                FailureKind::ModeDetect => res.mode_attempts = e.attempts.min(255) as u8,
                FailureKind::Payload => res.payload_attempts = e.attempts.min(255) as u8,
            }
        }
    }
}
