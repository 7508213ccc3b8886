//! Deterministic chaos sweeps: supervised sessions under sampled fault
//! plans, on the batch engine (DESIGN.md §14).
//!
//! Each trial derives its fault plan from the batch-engine trial seed
//! ([`crate::batch::derive_seed`] discipline), runs one supervised
//! exchange, and compresses the outcome into a [`ChaosOutcome`] — a
//! `PartialEq` value, so the chaos determinism pin is a single
//! `assert_eq!` between serial and parallel runs (`tests/chaos.rs`), and
//! its telemetry view is compared across processes and thread counts by
//! `crates/core/tests/determinism.rs`.

use crate::batch;
use crate::config::Fidelity;
use crate::network::Network;
use crate::session::{Degradation, FailureKind, Session, SessionConfig};
use milback_proto::packet::Packet;
use milback_rf::faults::FaultPlan;
use milback_rf::geometry::{deg_to_rad, Pose};

/// One point of a chaos sweep: fault intensity in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPoint {
    /// Fault intensity passed to [`FaultPlan::chaos`].
    pub intensity: f64,
    /// Node range from the AP, meters.
    pub range_m: f64,
}

/// Compressed per-trial result of a supervised exchange under faults.
/// Everything is exact-comparable (`f64` fields compare bitwise through
/// `PartialEq`), so serial == parallel is a plain equality check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOutcome {
    /// The exchange delivered its payload.
    pub delivered: bool,
    /// Field-1 transmissions used (0 when the session failed before
    /// completing Field 1's budget accounting).
    pub mode_attempts: usize,
    /// Payload transmissions used.
    pub payload_attempts: usize,
    /// Field-2 chirps localization used.
    pub chirps_used: usize,
    /// Number of degradations reported.
    pub degradations: usize,
    /// Range estimate of the fix (NaN-free sentinel: `-1.0` = no fix).
    pub range_est_m: f64,
    /// Failure stage for failed sessions.
    pub failure: Option<FailureKind>,
    /// Whether the reduced-chirp fallback fired.
    pub fell_back: bool,
}

/// Runs one supervised exchange at `point` with the fault plan derived
/// from `seed`. Pure function of its arguments — the chaos legs call it
/// from both serial and parallel batch runs and compare results
/// bitwise.
pub fn chaos_trial(point: &ChaosPoint, seed: u64) -> ChaosOutcome {
    let pose = Pose::facing_ap(point.range_m, 0.0, deg_to_rad(12.0));
    let mut net = Network::new(pose, Fidelity::Fast, seed);
    let pkt = net.fidelity.packet();
    // Fault horizon: a generous multiple of the packet airtime so
    // sampled windows land where the session actually is on its clock
    // (retry backoff stretches the exchange well past one airtime).
    let horizon_s = 8.0 * pkt.total_duration() + 0.2;
    net.faults = FaultPlan::chaos(seed, point.intensity, horizon_s);
    let packet = Packet::downlink((0..16).collect());
    let session = Session::new(SessionConfig::milback());
    match session.run(&mut net, &packet) {
        Ok(report) => ChaosOutcome {
            delivered: true,
            mode_attempts: report.mode_attempts,
            payload_attempts: report.payload_attempts,
            chirps_used: report.chirps_used,
            degradations: report.degradations.len(),
            range_est_m: report.fix.map_or(-1.0, |f| f.range),
            failure: None,
            fell_back: report
                .degradations
                .iter()
                .any(|d| matches!(d, Degradation::ReducedChirpFallback { .. })),
        },
        Err(err) => ChaosOutcome {
            delivered: false,
            mode_attempts: 0,
            payload_attempts: 0,
            chirps_used: 0,
            degradations: err.degradations.len(),
            range_est_m: -1.0,
            failure: Some(err.kind),
            fell_back: false,
        },
    }
}

/// Sweeps fault intensities over the batch engine: `trials` supervised
/// exchanges per point, all `points × trials` on one flat batch so a slow
/// point does not serialize the sweep. Trial `g` of the flat batch
/// (point `g / trials`) runs on seed [`batch::derive_seed`]`(master_seed,
/// g)`, so results are thread-count-invariant (pinned by
/// `tests/chaos.rs`).
pub fn chaos_sweep(
    points: &[ChaosPoint],
    trials: usize,
    master_seed: u64,
) -> Vec<Vec<ChaosOutcome>> {
    chaos_sweep_with_threads(points, trials, master_seed, batch::thread_count())
}

/// [`chaos_sweep`] with an explicit thread count (determinism checks).
pub fn chaos_sweep_with_threads(
    points: &[ChaosPoint],
    trials: usize,
    master_seed: u64,
    threads: usize,
) -> Vec<Vec<ChaosOutcome>> {
    let seeds: Vec<u64> = (0..points.len() * trials)
        .map(|g| batch::derive_seed(master_seed, g as u64))
        .collect();
    let flat = batch::par_map_with_threads(&seeds, threads, |&seed, g| {
        chaos_trial(&points[g / trials], seed)
    });
    let mut it = flat.into_iter();
    points
        .iter()
        .map(|_| it.by_ref().take(trials).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_sessions_deliver_cleanly() {
        let outcome = chaos_trial(
            &ChaosPoint {
                intensity: 0.0,
                range_m: 2.0,
            },
            77,
        );
        assert!(outcome.delivered);
        assert_eq!(outcome.degradations, 0);
        assert_eq!(outcome.chirps_used, 5);
    }

    #[test]
    fn chaos_trial_is_deterministic() {
        let p = ChaosPoint {
            intensity: 0.8,
            range_m: 2.5,
        };
        assert_eq!(chaos_trial(&p, 123), chaos_trial(&p, 123));
    }

    #[test]
    fn sweep_matches_explicit_thread_variant() {
        let points = [(0.0, 2.0), (0.5, 2.0), (0.9, 3.0)]
            .map(|(intensity, range_m)| ChaosPoint { intensity, range_m });
        let a = chaos_sweep(&points, 2, 99);
        let b = chaos_sweep_with_threads(&points, 2, 99, 1);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2, 2]);
        // Point-major: trial `j` of point `p` is flat trial `2p + j`.
        assert_eq!(a[2][1], chaos_trial(&points[2], batch::derive_seed(99, 5)));
    }
}
