//! Self-healing packet sessions (DESIGN.md §14).
//!
//! This module runs the paper's §7 packet exchange the way a deployment
//! would: bounded retry with exponential backoff on Field-1
//! mode detection, localization fallback to a reduced-chirp
//! background-subtraction estimate when Field-2 chirps die, ARQ-budgeted
//! payload delivery driven by the same [`Backoff`] policy, and a typed
//! [`SessionError`]/[`Degradation`] report in place of silence.
//!
//! Retries are not free: every render and every backoff advances
//! [`Network::clock_s`], the session clock the fault windows of
//! [`milback_rf::faults`] are scheduled against. Backing off past the
//! end of a blockage window is therefore *real* recovery — the retry
//! re-renders the channel at a later time and genuinely sees it clear —
//! which is what `tests/robustness.rs` pins.

use crate::link::{DownlinkReport, LinkScratch, UplinkReport, MIN_TONE_SEPARATION};
use crate::network::{Field2Burst, Network};
use milback_ap::ranging::LocalizationResult;
use milback_ap::tone_select::{select_tones, ToneSelection};
use milback_ap::workspace::DspWorkspace;
use milback_dsp::signal::Signal;
use milback_proto::arq::{ArqReceiver, ArqSender, ArqVerdict, Backoff};
use milback_proto::packet::{LinkMode, Packet};
use milback_rf::channel::TxComponent;
use milback_rf::workspace::ChannelWorkspace;
use milback_telemetry as telemetry;
use std::cell::RefCell;

/// A non-fatal deviation from the clean exchange. The session completed
/// (or kept going), but something had to be retried, discarded or given
/// up along the way — each variant names what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// Field-1 mode detection needed retries before the node heard the
    /// right mode (`attempts` includes the final, successful one).
    ModeRetries {
        /// Total Field-1 transmissions.
        attempts: usize,
    },
    /// Field-2 chirps were discarded as dead (blocked/dropped) before
    /// localization.
    ChirpLoss {
        /// Chirps discarded.
        dropped: usize,
        /// Chirps retained for localization.
        used: usize,
    },
    /// Localization ran on fewer than the configured chirp count — the
    /// reduced-chirp background-subtraction fallback (§5.1 needs only
    /// two chirps for one subtraction pair).
    ReducedChirpFallback {
        /// Chirps the estimate was computed from.
        used: usize,
    },
    /// Localization produced no fix even after chirp triage.
    NoFix,
    /// The node could not estimate its own orientation from Field 1.
    NoNodeOrientation,
    /// The AP has no orientation to plan carriers from: Field 2 gave
    /// none, or a shed session's network never sensed one.
    NoApOrientation,
    /// The payload needed ARQ retries (`attempts` includes the final,
    /// successful one).
    PayloadRetries {
        /// Total payload transmissions.
        attempts: usize,
    },
    /// Field-2 work (localization + AP-side orientation) was shed by the
    /// serving engine's overload policy before any chirps went on air:
    /// no fix was attempted, but Field-1 mode signalling and the payload
    /// ARQ still ran, with the tone plan taken from the lane's last
    /// sensed AP orientation instead of a fresh Field-2 sense
    /// (DESIGN.md §15).
    Field2Shed,
}

/// Which stage of the exchange ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The node never detected the announced mode within the retry
    /// budget — the exchange cannot proceed at all.
    ModeDetect,
    /// The payload never delivered within the ARQ budget.
    Payload,
}

/// Terminal session failure: the stage that gave up, how many attempts
/// it burned, and every degradation observed before the failure (the
/// partial story is often the useful part of the report).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionError {
    /// The stage that exhausted its budget.
    pub kind: FailureKind,
    /// Attempts spent at that stage.
    pub attempts: usize,
    /// Degradations accumulated before the failure.
    pub degradations: Vec<Degradation>,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FailureKind::ModeDetect => write!(
                f,
                "mode detection failed after {} attempts ({} degradations)",
                self.attempts,
                self.degradations.len()
            ),
            FailureKind::Payload => write!(
                f,
                "payload delivery failed after {} attempts ({} degradations)",
                self.attempts,
                self.degradations.len()
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// Payload symbol rate the packet's nominal airtime is quoted at:
/// [`SessionConfig::milback`]'s 1 Msym/s. Sessions at other rates charge
/// payload airtime scaled by `NOMINAL_SYMBOL_RATE / symbol_rate`, so the
/// default config charges exactly the packet's nominal payload airtime
/// while a faster or slower link pays its real airtime.
pub const NOMINAL_SYMBOL_RATE: f64 = 1e6;

/// Retry/fallback budgets for one supervised exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Field-1 transmissions allowed (1 original + retries).
    pub mode_attempts: usize,
    /// Payload transmissions allowed (ARQ budget).
    pub payload_attempts: usize,
    /// Backoff policy between retries (shared with `proto::arq`).
    pub backoff: Backoff,
    /// Minimum chirps localization may fall back to (≥ 2: background
    /// subtraction needs one pair).
    pub min_chirps: usize,
    /// A chirp whose capture energy falls below this fraction of the
    /// burst's median is discarded as dead before localization.
    pub energy_floor: f64,
    /// Payload symbol rate, symbols/s.
    pub symbol_rate: f64,
    /// Field-2 chirps rendered for localization (the paper's burst is
    /// five; a shorter burst trades subtraction pairs for airtime). Must
    /// be ≥ 2 — background subtraction needs one pair. Charged Field-2
    /// airtime scales with the count.
    pub field2_chirps: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self::milback()
    }
}

impl SessionConfig {
    /// Defaults matched to the paper's packet: four attempts per stage,
    /// the shared 5 ms-doubling backoff, fallback floor of two chirps,
    /// dead below 5% of median energy, 1 Msym/s payload.
    pub fn milback() -> Self {
        Self {
            mode_attempts: 4,
            payload_attempts: 4,
            backoff: Backoff::milback(),
            min_chirps: 2,
            energy_floor: 0.05,
            symbol_rate: 1e6,
            field2_chirps: 5,
        }
    }

    /// Charged Field-2 airtime for one window under this config: the
    /// per-chirp duration times the configured chirp count. Identical to
    /// `pkt.field2_duration()` at the default five chirps.
    pub fn field2_airtime_s(&self, pkt: &milback_proto::packet::PacketConfig) -> f64 {
        pkt.field2_chirp.duration * self.field2_chirps as f64
    }

    /// Charged payload airtime under this config: the packet's nominal
    /// payload duration scaled by `NOMINAL_SYMBOL_RATE / symbol_rate`.
    /// Exactly `pkt.payload_duration()` at the default 1 Msym/s.
    pub fn payload_airtime_s(&self, pkt: &milback_proto::packet::PacketConfig) -> f64 {
        pkt.payload_duration() * (NOMINAL_SYMBOL_RATE / self.symbol_rate)
    }
}

/// What a supervised exchange accomplished, degradations included.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The packet's direction.
    pub mode: LinkMode,
    /// Field-1 transmissions used (1 = clean).
    pub mode_attempts: usize,
    /// Localization fix (possibly from the reduced-chirp fallback).
    pub fix: Option<LocalizationResult>,
    /// Chirps localization actually used.
    pub chirps_used: usize,
    /// The node's own orientation estimate, radians.
    pub node_orientation: Option<f64>,
    /// The AP's orientation estimate, radians.
    pub ap_orientation: Option<f64>,
    /// Payload transmissions used (1 = clean).
    pub payload_attempts: usize,
    /// Downlink result of the delivering attempt.
    pub downlink: Option<DownlinkReport>,
    /// Uplink result of the delivering attempt.
    pub uplink: Option<UplinkReport>,
    /// Every deviation from the clean exchange, in order of occurrence.
    pub degradations: Vec<Degradation>,
    /// Total time spent waiting in backoff, seconds.
    pub backoff_s: f64,
}

/// Pooled per-session scratch state (DESIGN.md §15), the one home of
/// every reusable buffer and cache a supervised exchange touches: the
/// AP's DSP workspace, the channel-synthesis cache every render goes
/// through, the Field-2 render buffers, the link-layer buffers and the
/// triage scratch. The [`Network`] keeps deployment state only. The
/// serving engine owns one `SessionCtx` per pool slot and checks it out
/// per session, so the steady-state localization service loop performs
/// zero heap allocations (pinned by `tests/zero_alloc.rs`).
#[derive(Default)]
pub struct SessionCtx {
    /// AP-side DSP buffers (dechirp → FFT → background → detection).
    pub dsp: DspWorkspace,
    /// Field-2 channel caches + the one-shot render scratch (DESIGN.md
    /// §13).
    pub chan: ChannelWorkspace,
    /// Field-2 render buffers: TX reference + per-chirp capture pairs,
    /// and the Field-2 chirp.
    pub burst: Field2Burst,
    /// The Field-1 triangular chirp, synthesized on the first Field-1
    /// render that needs it and again only when its config changes.
    pub(crate) field1_chirp: Option<TxComponent>,
    /// Downlink/uplink transfer buffers.
    pub(crate) link: LinkScratch,
    /// Per-chirp burst energies (triage input).
    energies: Vec<f64>,
    /// Sort scratch for the triage energy median.
    energy_sort: Vec<f64>,
    /// Triage verdict per chirp.
    alive: Vec<bool>,
}

impl SessionCtx {
    /// An empty context; buffers grow to working size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// The context of callers that don't pool their own (batch workers,
    /// figures, tests): warms once per thread.
    static RUN_CTX: RefCell<SessionCtx> = RefCell::new(SessionCtx::default());
}

/// Runs `f` with this thread's shared [`SessionCtx`]. The public
/// convenience entry points ([`Session::run`], `Network::localize`,
/// `Network::downlink`, ...) borrow it here at their outermost frame and
/// hand it down. A re-entrant checkout runs `f` on a fresh context
/// instead: bitwise the same result, only cold.
pub(crate) fn with_run_ctx<R>(f: impl FnOnce(&mut SessionCtx) -> R) -> R {
    RUN_CTX.with(|c| match c.try_borrow_mut() {
        Ok(mut ctx) => f(&mut ctx),
        Err(_) => f(&mut SessionCtx::default()),
    })
}

/// Outcome of one Field-2-only localization request — the serving
/// engine's `Localize` service class, which skips Field 1 and the
/// payload entirely. Plain `Copy` data so pooled serving slots can
/// record it without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizeSummary {
    /// The fix (possibly from the reduced-chirp fallback).
    pub fix: Option<LocalizationResult>,
    /// Chirps localization actually used.
    pub chirps_used: usize,
    /// Chirps discarded as dead by the energy triage.
    pub dropped: usize,
    /// Whether the reduced-chirp fallback ran.
    pub fell_back: bool,
}

/// Supervisor wrapping one packet exchange with retry, fallback and
/// typed reporting. Owns no network state — borrow a [`Network`] per
/// call so batch trials stay index-addressed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Session {
    /// Budgets and policies for this session.
    pub config: SessionConfig,
}

impl Session {
    /// Creates a supervisor with the given budgets.
    pub fn new(config: SessionConfig) -> Self {
        Self { config }
    }

    /// Runs one supervised exchange of `packet` over `net`.
    ///
    /// On a clean channel with an empty
    /// [`milback_rf::faults::FaultPlan`] every stage runs once: Field-1
    /// mode signalling ([`crate::protocol`]) and node orientation, one
    /// Field-2 burst for the fix and the AP orientation, then the payload
    /// over carriers planned once from that orientation. A one-shot
    /// exchange is a session with `mode_attempts` and
    /// `payload_attempts` of 1. Under faults the supervisor retries Field 1
    /// with backoff, triages dead Field-2 chirps before localization,
    /// and drives the payload through its ARQ budget; it returns
    /// `Err(SessionError)` only when a budget is exhausted.
    ///
    /// Scratch comes from a thread-local [`SessionCtx`]; pooled callers
    /// (the serving engine) use [`Session::run_in`] with their own.
    pub fn run(&self, net: &mut Network, packet: &Packet) -> Result<SessionReport, SessionError> {
        with_run_ctx(|ctx| self.run_in(ctx, net, packet, false))
    }

    /// [`Session::run`] with caller-owned scratch and an overload flag.
    ///
    /// With `shed_field2 == false` this is exactly `run` (same renders,
    /// same RNG draws, same report). With `shed_field2 == true` — the
    /// serving engine's load-shedding path — no Field 2 goes on air,
    /// [`Degradation::Field2Shed`] is recorded, and the payload plans
    /// from the network's last sensed AP orientation so the ARQ stays
    /// alive under overload; a network that never sensed records
    /// [`Degradation::NoApOrientation`] and fails [`FailureKind::Payload`].
    pub fn run_in(
        &self,
        ctx: &mut SessionCtx,
        net: &mut Network,
        packet: &Packet,
        shed_field2: bool,
    ) -> Result<SessionReport, SessionError> {
        let cfg = &self.config;
        let pkt = net.fidelity.packet();
        let mut degradations: Vec<Degradation> = Vec::new();
        let mut backoff_s = 0.0;

        // --- Field 1: mode signalling, with retry + backoff ------------
        let mut mode_attempts = 0;
        loop {
            mode_attempts += 1;
            let heard = net.signal_mode_in(ctx, packet.mode);
            net.clock_s += pkt.field1_duration();
            if heard == Some(packet.mode) {
                break;
            }
            telemetry::counter_add("core.session.mode_retry", 1);
            if mode_attempts >= cfg.mode_attempts {
                telemetry::counter_add("core.session.fail", 1);
                return Err(SessionError {
                    kind: FailureKind::ModeDetect,
                    attempts: mode_attempts,
                    degradations,
                });
            }
            let wait = cfg.backoff.delay_s(mode_attempts);
            net.clock_s += wait;
            backoff_s += wait;
        }
        if mode_attempts > 1 {
            degradations.push(Degradation::ModeRetries {
                attempts: mode_attempts,
            });
        }

        // --- Field 1: node-side orientation ----------------------------
        let node_orientation = net.sense_orientation_at_node_in(ctx);
        net.clock_s += pkt.field1_chirp.duration;
        if node_orientation.is_none() {
            degradations.push(Degradation::NoNodeOrientation);
        }

        // --- Field 2: one burst, fix + AP orientation (or shed) --------
        let (fix, chirps_used, ap_orientation, planned) = if shed_field2 {
            // Overload: no Field-2 chirps go on air at all — the airtime
            // is the saving — and the payload plans from the last sense.
            telemetry::counter_add("core.session.field2_shed", 1);
            degradations.push(Degradation::Field2Shed);
            if net.sensed_orientation.is_none() {
                degradations.push(Degradation::NoApOrientation);
            }
            (None, 0, None, net.sensed_orientation)
        } else {
            let s = self.triage_localize(ctx, net);
            net.clock_s += cfg.field2_airtime_s(&pkt);
            let (dropped, used) = (s.dropped, s.chirps_used);
            if dropped > 0 {
                degradations.push(Degradation::ChirpLoss { dropped, used });
            }
            if s.fell_back {
                degradations.push(Degradation::ReducedChirpFallback { used });
            }
            if s.fix.is_none() {
                degradations.push(Degradation::NoFix);
            }
            // A fix means `ctx.dsp` holds this burst's node detection.
            let ap_orientation = s
                .fix
                .and_then(|_| net.ap_orientation_in(&ctx.dsp, &ctx.burst.tx));
            if ap_orientation.is_none() {
                degradations.push(Degradation::NoApOrientation);
            }
            (s.fix, used, ap_orientation, ap_orientation)
        };
        let tones = planned.and_then(|o| select_tones(&net.node.fsa, o, MIN_TONE_SEPARATION));

        // --- Payload: ARQ with the shared backoff policy ----------------
        let mut downlink = None;
        let mut uplink = None;
        let payload_attempts = match packet.mode {
            LinkMode::Downlink => {
                self.deliver_downlink(ctx, net, packet, tones, &mut downlink, &mut backoff_s)
            }
            LinkMode::Uplink => {
                self.deliver_uplink(ctx, net, packet, tones, &mut uplink, &mut backoff_s)
            }
        };
        let Some(payload_attempts) = payload_attempts else {
            telemetry::counter_add("core.session.fail", 1);
            return Err(SessionError {
                kind: FailureKind::Payload,
                attempts: cfg.payload_attempts,
                degradations,
            });
        };
        if payload_attempts > 1 {
            degradations.push(Degradation::PayloadRetries {
                attempts: payload_attempts,
            });
        }

        telemetry::counter_add("core.session.ok", 1);
        Ok(SessionReport {
            mode: packet.mode,
            mode_attempts,
            fix,
            chirps_used,
            node_orientation,
            ap_orientation,
            payload_attempts,
            downlink,
            uplink,
            degradations,
            backoff_s,
        })
    }

    /// Runs one standalone Field-2 localization service request in
    /// caller-owned scratch: render, energy triage, (possibly
    /// reduced-chirp) processing, and the Field-2 airtime on the session
    /// clock. This is the serving engine's `Localize` workload — on a
    /// warmed [`SessionCtx`] with a clean channel it performs zero heap
    /// allocations (pinned by `tests/zero_alloc.rs`).
    pub fn localize_in(&self, ctx: &mut SessionCtx, net: &mut Network) -> LocalizeSummary {
        let pkt = net.fidelity.packet();
        let summary = self.triage_localize(ctx, net);
        net.clock_s += self.config.field2_airtime_s(&pkt);
        summary
    }

    /// Field-2 localization with energy triage: chirps whose capture
    /// energy collapses below `energy_floor` × median (blocked, dropped)
    /// are discarded, and localization falls back to the surviving
    /// subset — the §5.1 background subtraction needs only one chirp
    /// pair. Runs entirely in `ctx` buffers (the masked processing path
    /// avoids copying the retained subset), bitwise identical to the
    /// allocating implementation it replaced.
    ///
    /// Renders nothing and returns no fix, before any RNG draw, when the
    /// node or a parked interferer cannot be rendered (see
    /// [`Network::field2_captures_into`]).
    fn triage_localize(&self, ctx: &mut SessionCtx, net: &mut Network) -> LocalizeSummary {
        let cfg = &self.config;
        if !net.field2_captures_into(&mut ctx.chan, cfg.field2_chirps, &mut ctx.burst) {
            return LocalizeSummary {
                fix: None,
                chirps_used: 0,
                dropped: 0,
                fell_back: false,
            };
        }
        let n = ctx.burst.captures.len();

        // Per-chirp energy across both antennas.
        let energy = |pair: &[Signal; 2]| -> f64 {
            pair.iter()
                .map(|s| s.samples.iter().map(|c| c.norm_sq()).sum::<f64>())
                .sum()
        };
        ctx.energies.clear();
        ctx.energies.extend(ctx.burst.captures.iter().map(energy));
        ctx.energy_sort.clear();
        ctx.energy_sort.extend_from_slice(&ctx.energies);
        ctx.energy_sort.sort_by(f64::total_cmp);
        let median = ctx.energy_sort[n / 2];

        ctx.alive.clear();
        ctx.alive
            .extend(ctx.energies.iter().map(|&e| e > cfg.energy_floor * median));
        let n_alive = ctx.alive.iter().filter(|&&a| a).count();

        let localizer = net.localizer();
        if n_alive == n {
            // Clean burst: identical to the direct path.
            let fix = localizer.process_with(&mut ctx.dsp, &ctx.burst.tx, &ctx.burst.captures);
            return LocalizeSummary {
                fix,
                chirps_used: n,
                dropped: 0,
                fell_back: false,
            };
        }

        telemetry::counter_add("core.session.chirp_discard", (n - n_alive) as u64);
        if n_alive < cfg.min_chirps.max(2) {
            // Not even one subtraction pair survived.
            return LocalizeSummary {
                fix: None,
                chirps_used: n_alive,
                dropped: n - n_alive,
                fell_back: false,
            };
        }

        telemetry::counter_add("core.session.fallback", 1);
        let fix = localizer.process_masked_with(
            &mut ctx.dsp,
            &ctx.burst.tx,
            &ctx.burst.captures,
            &ctx.alive,
        );
        LocalizeSummary {
            fix,
            chirps_used: n_alive,
            dropped: n - n_alive,
            fell_back: true,
        }
    }

    /// Downlink payload with bounded repeat over the session's one
    /// carrier plan: the AP re-sends until the node's CRC passes or the
    /// budget runs out. Returns attempts used, or `None` on exhaustion
    /// (every attempt, when there is no plan).
    fn deliver_downlink(
        &self,
        ctx: &mut SessionCtx,
        net: &mut Network,
        packet: &Packet,
        tones: Option<ToneSelection>,
        out: &mut Option<DownlinkReport>,
        backoff_s: &mut f64,
    ) -> Option<usize> {
        let cfg = &self.config;
        let airtime_s = cfg.payload_airtime_s(&net.fidelity.packet());
        for attempt in 1..=cfg.payload_attempts {
            let report = net.downlink_in(ctx, &packet.payload, cfg.symbol_rate, |_, _| tones);
            // Single-carrier OOK carries 1 bit/symbol instead of 2, so
            // the same payload occupies twice the airtime.
            net.clock_s += match &report {
                Some(r) if r.tones.bits_per_symbol() == 1 => 2.0 * airtime_s,
                _ => airtime_s,
            };
            if let Some(r) = report {
                let ok = r.payload.is_ok();
                *out = Some(r);
                if ok {
                    return Some(attempt);
                }
            }
            telemetry::counter_add("core.session.arq_retry", 1);
            let wait = cfg.backoff.delay_s(attempt);
            net.clock_s += wait;
            *backoff_s += wait;
        }
        None
    }

    /// Uplink payload through the stop-and-wait ARQ machine, with the
    /// session's backoff between attempts, over the session's one
    /// carrier plan. Returns attempts used, or `None` on exhaustion.
    fn deliver_uplink(
        &self,
        ctx: &mut SessionCtx,
        net: &mut Network,
        packet: &Packet,
        tones: Option<ToneSelection>,
        out: &mut Option<UplinkReport>,
        backoff_s: &mut f64,
    ) -> Option<usize> {
        let cfg = &self.config;
        let airtime_s = cfg.payload_airtime_s(&net.fidelity.packet());
        let mut tx = ArqSender::new(cfg.payload_attempts);
        let mut rx = ArqReceiver::new();
        tx.start(&packet.payload);
        let mut attempts = 0;
        loop {
            attempts += 1;
            let report = net.uplink_in(ctx, tx.frame()?, cfg.symbol_rate, |_, _| tones);
            // OOK attempts take twice the airtime (see deliver_downlink).
            net.clock_s += match &report {
                Some(r) if r.tones.bits_per_symbol() == 1 => 2.0 * airtime_s,
                _ => airtime_s,
            };
            let ack = report.as_ref().and_then(|r| match &r.payload {
                Ok(received) => rx.on_frame(received).map(|(ack, _)| ack),
                Err(_) => None,
            });
            if let Some(r) = report {
                *out = Some(r);
            }
            match tx.on_ack_verdict(ack) {
                ArqVerdict::Delivered => return Some(attempts),
                ArqVerdict::GiveUp => return None,
                ArqVerdict::Retry => {
                    telemetry::counter_add("core.session.arq_retry", 1);
                    let wait = cfg.backoff.delay_s(attempts);
                    net.clock_s += wait;
                    *backoff_s += wait;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Fidelity;
    use milback_rf::faults::{FaultEvent, FaultKind, FaultPlan};
    use milback_rf::geometry::{deg_to_rad, Pose};

    fn net_at(dist: f64, seed: u64) -> Network {
        Network::new(
            Pose::facing_ap(dist, 0.0, deg_to_rad(12.0)),
            Fidelity::Fast,
            seed,
        )
    }

    #[test]
    fn clean_session_is_clean() {
        let mut net = net_at(2.0, 31);
        let packet = Packet::downlink((0..16).collect());
        let report = Session::default()
            .run(&mut net, &packet)
            .expect("clean session failed");
        assert!(
            report.degradations.is_empty(),
            "degradations: {:?}",
            report.degradations
        );
        assert_eq!(report.mode_attempts, 1);
        assert_eq!(report.payload_attempts, 1);
        assert_eq!(report.chirps_used, 5);
        assert!(report.fix.is_some());
        assert_eq!(report.backoff_s, 0.0);
    }

    #[test]
    fn clean_uplink_session() {
        let mut net = net_at(2.0, 32);
        let packet = Packet::uplink(vec![0x5C; 16]);
        let report = Session::default()
            .run(&mut net, &packet)
            .expect("clean uplink failed");
        assert!(
            report.degradations.is_empty(),
            "degradations: {:?}",
            report.degradations
        );
        assert!(report.uplink.is_some());
    }

    #[test]
    fn chirp_drop_triggers_reduced_chirp_fallback() {
        let mut net = net_at(2.0, 33);
        let pkt = net.fidelity.packet();
        // Kill exactly one Field-2 chirp: the session clock at Field-2
        // render time is field1_duration + one orientation chirp + one
        // mode-retry-free exchange — compute it the way Session does.
        let f2_start = pkt.field1_duration() + pkt.field1_chirp.duration;
        net.faults = FaultPlan {
            seed: 5,
            events: vec![FaultEvent {
                start_s: f2_start + 2.0 * pkt.field2_chirp.duration,
                duration_s: pkt.field2_chirp.duration,
                kind: FaultKind::ChirpDrop,
            }],
        };
        let packet = Packet::downlink((0..16).collect());
        let report = Session::default()
            .run(&mut net, &packet)
            .expect("session failed");
        assert!(
            report
                .degradations
                .iter()
                .any(|d| matches!(d, Degradation::ReducedChirpFallback { used: 4 })),
            "degradations: {:?}",
            report.degradations
        );
        let fix = report.fix.expect("fallback fix missing");
        assert!((fix.range - 2.0).abs() < 0.2, "range {}", fix.range);
    }

    #[test]
    fn mode_detect_failure_is_typed_not_silent() {
        let mut net = net_at(2.0, 34);
        // Block Field 1 so hard, for so long, that every retry dies.
        net.faults = FaultPlan {
            seed: 6,
            events: vec![FaultEvent {
                start_s: 0.0,
                duration_s: 10.0,
                kind: FaultKind::Blockage { depth_db: 80.0 },
            }],
        };
        let packet = Packet::downlink((0..16).collect());
        let err = Session::default()
            .run(&mut net, &packet)
            .expect_err("session should fail under permanent blockage");
        assert_eq!(err.kind, FailureKind::ModeDetect);
        assert_eq!(err.attempts, SessionConfig::milback().mode_attempts);
    }

    #[test]
    fn transient_blockage_is_survived_by_backoff() {
        let mut net = net_at(2.0, 35);
        // Blockage covering the first Field-1 attempt only; the 5 ms
        // backoff hops over it.
        net.faults = FaultPlan {
            seed: 7,
            events: vec![FaultEvent {
                start_s: 0.0,
                duration_s: 2e-3,
                kind: FaultKind::Blockage { depth_db: 80.0 },
            }],
        };
        let packet = Packet::downlink((0..16).collect());
        let report = Session::default()
            .run(&mut net, &packet)
            .expect("retry should have recovered");
        assert!(report.mode_attempts > 1, "expected a Field-1 retry");
        assert!(report
            .degradations
            .iter()
            .any(|d| matches!(d, Degradation::ModeRetries { .. })));
        assert!(report.backoff_s > 0.0);
    }

    #[test]
    fn run_in_without_shedding_matches_run() {
        let packet = Packet::downlink((0..16).collect());
        let mut a = net_at(2.0, 37);
        let mut b = net_at(2.0, 37);
        let ra = Session::default().run(&mut a, &packet).expect("run failed");
        let mut ctx = SessionCtx::new();
        let rb = Session::default()
            .run_in(&mut ctx, &mut b, &packet, false)
            .expect("run_in failed");
        assert_eq!(ra.fix, rb.fix);
        assert_eq!(ra.chirps_used, rb.chirps_used);
        assert_eq!(ra.mode_attempts, rb.mode_attempts);
        assert_eq!(ra.payload_attempts, rb.payload_attempts);
        assert_eq!(ra.node_orientation, rb.node_orientation);
        assert_eq!(ra.ap_orientation, rb.ap_orientation);
        assert_eq!(ra.degradations, rb.degradations);
        assert_eq!(ra.backoff_s, rb.backoff_s);
        assert_eq!(a.clock_s, b.clock_s, "session clocks diverged");
    }

    #[test]
    fn shed_session_keeps_payload_arq_alive() {
        let packet = Packet::downlink((0..16).collect());
        let mut ctx = SessionCtx::new();
        let session = Session::default();
        // Two networks that sense once alike, then run the same second
        // exchange shed and clean.
        let mut net = net_at(2.0, 36);
        let mut clean_net = net_at(2.0, 36);
        let cfg = SessionConfig::milback();
        let pkt = net.fidelity.packet();
        for n in [&mut net, &mut clean_net] {
            session
                .run_in(&mut ctx, n, &packet, false)
                .expect("sensing session failed");
        }
        let report = session
            .run_in(&mut ctx, &mut net, &packet, true)
            .expect("shed session failed");
        // Field-2 work dropped...
        assert!(report.fix.is_none());
        assert_eq!(report.chirps_used, 0);
        assert!(report.ap_orientation.is_none());
        assert_eq!(report.degradations, [Degradation::Field2Shed]);
        // ...but the payload delivered, and the Field-2 airtime was the
        // saving: a clean run of the same exchange spends exactly the
        // one skipped Field-2 window more session time.
        assert_eq!(report.payload_attempts, 1);
        let dl = report.downlink.expect("no downlink report");
        assert!(dl.payload.is_ok(), "shed payload failed CRC");
        session
            .run_in(&mut ctx, &mut clean_net, &packet, false)
            .expect("clean session failed");
        let saved = clean_net.clock_s - net.clock_s;
        assert!(
            (saved - cfg.field2_airtime_s(&pkt)).abs() < 1e-12,
            "shed saved {} s, expected one Field-2 window ({} s)",
            saved,
            cfg.field2_airtime_s(&pkt)
        );
    }

    #[test]
    fn shed_session_plans_from_the_last_sensed_orientation() {
        let packet = Packet::downlink((0..16).collect());
        let mut ctx = SessionCtx::new();
        let session = Session::default();
        let mut net = net_at(2.0, 39);
        let sensed = session
            .run_in(&mut ctx, &mut net, &packet, false)
            .expect("sensing session failed")
            .ap_orientation
            .expect("no AP orientation sensed");
        // The node turns after the last sense; the shed plan must not.
        net.set_node_pose(Pose::facing_ap(2.0, 0.0, deg_to_rad(16.0)));
        let report = session
            .run_in(&mut ctx, &mut net, &packet, true)
            .expect("shed session failed");
        let fsa = &net.node.fsa;
        let tones = report.downlink.expect("no downlink report").tones;
        assert_eq!(
            Some(tones),
            select_tones(fsa, sensed, MIN_TONE_SEPARATION),
            "shed tones did not follow the sensed orientation"
        );
        let now = net.node.pose.incidence_from(&net.scene.tx_pos);
        assert_ne!(Some(tones), select_tones(fsa, now, MIN_TONE_SEPARATION));
    }

    #[test]
    fn shed_session_without_a_sense_fails_typed() {
        let packet = Packet::uplink(vec![0x5C; 16]);
        let mut net = net_at(2.0, 40);
        let err = Session::default()
            .run_in(&mut SessionCtx::new(), &mut net, &packet, true)
            .expect_err("a never-sensed shed session delivered");
        assert_eq!(err.kind, FailureKind::Payload);
        assert_eq!(
            err.degradations,
            [Degradation::Field2Shed, Degradation::NoApOrientation]
        );
    }

    #[test]
    fn session_orientation_is_gated_from_the_localized_burst() {
        use milback_ap::orientation::ApOrientationEstimator;
        use milback_rf::fsa::Port;
        let packet = Packet::uplink(vec![0xA7; 16]);
        let mut ctx = SessionCtx::new();
        let mut net = net_at(2.5, 41);
        let report = Session::default()
            .run_in(&mut ctx, &mut net, &packet, false)
            .expect("session failed");
        // Re-derive from the session's own captures in a fresh workspace:
        // detection through the public tail, then the §5.2(a) gate.
        let (tx, captures) = (&ctx.burst.tx, &ctx.burst.captures);
        let localizer = net.localizer();
        let mut ws = DspWorkspace::new();
        assert_eq!(localizer.process_with(&mut ws, tx, captures), report.fix);
        let hit = localizer.detect_with(&mut ws, tx.fs).expect("no detection");
        let expect = ApOrientationEstimator::new(net.fidelity.sawtooth()).estimate_gated(
            &ws.antennas[0].diffs[hit.pair],
            hit.bin,
            localizer.gate_half_width(),
            tx.fs,
            tx.len(),
            localizer.proc.fft_len,
            &net.node.fsa,
            Port::A,
        );
        assert!(expect.is_some());
        assert_eq!(
            report.ap_orientation.map(f64::to_bits),
            expect.map(f64::to_bits)
        );
    }

    #[test]
    fn localize_in_matches_direct_localize() {
        let mut net = net_at(2.0, 38);
        let mut ctx = SessionCtx::new();
        let s = Session::default().localize_in(&mut ctx, &mut net);
        assert_eq!(s.chirps_used, 5);
        assert_eq!(s.dropped, 0);
        assert!(!s.fell_back);
        assert!(net.clock_s > 0.0, "Field-2 airtime not charged");
        // Bitwise identical to the thread-local localization path on a
        // fresh network with the same seed.
        assert_eq!(s.fix, net_at(2.0, 38).localize());
        assert!(s.fix.is_some());
    }

    #[test]
    fn nested_run_ctx_checkout_falls_back_to_a_fresh_ctx_bitwise() {
        // A fresh thread, so the shared context starts cold.
        std::thread::spawn(|| {
            let localize = || {
                let pose = Pose::facing_ap(2.5, 0.0, 0.0);
                let fix = Network::new(pose, Fidelity::Fast, 7).localize();
                fix.map(|r| {
                    let angle = r.angle.map(f64::to_bits);
                    (r.range.to_bits(), angle, r.peak_power.to_bits())
                })
            };
            let (held_entries, nested) = with_run_ctx(|held| {
                let nested = localize();
                (held.chan.cached_entries(), nested)
            });
            assert_eq!(held_entries, 0, "the nested checkout used the held ctx");
            let outer = localize();
            let expect = (
                0x4004_1609_83ac_108f,
                Some(0x3f76_3698_6ca7_921e),
                0x3f45_1f34_af81_fc2c,
            );
            assert_eq!(outer, Some(expect), "outer checkout");
            assert_eq!(nested, outer, "nested fallback");
            let warmed = with_run_ctx(|ctx| ctx.chan.cached_entries());
            assert!(warmed > 0, "the outer checkout did not keep its caches");
        })
        .join()
        .expect("checkout thread panicked");
    }

    #[test]
    fn session_error_formats() {
        let err = SessionError {
            kind: FailureKind::Payload,
            attempts: 4,
            degradations: vec![Degradation::NoFix],
        };
        let s = format!("{err}");
        assert!(s.contains("payload") && s.contains('4'), "{s}");
    }
}
