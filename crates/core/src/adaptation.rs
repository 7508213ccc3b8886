//! Link adaptation (DESIGN.md §18): the closed-loop [`LinkPolicy`]
//! controller and the adaptive-vs-fixed chaos evaluation behind the
//! `bench_engine` adaptive leg (`--leg adaptive`).
//!
//! The paper reports fixed-rate curves (Figs. 14/15); a deployed network
//! needs the loop that *chooses* the rate — provided here — while the
//! session supervisor's ARQ loop ([`milback_proto::arq`], driven by
//! [`Session`]) recovers frames that still die.
//!
//! [`LinkPolicy`] is the per-node controller: it consumes one
//! [`PolicyFeedback`] per supervised exchange (built from the
//! [`SessionReport`]/[`SessionError`] the session supervisor already
//! emits) and plans the next exchange's [`SessionConfig`] — uplink
//! symbol rate stepped down/up across [`UPLINK_RATES`] with hysteresis,
//! a forced single-tone OOK fallback when dual-tone discrimination keeps
//! dying, a 5→3 Field-2 chirp trim when the reduced-chirp fallback keeps
//! winning, and a loss-driven ARQ budget/[`milback_proto::arq::Backoff`] stretch. Every
//! decision is a pure integer-counter function of the feedback history —
//! no RNG, no clock — so [`adaptive_trial`], which carries one policy
//! through a node's sessions, keeps the batch engine's parallel==serial
//! bitwise guarantee in [`adaptive_sweep_with_threads`].

use crate::batch;
use crate::config::Fidelity;
use crate::link::MIN_TONE_SEPARATION;
use crate::network::Network;
use crate::session::{
    Degradation, FailureKind, Session, SessionConfig, SessionCtx, SessionError, SessionReport,
};
use milback_ap::tone_select::{select_tones, ToneSelection};
use milback_hw::power::{NodeMode, PowerModel};
use milback_proto::packet::{LinkMode, Packet, PacketConfig};
use milback_rf::faults::{FaultEvent, FaultKind, FaultPlan};
use milback_rf::geometry::{deg_to_rad, Pose};
use milback_telemetry as telemetry;

/// Candidate uplink bit rates, fastest first (OAQFM, 2 bits/symbol).
pub const UPLINK_RATES: [f64; 4] = [40e6, 20e6, 10e6, 5e6];

/// Decision-SNR margin (linear) required to accept a rate: ~13 dB keeps
/// the analytic BER under 1e-5.
pub const SNR_ACCEPT: f64 = 20.0;

// ---------------------------------------------------------------------
// Closed-loop link policy (DESIGN.md §18)
// ---------------------------------------------------------------------

/// Thresholds for the [`LinkPolicy`] state machine. All counts are
/// consecutive-session streaks; the asymmetry between the `*_after`
/// pairs is the hysteresis that keeps the controller from chattering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Troubled sessions (payload retries or failure) before stepping
    /// the uplink rate one notch down [`UPLINK_RATES`].
    pub rate_down_after: usize,
    /// Clean sessions before probing one notch back up.
    pub rate_up_after: usize,
    /// Troubled low-SNR sessions before forcing single-tone OOK.
    pub ook_after: usize,
    /// Clean forced-OOK sessions before re-probing dual-tone OAQFM.
    pub ook_recover_after: usize,
    /// Sessions won by the reduced-chirp fallback before trimming the
    /// Field-2 burst to [`PolicyConfig::trimmed_chirps`].
    pub chirp_trim_after: usize,
    /// Fully clean bursts before restoring the five-chirp burst.
    pub chirp_restore_after: usize,
    /// The trimmed Field-2 chirp count (≥ 2; the paper's burst is 5).
    pub trimmed_chirps: usize,
    /// Payload failures before granting one extra ARQ attempt and
    /// stretching the backoff.
    pub arq_stretch_after: usize,
    /// Ceiling on extra ARQ attempts.
    pub arq_extra_max: usize,
    /// Decision SNR (linear) below which a troubled session counts as
    /// "tone discrimination dying" for the OOK trigger.
    pub snr_floor: f64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self::milback()
    }
}

impl PolicyConfig {
    /// Defaults: react after one troubled session (retries are the
    /// expensive event), recover only after a streak of clean ones.
    pub fn milback() -> Self {
        Self {
            rate_down_after: 1,
            rate_up_after: 4,
            ook_after: 2,
            ook_recover_after: 4,
            chirp_trim_after: 2,
            chirp_restore_after: 4,
            trimmed_chirps: 3,
            arq_stretch_after: 2,
            arq_extra_max: 4,
            snr_floor: SNR_ACCEPT,
        }
    }
}

/// What the controller plans for the next supervised exchange: the
/// session budgets/rates plus the carrier-plan override to install on
/// the [`Network`] (`force_single_tone`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionPlan {
    /// Budgets and rates for the next exchange.
    pub config: SessionConfig,
    /// Collapse the tone plan to single-carrier OOK.
    pub force_ook: bool,
}

/// One exchange's evidence, compressed from the session supervisor's
/// report. Plain `Copy` data — recorded per session without
/// allocating, and [`LinkPolicy::observe`] is a pure function of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyFeedback {
    /// The payload delivered (the session returned `Ok`).
    pub delivered: bool,
    /// Payload transmissions used (the whole budget on payload failure,
    /// 0 when the session died before the payload stage).
    pub payload_attempts: usize,
    /// The session failed in the payload stage.
    pub payload_failed: bool,
    /// The session failed at Field-1 mode detection (no payload
    /// evidence — rate decisions ignore these).
    pub mode_failed: bool,
    /// The delivering transfer's decision SNR fell below the policy's
    /// floor (payload failures count as low-SNR by definition).
    pub low_snr: bool,
    /// Localization ran the reduced-chirp fallback.
    pub fell_back: bool,
    /// Chirps discarded by the energy triage.
    pub dropped: usize,
    /// Field-2 actually ran (not shed, not pre-empted by mode failure).
    pub field2_ran: bool,
}

impl PolicyFeedback {
    /// Builds feedback from a supervised exchange's outcome. `snr_floor`
    /// is the policy's discrimination threshold (linear).
    pub fn from_outcome(outcome: &Result<SessionReport, SessionError>, snr_floor: f64) -> Self {
        let fell_back = |ds: &[Degradation]| {
            ds.iter()
                .any(|d| matches!(d, Degradation::ReducedChirpFallback { .. }))
        };
        let dropped = |ds: &[Degradation]| {
            ds.iter()
                .find_map(|d| match d {
                    Degradation::ChirpLoss { dropped, .. } => Some(*dropped),
                    _ => None,
                })
                .unwrap_or(0)
        };
        match outcome {
            Ok(r) => {
                let snr = match (&r.uplink, &r.downlink) {
                    (Some(u), _) => Some(u.snr),
                    (None, Some(d)) => Some(d.decision_snr),
                    (None, None) => None,
                };
                Self {
                    delivered: true,
                    payload_attempts: r.payload_attempts,
                    payload_failed: false,
                    mode_failed: false,
                    low_snr: snr.is_some_and(|s| s < snr_floor),
                    fell_back: fell_back(&r.degradations),
                    dropped: dropped(&r.degradations),
                    field2_ran: !r.degradations.contains(&Degradation::Field2Shed),
                }
            }
            Err(e) => {
                let payload_failed = e.kind == FailureKind::Payload;
                Self {
                    delivered: false,
                    payload_attempts: if payload_failed { e.attempts } else { 0 },
                    payload_failed,
                    mode_failed: e.kind == FailureKind::ModeDetect,
                    low_snr: payload_failed,
                    fell_back: fell_back(&e.degradations),
                    dropped: dropped(&e.degradations),
                    field2_ran: payload_failed
                        && !e.degradations.contains(&Degradation::Field2Shed),
                }
            }
        }
    }
}

/// Closed-loop per-node link controller (DESIGN.md §18).
///
/// State is a handful of integer streak counters — a pure function of
/// the observed feedback sequence, with no RNG and no wall clock — so a
/// policy carried through one node's sessions preserves the batch
/// engine's thread-invariance and parallel==serial guarantees. A freshly built
/// (or [`LinkPolicy::reset`]) policy plans exactly the base
/// configuration, so the fixed and adaptive paths are bitwise identical
/// until the first trouble is observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPolicy {
    /// The thresholds this controller runs with.
    pub config: PolicyConfig,
    /// Index into [`UPLINK_RATES`] (0 = fastest).
    rate_idx: usize,
    clean_streak: usize,
    trouble_streak: usize,
    low_snr_streak: usize,
    ook_clean_streak: usize,
    force_ook: bool,
    fallback_streak: usize,
    full_streak: usize,
    chirps: usize,
    loss_streak: usize,
    extra_attempts: usize,
}

impl Default for LinkPolicy {
    fn default() -> Self {
        Self::new(PolicyConfig::milback())
    }
}

impl LinkPolicy {
    /// A fresh controller in its neutral state: fastest rate, dual-tone,
    /// five chirps, base ARQ budget.
    pub fn new(config: PolicyConfig) -> Self {
        Self {
            config,
            rate_idx: 0,
            clean_streak: 0,
            trouble_streak: 0,
            low_snr_streak: 0,
            ook_clean_streak: 0,
            force_ook: false,
            fallback_streak: 0,
            full_streak: 0,
            chirps: 5,
            loss_streak: 0,
            extra_attempts: 0,
        }
    }

    /// Back to the neutral state: the policy then plans exactly the base
    /// configuration again, as a fresh one does.
    pub fn reset(&mut self) {
        *self = Self::new(self.config);
    }

    /// The currently selected uplink bit rate, bits/s.
    pub fn uplink_bit_rate(&self) -> f64 {
        UPLINK_RATES[self.rate_idx]
    }

    /// Whether the OOK fallback is currently forced.
    pub fn forcing_ook(&self) -> bool {
        self.force_ook
    }

    /// The currently planned Field-2 chirp count.
    pub fn field2_chirps(&self) -> usize {
        self.chirps
    }

    /// Extra ARQ attempts currently granted beyond the base budget.
    pub fn extra_attempts(&self) -> usize {
        self.extra_attempts
    }

    /// Plans the next exchange from `base`. Uplink sessions get the
    /// controller's rate off the [`UPLINK_RATES`] ladder; downlink keeps
    /// the base symbol rate (the ladder models the switch-rate-limited
    /// uplink). A neutral policy returns `base` unchanged with
    /// `force_ook == false` — except that a neutral *uplink* plan pins
    /// `symbol_rate` to the fastest ladder rate, which callers comparing
    /// against a fixed baseline should use as the baseline rate too.
    pub fn plan(&self, base: &SessionConfig, mode: LinkMode) -> SessionPlan {
        let mut config = *base;
        if mode == LinkMode::Uplink {
            config.symbol_rate = UPLINK_RATES[self.rate_idx] / 2.0;
        }
        config.field2_chirps = self.chirps;
        config.payload_attempts = base.payload_attempts + self.extra_attempts;
        if self.extra_attempts > 0 {
            config.backoff = base.backoff.stretched((1 + self.extra_attempts) as f64);
        }
        SessionPlan {
            config,
            force_ook: self.force_ook,
        }
    }

    /// Folds one exchange's evidence into the controller state. Pure
    /// integer arithmetic; the telemetry counters record transitions in
    /// the deterministic view (they count policy decisions, which are
    /// themselves deterministic).
    pub fn observe(&mut self, fb: &PolicyFeedback) {
        let c = self.config;
        let trouble = fb.payload_failed || (fb.delivered && fb.payload_attempts > 1);
        // Cross-stage inference: chirp drops in the same session mean the
        // RF path is being squelched outright — payload loss is then an
        // erasure, not an SNR shortfall. Slowing down only lengthens the
        // captures (more squelch overlap) and OOK doubles them, so both
        // levers are gated; the ARQ stretch below is the one that helps.
        let erasure = fb.dropped > 0;

        // (a) Rate ladder with hysteresis — payload evidence only.
        if trouble && !erasure {
            self.clean_streak = 0;
            self.trouble_streak += 1;
            if self.trouble_streak >= c.rate_down_after && self.rate_idx + 1 < UPLINK_RATES.len() {
                // A retried-but-delivered session steps one notch; an
                // exhausted budget is stronger evidence and steps two.
                let steps = if fb.payload_failed { 2 } else { 1 };
                self.rate_idx = (self.rate_idx + steps).min(UPLINK_RATES.len() - 1);
                self.trouble_streak = 0;
                telemetry::counter_add("core.policy.rate_down", 1);
            }
        } else if fb.delivered {
            self.trouble_streak = 0;
            self.clean_streak += 1;
            if self.clean_streak >= c.rate_up_after && self.rate_idx > 0 {
                self.rate_idx -= 1;
                self.clean_streak = 0;
                telemetry::counter_add("core.policy.rate_up", 1);
            }
        }

        // (b) OOK fallback: sustained low-SNR trouble flips to single
        // tone; a streak of clean OOK sessions probes dual again.
        if self.force_ook {
            if fb.delivered && fb.payload_attempts == 1 {
                self.ook_clean_streak += 1;
                if self.ook_clean_streak >= c.ook_recover_after {
                    self.force_ook = false;
                    self.ook_clean_streak = 0;
                    self.low_snr_streak = 0;
                    telemetry::counter_add("core.policy.ook_off", 1);
                }
            } else {
                self.ook_clean_streak = 0;
            }
        } else if trouble && fb.low_snr && !erasure {
            self.low_snr_streak += 1;
            if self.low_snr_streak >= c.ook_after {
                self.force_ook = true;
                self.low_snr_streak = 0;
                self.ook_clean_streak = 0;
                telemetry::counter_add("core.policy.ook_on", 1);
            }
        } else if fb.delivered && fb.payload_attempts == 1 {
            self.low_snr_streak = 0;
        }

        // (c) Field-2 chirp trim: the reduced-chirp fallback repeatedly
        // winning means most of the burst is dead airtime.
        if fb.field2_ran {
            if fb.fell_back {
                self.fallback_streak += 1;
                self.full_streak = 0;
                if self.fallback_streak >= c.chirp_trim_after
                    && self.chirps > c.trimmed_chirps.max(2)
                {
                    self.chirps = c.trimmed_chirps.max(2);
                    self.fallback_streak = 0;
                    telemetry::counter_add("core.policy.chirp_trim", 1);
                }
            } else if fb.dropped == 0 {
                self.full_streak += 1;
                self.fallback_streak = 0;
                if self.full_streak >= c.chirp_restore_after && self.chirps < 5 {
                    self.chirps = 5;
                    self.full_streak = 0;
                    telemetry::counter_add("core.policy.chirp_restore", 1);
                }
            }
        }

        // (d) ARQ budget/backoff stretch under sustained loss; relax one
        // notch per clean first-attempt delivery.
        if fb.payload_failed {
            self.loss_streak += 1;
            if self.loss_streak >= c.arq_stretch_after && self.extra_attempts < c.arq_extra_max {
                self.extra_attempts += 1;
                self.loss_streak = 0;
                telemetry::counter_add("core.policy.arq_stretch", 1);
            }
        } else if fb.delivered && fb.payload_attempts == 1 {
            self.loss_streak = 0;
            if self.extra_attempts > 0 {
                self.extra_attempts -= 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Adaptive-vs-fixed chaos evaluation (the bench_engine adaptive leg)
// ---------------------------------------------------------------------

/// The §14 fault menagerie as named scenarios: each one is a
/// deterministic [`FaultPlan`] stressing one controller lever (plus the
/// sampled chaos mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// No faults — the adaptive path must match fixed bitwise.
    Clean,
    /// Periodic deep body blockage windows.
    Blockage,
    /// A chronic CW comb parked on the dual-tone branch offsets (the
    /// OOK-fallback stressor: single-carrier plans mix it out of band).
    CwInterference,
    /// Repeating clock-drift windows (timing skew grows within each
    /// window — lower symbol rates tolerate more skew).
    ClockDrift,
    /// Periodic RF squelch windows that drop whole chirp captures (the
    /// chirp-trim stressor).
    ChirpLoss,
    /// Chronic wideband SNR droop (the rate-ladder stressor).
    SnrDroop,
    /// The sampled §14 chaos mix at high intensity.
    Chaos,
}

/// Every scenario, in the order the bench table reports them.
pub const SCENARIOS: [ScenarioKind; 7] = [
    ScenarioKind::Clean,
    ScenarioKind::Blockage,
    ScenarioKind::CwInterference,
    ScenarioKind::ClockDrift,
    ScenarioKind::ChirpLoss,
    ScenarioKind::SnrDroop,
    ScenarioKind::Chaos,
];

impl ScenarioKind {
    /// Stable table/CSV name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Clean => "clean",
            ScenarioKind::Blockage => "blockage",
            ScenarioKind::CwInterference => "cw_interference",
            ScenarioKind::ClockDrift => "clock_drift",
            ScenarioKind::ChirpLoss => "chirp_loss",
            ScenarioKind::SnrDroop => "snr_droop",
            ScenarioKind::Chaos => "chaos",
        }
    }

    /// Fills `plan` with this scenario's schedule over `[0, horizon_s)`.
    /// `branch_offset_hz` is the dual-tone plan's branch offset from the
    /// carrier midpoint at the trial pose (`|f_a − f_b| / 2`) — the CW
    /// comb parks there so it lands inside the dual-tone demodulator's
    /// decimation band but mixes far out of band once the plan collapses
    /// to a single carrier.
    pub fn fill_plan(self, seed: u64, horizon_s: f64, branch_offset_hz: f64, plan: &mut FaultPlan) {
        plan.seed = seed;
        plan.events.clear();
        let mut push = |start_s: f64, duration_s: f64, kind: FaultKind| {
            plan.events.push(FaultEvent {
                start_s,
                duration_s,
                kind,
            });
        };
        match self {
            ScenarioKind::Clean => {}
            ScenarioKind::Blockage => {
                // ~25% duty shadowing at the session time scale (a clean
                // exchange is ~0.2 ms): deep enough to kill the fast
                // uplink (decision SNR scales inversely with symbol rate)
                // but shallow enough that the bottom of the rate ladder
                // still gets through.
                let period = 2e-3;
                let mut t = 0.2e-3;
                while t < horizon_s {
                    push(t, 0.8e-3, FaultKind::Blockage { depth_db: 26.0 });
                    t += period;
                }
            }
            ScenarioKind::CwInterference => {
                // A five-tone comb straddling the branch offset, wide
                // enough to survive session-to-session orientation
                // estimate jitter in the selected tones. The amplitude
                // sits in the window where dual-tone slicing breaks but
                // the collapsed OOK plan (coherent two-port reflection,
                // best-branch decode) still has margin.
                for k in -2i32..=2 {
                    push(
                        0.0,
                        horizon_s,
                        FaultKind::Interference {
                            freq_offset_hz: branch_offset_hz + k as f64 * 60e6,
                            amp: 1.5e-4,
                        },
                    );
                }
            }
            ScenarioKind::ClockDrift => {
                // Skew restarts each window and grows at 150 ppm (a cheap
                // node crystal): it crosses the 20 Msym/s timing margin
                // (~0.25 symbol = 12.5 ns) within ~0.1 ms but stays under
                // the 2.5 Msym/s margin (100 ns) for the whole window, so
                // stepping the rate down genuinely helps.
                let period = 1.2e-3;
                let mut t = 0.0;
                while t < horizon_s {
                    push(t, 0.8e-3, FaultKind::ClockDrift { ppm: 120.0 });
                    t += period;
                }
            }
            ScenarioKind::ChirpLoss => {
                // RF squelch windows: any overlapped capture is zeroed
                // whole, so Field-2 bursts keep losing chirps (the
                // reduced-chirp fallback and trim lever's evidence) and
                // payload attempts see outright erasures that only the
                // stretched ARQ budget can ride out.
                let period = 250e-6;
                let mut t = 0.0;
                while t < horizon_s {
                    push(t, 45e-6, FaultKind::ChirpDrop);
                    t += period;
                }
            }
            ScenarioKind::SnrDroop => {
                push(
                    0.0,
                    horizon_s,
                    FaultKind::SnrDroop {
                        extra_noise_db: -18.0,
                    },
                );
            }
            ScenarioKind::Chaos => {
                // `chaos_into` sprinkles its menagerie uniformly over the
                // horizon; tile short chaos windows instead so the fault
                // density matches the session time scale regardless of
                // how long the series actually runs.
                let tile = 20e-3;
                let tiles = ((horizon_s / tile).ceil() as u64).max(1);
                let mut chaos = FaultPlan::none();
                for w in 0..tiles {
                    chaos.chaos_into(crate::batch::derive_seed(seed, w), 0.85, tile);
                    let shift = w as f64 * tile;
                    for ev in &chaos.events {
                        plan.events.push(FaultEvent {
                            start_s: ev.start_s + shift,
                            duration_s: ev.duration_s,
                            kind: ev.kind,
                        });
                    }
                }
            }
        }
    }
}

/// Accumulated result of one adaptive (or fixed) trial: a session
/// series against one scenario. Exact-comparable `Copy` data — the CI
/// smoke pins byte-identical repeats and 1-vs-4-thread runs on it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdaptiveOutcome {
    /// Payload bytes delivered end-to-end.
    pub delivered_bytes: u64,
    /// Payload bytes offered (sessions × payload length).
    pub offered_bytes: u64,
    /// Sessions that completed.
    pub sessions_ok: u32,
    /// Sessions that exhausted a budget.
    pub sessions_failed: u32,
    /// Total session-clock time the series consumed, seconds.
    pub elapsed_s: f64,
    /// Analytic node energy over the series, µJ (switching/detector
    /// power from the §9 power model × per-stage airtime × attempts).
    pub energy_uj: f64,
    /// Sessions that ran with the forced-OOK plan.
    pub ook_sessions: u32,
    /// Sessions that ran with a trimmed Field-2 burst.
    pub trimmed_sessions: u32,
    /// Sessions that ran below the fastest uplink rate.
    pub slowed_sessions: u32,
}

impl AdaptiveOutcome {
    /// Payload goodput over the series, kbit/s.
    pub fn goodput_kbps(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / self.elapsed_s / 1e3
    }

    /// Node energy per delivered payload byte, µJ/byte (`f64::INFINITY`
    /// when nothing was delivered).
    pub fn energy_per_byte_uj(&self) -> f64 {
        if self.delivered_bytes == 0 {
            return f64::INFINITY;
        }
        self.energy_uj / self.delivered_bytes as f64
    }

    /// Folds another trial's totals into this one (sweep aggregation).
    pub fn absorb(&mut self, other: &AdaptiveOutcome) {
        self.delivered_bytes += other.delivered_bytes;
        self.offered_bytes += other.offered_bytes;
        self.sessions_ok += other.sessions_ok;
        self.sessions_failed += other.sessions_failed;
        self.elapsed_s += other.elapsed_s;
        self.energy_uj += other.energy_uj;
        self.ook_sessions += other.ook_sessions;
        self.trimmed_sessions += other.trimmed_sessions;
        self.slowed_sessions += other.slowed_sessions;
    }
}

/// Fixed-vs-adaptive totals for one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveComparison {
    /// The scenario both variants ran.
    pub scenario: ScenarioKind,
    /// Totals for the fixed (policy-less) variant.
    pub fixed: AdaptiveOutcome,
    /// Totals for the closed-loop variant.
    pub adaptive: AdaptiveOutcome,
}

impl AdaptiveComparison {
    /// Whether the adaptive variant is strictly better on *both* bench
    /// metrics: higher goodput and lower energy per delivered byte.
    pub fn adaptive_wins(&self) -> bool {
        self.adaptive.goodput_kbps() > self.fixed.goodput_kbps()
            && self.adaptive.energy_per_byte_uj() < self.fixed.energy_per_byte_uj()
    }
}

/// Analytic node-side energy for one supervised exchange, µJ: each
/// stage's airtime (as charged on the session clock) times the §9 power
/// model's draw for the node mode that stage runs in. Mirrors the link
/// layer's per-transfer energy telemetry; backoff idle time is not
/// billed (the switch network parks).
fn exchange_energy_uj(
    pkt: &PacketConfig,
    cfg: &SessionConfig,
    mode: LinkMode,
    force_ook: bool,
    outcome: &Result<SessionReport, SessionError>,
) -> f64 {
    let power = PowerModel::milback();
    let p_listen = power.power_mw(NodeMode::Downlink);
    let p_loc = power.power_mw(NodeMode::Localization);
    let bits_per_symbol = if force_ook { 1.0 } else { 2.0 };
    let p_payload = match mode {
        LinkMode::Downlink => p_listen,
        LinkMode::Uplink => power.power_mw(NodeMode::Uplink {
            bit_rate: bits_per_symbol * cfg.symbol_rate,
        }),
    };
    let shed = |ds: &[Degradation]| ds.contains(&Degradation::Field2Shed);
    // (mode attempts, node-orientation chirp ran, Field-2 windows, payload attempts)
    let (mode_attempts, oriented, field2_windows, payload_attempts) = match outcome {
        Ok(r) => (
            r.mode_attempts,
            true,
            if shed(&r.degradations) { 0.0 } else { 2.0 },
            r.payload_attempts,
        ),
        Err(e) => match e.kind {
            FailureKind::ModeDetect => (e.attempts, false, 0.0, 0),
            FailureKind::Payload => {
                let ma = e
                    .degradations
                    .iter()
                    .find_map(|d| match d {
                        Degradation::ModeRetries { attempts } => Some(*attempts),
                        _ => None,
                    })
                    .unwrap_or(1);
                (
                    ma,
                    true,
                    if shed(&e.degradations) { 0.0 } else { 2.0 },
                    e.attempts,
                )
            }
        },
    };
    let listen_s = pkt.field1_duration() * mode_attempts as f64
        + if oriented {
            pkt.field1_chirp.duration
        } else {
            0.0
        };
    let field2_s = cfg.field2_airtime_s(pkt) * field2_windows;
    // OOK halves the bits per symbol, doubling the payload occupancy.
    let payload_s = cfg.payload_airtime_s(pkt) * (2.0 / bits_per_symbol) * payload_attempts as f64;
    (p_listen * listen_s + p_loc * field2_s + p_payload * payload_s) * 1e3
}

/// Fixed baseline for one exchange: the paper defaults, with uplink
/// sessions at the fastest ladder rate — exactly what a neutral
/// [`LinkPolicy`] plans, so the clean-scenario comparison is bitwise.
fn fixed_config(mode: LinkMode) -> SessionConfig {
    let mut cfg = SessionConfig::milback();
    if mode == LinkMode::Uplink {
        cfg.symbol_rate = UPLINK_RATES[0] / 2.0;
    }
    cfg
}

/// Sessions per trial at the default evaluation scale.
pub const ADAPTIVE_TRIAL_SESSIONS: usize = 12;

/// Runs one trial: `n_sessions` supervised exchanges back-to-back on
/// one network (persistent session clock, persistent controller state)
/// under `scenario`'s fault schedule, with (`adaptive == true`) or
/// without the closed-loop controller. Pure function of its arguments —
/// the sweep calls it from the batch engine and the CI smoke compares
/// runs bitwise. Sessions follow a 3-uplink/1-downlink pattern; payload
/// bytes derive from the trial seed.
pub fn adaptive_trial(
    scenario: ScenarioKind,
    seed: u64,
    n_sessions: usize,
    adaptive: bool,
) -> AdaptiveOutcome {
    const PAYLOAD_LEN: usize = 16;
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
    let mut net = Network::new(pose, Fidelity::Fast, seed);
    let pkt = net.fidelity.packet();

    // Fault horizon: generous per-session budget (airtime + a few
    // backoff ceilings) so schedules cover retry-stretched series.
    let horizon_s = n_sessions as f64 * (8.0 * pkt.total_duration() + 0.25);
    let branch_offset =
        match select_tones(&net.node.fsa, net.true_orientation(), MIN_TONE_SEPARATION) {
            Some(ToneSelection::Dual { f_a, f_b }) => (f_a - f_b).abs() / 2.0,
            _ => 0.0,
        };
    let mut plan = FaultPlan::none();
    scenario.fill_plan(
        batch::derive_seed(seed, 1),
        horizon_s,
        branch_offset,
        &mut plan,
    );
    net.faults = plan;

    let mut policy = LinkPolicy::default();
    let mut ctx = SessionCtx::new();
    let mut out = AdaptiveOutcome::default();
    for i in 0..n_sessions {
        let mode = if i % 4 == 3 {
            LinkMode::Downlink
        } else {
            LinkMode::Uplink
        };
        let base = fixed_config(mode);
        let plan = if adaptive {
            policy.plan(&base, mode)
        } else {
            SessionPlan {
                config: base,
                force_ook: false,
            }
        };
        let session_seed = batch::derive_seed(seed, 100 + i as u64);
        net.reseed(session_seed);
        net.force_single_tone = plan.force_ook;
        let payload: Vec<u8> = (0..PAYLOAD_LEN)
            .map(|j| (session_seed.rotate_left(((j % 8) * 8) as u32) as u8) ^ j as u8)
            .collect();
        let packet = match mode {
            LinkMode::Downlink => Packet::downlink(payload),
            LinkMode::Uplink => Packet::uplink(payload),
        };
        let session = Session::new(plan.config);
        let outcome = session.run_in(&mut ctx, &mut net, &packet, false);

        out.offered_bytes += PAYLOAD_LEN as u64;
        out.energy_uj += exchange_energy_uj(&pkt, &plan.config, mode, plan.force_ook, &outcome);
        match &outcome {
            Ok(_) => {
                out.delivered_bytes += PAYLOAD_LEN as u64;
                out.sessions_ok += 1;
            }
            Err(_) => out.sessions_failed += 1,
        }
        out.ook_sessions += plan.force_ook as u32;
        out.trimmed_sessions += (plan.config.field2_chirps < 5) as u32;
        out.slowed_sessions +=
            (mode == LinkMode::Uplink && plan.config.symbol_rate < UPLINK_RATES[0] / 2.0) as u32;
        if adaptive {
            policy.observe(&PolicyFeedback::from_outcome(
                &outcome,
                policy.config.snr_floor,
            ));
        }
    }
    net.force_single_tone = false;
    out.elapsed_s = net.clock_s;
    out
}

/// Sweeps every scenario × {fixed, adaptive} × `trials` paired seeds on
/// the batch engine and aggregates per-scenario totals. Fixed and
/// adaptive variants of the same (scenario, trial) share a seed, so the
/// comparison is paired. Thread-count invariant: job order, seed
/// derivation and aggregation order depend only on the argument list.
pub fn adaptive_sweep_with_threads(
    n_sessions: usize,
    trials: usize,
    master_seed: u64,
    threads: usize,
) -> Vec<AdaptiveComparison> {
    // Flattened job list: scenario-major, variant, then trial.
    let jobs: Vec<(usize, bool, u64)> = (0..SCENARIOS.len() * 2 * trials)
        .map(|g| {
            let s = g / (2 * trials);
            let v = (g / trials) % 2 == 1; // false = fixed, true = adaptive
            let t = g % trials;
            (
                s,
                v,
                batch::derive_seed(master_seed, (s * trials + t) as u64),
            )
        })
        .collect();
    let flat = batch::par_map_with_threads(&jobs, threads, |&(s, adaptive, seed), _| {
        adaptive_trial(SCENARIOS[s], seed, n_sessions, adaptive)
    });
    SCENARIOS
        .iter()
        .enumerate()
        .map(|(s, &scenario)| {
            let mut fixed = AdaptiveOutcome::default();
            let mut adaptive = AdaptiveOutcome::default();
            for t in 0..trials {
                fixed.absorb(&flat[s * 2 * trials + t]);
                adaptive.absorb(&flat[s * 2 * trials + trials + t]);
            }
            AdaptiveComparison {
                scenario,
                fixed,
                adaptive,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // --- LinkPolicy state machine ---

    fn clean_fb() -> PolicyFeedback {
        PolicyFeedback {
            delivered: true,
            payload_attempts: 1,
            payload_failed: false,
            mode_failed: false,
            low_snr: false,
            fell_back: false,
            dropped: 0,
            field2_ran: true,
        }
    }

    fn retried_fb(low_snr: bool) -> PolicyFeedback {
        PolicyFeedback {
            payload_attempts: 2,
            low_snr,
            ..clean_fb()
        }
    }

    fn failed_fb() -> PolicyFeedback {
        PolicyFeedback {
            delivered: false,
            payload_attempts: 4,
            payload_failed: true,
            low_snr: true,
            ..clean_fb()
        }
    }

    #[test]
    fn neutral_policy_plans_base_config() {
        let policy = LinkPolicy::default();
        let base = SessionConfig::milback();
        let plan = policy.plan(&base, LinkMode::Downlink);
        assert_eq!(plan.config, base);
        assert!(!plan.force_ook);
        // Uplink pins the fastest ladder rate; everything else is base.
        let up = policy.plan(&base, LinkMode::Uplink);
        assert_eq!(up.config.symbol_rate, UPLINK_RATES[0] / 2.0);
        assert_eq!(up.config.payload_attempts, base.payload_attempts);
        assert_eq!(up.config.field2_chirps, base.field2_chirps);
    }

    #[test]
    fn rate_ladder_steps_down_and_recovers() {
        let mut p = LinkPolicy::default();
        p.observe(&retried_fb(false));
        assert_eq!(p.uplink_bit_rate(), UPLINK_RATES[1], "one notch on retry");
        p.observe(&failed_fb());
        assert_eq!(
            p.uplink_bit_rate(),
            UPLINK_RATES[3],
            "two notches on an exhausted budget"
        );
        // Hysteresis: three clean sessions are not enough to move.
        for _ in 0..3 {
            p.observe(&clean_fb());
        }
        assert_eq!(p.uplink_bit_rate(), UPLINK_RATES[3]);
        p.observe(&clean_fb());
        assert_eq!(p.uplink_bit_rate(), UPLINK_RATES[2], "recovers one notch");
    }

    #[test]
    fn ook_triggers_on_low_snr_trouble_and_recovers() {
        let mut p = LinkPolicy::default();
        p.observe(&retried_fb(true));
        assert!(!p.forcing_ook(), "one low-SNR session is not enough");
        p.observe(&retried_fb(true));
        assert!(p.forcing_ook(), "two consecutive low-SNR troubles flip");
        let base = SessionConfig::milback();
        assert!(p.plan(&base, LinkMode::Uplink).force_ook);
        // Recovery needs ook_recover_after clean single-attempt sessions.
        for _ in 0..3 {
            p.observe(&clean_fb());
            assert!(p.forcing_ook());
        }
        p.observe(&clean_fb());
        assert!(!p.forcing_ook(), "probes dual again after a clean streak");
    }

    #[test]
    fn chirp_trim_on_repeated_fallback_and_restore() {
        let mut p = LinkPolicy::default();
        let fallback = PolicyFeedback {
            fell_back: true,
            dropped: 2,
            ..clean_fb()
        };
        p.observe(&fallback);
        assert_eq!(p.field2_chirps(), 5);
        p.observe(&fallback);
        assert_eq!(
            p.field2_chirps(),
            3,
            "trims after the fallback keeps winning"
        );
        let base = SessionConfig::milback();
        assert_eq!(p.plan(&base, LinkMode::Downlink).config.field2_chirps, 3);
        for _ in 0..4 {
            p.observe(&clean_fb());
        }
        assert_eq!(p.field2_chirps(), 5, "restores after clean full bursts");
    }

    #[test]
    fn arq_budget_stretches_under_loss() {
        let mut p = LinkPolicy::default();
        p.observe(&failed_fb());
        p.observe(&failed_fb());
        assert_eq!(p.extra_attempts(), 1);
        let base = SessionConfig::milback();
        let plan = p.plan(&base, LinkMode::Uplink);
        assert_eq!(plan.config.payload_attempts, base.payload_attempts + 1);
        assert_eq!(plan.config.backoff.base_s, base.backoff.base_s * 2.0);
        assert_eq!(plan.config.backoff.max_s, base.backoff.max_s * 2.0);
        // A clean first-attempt delivery relaxes one notch.
        p.observe(&clean_fb());
        assert_eq!(p.extra_attempts(), 0);
    }

    #[test]
    fn chirp_drop_evidence_gates_rate_and_ook() {
        let mut p = LinkPolicy::default();
        let erasure_trouble = PolicyFeedback {
            delivered: false,
            payload_attempts: 4,
            payload_failed: true,
            low_snr: true,
            dropped: 3,
            fell_back: true,
            ..clean_fb()
        };
        for _ in 0..4 {
            p.observe(&erasure_trouble);
        }
        assert_eq!(
            p.uplink_bit_rate(),
            UPLINK_RATES[0],
            "erasure loss must not walk the rate ladder"
        );
        assert!(!p.forcing_ook(), "erasure loss must not force OOK");
        assert!(
            p.extra_attempts() > 0,
            "the ARQ stretch is the erasure lever"
        );
    }

    #[test]
    fn policy_reset_restores_neutral_plan() {
        let mut p = LinkPolicy::default();
        p.observe(&failed_fb());
        p.observe(&failed_fb());
        let base = SessionConfig::milback();
        assert_ne!(p.plan(&base, LinkMode::Uplink).config, {
            let mut c = base;
            c.symbol_rate = UPLINK_RATES[0] / 2.0;
            c
        });
        p.reset();
        let plan = p.plan(&base, LinkMode::Uplink);
        let mut expect = base;
        expect.symbol_rate = UPLINK_RATES[0] / 2.0;
        assert_eq!(plan.config, expect);
        assert!(!plan.force_ook);
    }

    // --- Scenario evaluation ---

    #[test]
    fn fill_plan_is_deterministic_and_clean_is_empty() {
        let mut a = FaultPlan::none();
        let mut b = FaultPlan::none();
        for s in SCENARIOS {
            s.fill_plan(42, 0.05, 600e6, &mut a);
            s.fill_plan(42, 0.05, 600e6, &mut b);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", s.name());
            if s == ScenarioKind::Clean {
                assert!(a.events.is_empty());
            } else {
                assert!(!a.events.is_empty(), "{}", s.name());
            }
        }
    }

    #[test]
    fn adaptive_trial_is_deterministic() {
        let a = adaptive_trial(ScenarioKind::Blockage, 0x00DE_7E12, 2, true);
        let b = adaptive_trial(ScenarioKind::Blockage, 0x00DE_7E12, 2, true);
        assert_eq!(a, b);
        assert_eq!(a.offered_bytes, 32);
    }

    #[test]
    fn clean_scenario_adaptive_matches_fixed_bitwise() {
        let fixed = adaptive_trial(ScenarioKind::Clean, 0x00C1_EA77, 4, false);
        let adaptive = adaptive_trial(ScenarioKind::Clean, 0x00C1_EA77, 4, true);
        assert_eq!(fixed, adaptive, "a neutral policy must be a no-op");
        assert_eq!(fixed.sessions_failed, 0);
        assert!(fixed.goodput_kbps() > 0.0);
        assert!(fixed.energy_per_byte_uj().is_finite());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The controller is a pure function of its feedback history:
        /// replaying any sequence reproduces the exact same state and
        /// the exact same next plan.
        #[test]
        fn policy_is_pure_in_its_history(seed in proptest::prelude::any::<u64>()) {
            let mut mix = crate::batch::Mix::new(crate::batch::derive_seed(seed, 0));
            let feedbacks: Vec<PolicyFeedback> = (0..24)
                .map(|_| {
                    let delivered = mix.unit() > 0.3;
                    let attempts = 1 + (mix.unit() * 3.0) as usize;
                    PolicyFeedback {
                        delivered,
                        payload_attempts: if delivered { attempts } else { 4 },
                        payload_failed: !delivered,
                        mode_failed: false,
                        low_snr: mix.unit() > 0.5,
                        fell_back: mix.unit() > 0.7,
                        dropped: (mix.unit() * 3.0) as usize,
                        field2_ran: mix.unit() > 0.2,
                    }
                })
                .collect();
            let mut p1 = LinkPolicy::default();
            let mut p2 = LinkPolicy::default();
            for fb in &feedbacks {
                p1.observe(fb);
            }
            for fb in &feedbacks {
                p2.observe(fb);
            }
            proptest::prop_assert_eq!(p1, p2);
            let base = SessionConfig::milback();
            proptest::prop_assert_eq!(
                p1.plan(&base, LinkMode::Uplink),
                p2.plan(&base, LinkMode::Uplink)
            );
        }

        /// Rate stays on the ladder and chirps stay in [2, 5] no matter
        /// what feedback arrives.
        #[test]
        fn policy_state_stays_in_bounds(seed in proptest::prelude::any::<u64>()) {
            let mut mix = crate::batch::Mix::new(crate::batch::derive_seed(seed, 1));
            let mut p = LinkPolicy::default();
            for _ in 0..64 {
                let delivered = mix.unit() > 0.4;
                p.observe(&PolicyFeedback {
                    delivered,
                    payload_attempts: (mix.unit() * 5.0) as usize,
                    payload_failed: !delivered && mix.unit() > 0.3,
                    mode_failed: !delivered,
                    low_snr: mix.unit() > 0.4,
                    fell_back: mix.unit() > 0.6,
                    dropped: (mix.unit() * 6.0) as usize,
                    field2_ran: mix.unit() > 0.3,
                });
                proptest::prop_assert!(UPLINK_RATES.contains(&p.uplink_bit_rate()));
                proptest::prop_assert!((2..=5).contains(&p.field2_chirps()));
                proptest::prop_assert!(p.extra_attempts() <= p.config.arq_extra_max);
            }
        }
    }
}
