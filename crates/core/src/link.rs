//! End-to-end communication over the simulated channel: OAQFM downlink
//! (paper §6.1–6.2) and backscatter uplink (§6.3), including carrier
//! selection from the sensed orientation.
//!
//! All per-transfer working buffers live in `LinkScratch`, pooled in
//! the caller's [`SessionCtx`] next to the channel caches the transfer
//! renders through: a warmed downlink or uplink performs zero heap
//! allocations on the node/AP signal path (`tests/zero_alloc.rs` pins
//! this). The only steady-state allocation left is the decoded payload
//! `Vec<u8>` handed to the caller.

use crate::network::Network;
use crate::session::{with_run_ctx, SessionCtx};
use milback_ap::tone_select::{select_tones, ToneSelection};
use milback_ap::uplink::{UplinkReceiver, UplinkScratch, UPLINK_PILOT};
use milback_ap::waveform;
use milback_dsp::num::ZERO;
use milback_dsp::signal::Signal;
use milback_dsp::{par, phasor};
use milback_hw::power::NodeMode;
use milback_hw::switch::{SwitchSchedule, SwitchState};
use milback_node::demod::{
    demodulate_oaqfm_into, demodulate_ook_into, DemodScratch, EnvelopeSlicer,
};
use milback_node::modulator::modulate_uplink_into;
use milback_proto::bits::{bit_errors, bits_to_symbols_into, symbols_to_bits_into, OaqfmSymbol};
use milback_proto::frame::{decode_frame_with, encode_frame_into, FrameError, FrameScratch};
use milback_rf::channel::{FreqProfile, GammaRun, NodeInterface, TxComponent};
use milback_rf::fsa::Port;
use milback_rf::ChannelWorkspace;
use milback_telemetry as telemetry;

/// Minimum tone separation before falling back to single-carrier OOK:
/// the two envelope-detector branches stop being separable when the tones
/// approach the detector's video bandwidth.
pub const MIN_TONE_SEPARATION: f64 = 100e6;

/// Guard symbols (query running, node silent) before the pilot, so the
/// receiver's filter transients settle outside the payload.
pub const GUARD_SYMBOLS: usize = 6;

/// Lowest simulation rate of a dual-tone downlink (see
/// `Network::downlink_fs`); the OOK fallback runs at 16× the symbol
/// rate.
const MIN_DOWNLINK_FS: f64 = 200e6;

/// Whether a downlink at `symbol_rate` gets at least the 2 samples per
/// symbol its waveform needs at every simulation rate it may run at.
fn downlink_rate_ok(symbol_rate: f64) -> bool {
    symbol_rate > 0.0 && (MIN_DOWNLINK_FS / symbol_rate).round() >= 2.0
}

/// Whether `symbol_rate` can size an uplink capture at all: finite and
/// positive. (Rates past the node switch's toggle limit are rejected
/// after tone planning, by the modulator.)
fn uplink_rate_ok(symbol_rate: f64) -> bool {
    symbol_rate.is_finite() && symbol_rate > 0.0
}

/// Pooled working buffers for downlink/uplink transfers, held by a
/// [`SessionCtx`]. Every transfer reuses their capacity, so a warmed
/// link layer stops allocating.
pub(crate) struct LinkScratch {
    /// Encoded frame symbols (payload + CRC).
    frame: Vec<OaqfmSymbol>,
    /// Pilot + frame, the on-air symbol stream.
    symbols: Vec<OaqfmSymbol>,
    /// Per-tone OOK bit streams (port A / port B); the OOK fallback
    /// reuses `bits_a` for its pilot+frame bit stream.
    bits_a: Vec<bool>,
    bits_b: Vec<bool>,
    /// The transmitted tones: downlink OOK waveforms or uplink query
    /// tones, one channel component per carrier.
    tone_a: TxComponent,
    tone_b: TxComponent,
    /// Rendered signals at the node's FSA ports.
    at_a: Signal,
    at_b: Signal,
    /// Spare render target (cross-tone leakage / second query tone).
    port_tmp: Signal,
    /// Detector video streams, one per port.
    det_a: Vec<f64>,
    det_b: Vec<f64>,
    /// Demodulated symbols.
    got: Vec<OaqfmSymbol>,
    /// Sent/received frame bits for the error count.
    sent_bits: Vec<bool>,
    got_bits: Vec<bool>,
    demod: DemodScratch,
    codec: FrameScratch,
    /// Uplink switch schedules (their event buffers are reclaimed by
    /// `modulate_uplink_into`).
    sched_a: SwitchSchedule,
    sched_b: SwitchSchedule,
    /// The uplink's Γ runs, filled once per transfer from the schedules
    /// and shared by its four channel renders.
    gamma_runs: Vec<GammaRun>,
    /// AP capture buffers, one per RX antenna.
    rx0: Signal,
    rx1: Signal,
    /// The uplink receiver's pooled demodulation buffers.
    uplink: UplinkScratch,
}

impl std::fmt::Debug for LinkScratch {
    /// Buffer lengths instead of the multi-MB signals and video streams
    /// a warmed scratch holds.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkScratch")
            .field("symbols", &self.symbols.len())
            .field(
                "tones",
                &[self.tone_a.signal.len(), self.tone_b.signal.len()],
            )
            .field("at_ports", &[self.at_a.len(), self.at_b.len()])
            .field("videos", &[self.det_a.len(), self.det_b.len()])
            .field("captures", &[self.rx0.len(), self.rx1.len()])
            .finish_non_exhaustive()
    }
}

impl Default for LinkScratch {
    fn default() -> Self {
        // `Signal` has no Default (it insists on a positive sample rate);
        // the placeholder rate is overwritten by every producer.
        let sig = || Signal::new(1.0, 0.0, Vec::new());
        Self {
            frame: Vec::new(),
            symbols: Vec::new(),
            bits_a: Vec::new(),
            bits_b: Vec::new(),
            tone_a: TxComponent::tone(sig(), 0.0),
            tone_b: TxComponent::tone(sig(), 0.0),
            at_a: sig(),
            at_b: sig(),
            port_tmp: sig(),
            det_a: Vec::new(),
            det_b: Vec::new(),
            got: Vec::new(),
            sent_bits: Vec::new(),
            got_bits: Vec::new(),
            demod: DemodScratch::default(),
            codec: FrameScratch::default(),
            sched_a: SwitchSchedule::Constant(SwitchState::Absorptive),
            sched_b: SwitchSchedule::Constant(SwitchState::Absorptive),
            gamma_runs: Vec::new(),
            rx0: sig(),
            rx1: sig(),
            uplink: UplinkScratch::default(),
        }
    }
}

/// Outcome of a downlink transfer.
#[derive(Debug, Clone)]
pub struct DownlinkReport {
    /// The carrier plan the AP chose.
    pub tones: ToneSelection,
    /// Decoded payload (if the CRC passed).
    pub payload: Result<Vec<u8>, FrameError>,
    /// Raw bit errors against the transmitted frame bits.
    pub bit_errors: usize,
    /// Total frame bits.
    pub total_bits: usize,
    /// Measured SINR of the weaker detector branch, linear power ratio.
    pub sinr: f64,
    /// Effective decision SNR after per-symbol integration, with the
    /// cross-port interference subtracted from the decision margin —
    /// the quantity BER actually depends on (linear).
    pub decision_snr: f64,
}

/// Outcome of an uplink transfer.
#[derive(Debug, Clone)]
pub struct UplinkReport {
    /// The carrier plan the AP chose.
    pub tones: ToneSelection,
    /// Decoded payload (if the CRC passed).
    pub payload: Result<Vec<u8>, FrameError>,
    /// Raw bit errors against the transmitted frame bits.
    pub bit_errors: usize,
    /// Total frame bits.
    pub total_bits: usize,
    /// Measured SNR of the decision variable (min across branches).
    pub snr: f64,
}

/// Measured SINR of a downlink detector branch: wanted level step squared
/// over (interference + noise) variance, from the known components. This
/// is the paper's Fig. 14 quantity — SINR at the detector output, before
/// symbol integration.
fn branch_sinr(v_signal: f64, v_interference: f64, noise_rms: f64) -> f64 {
    v_signal * v_signal / (v_interference * v_interference + noise_rms * noise_rms)
}

/// Decision SNR of a branch: per-symbol integration averages the white
/// detector noise down by `video_bw/symbol_rate`, while the (symbol-
/// synchronous) cross-port interference subtracts from the decision
/// margin instead.
fn branch_decision_snr(
    v_signal: f64,
    v_interference: f64,
    noise_rms: f64,
    integration_gain: f64,
) -> f64 {
    let margin = (v_signal - v_interference).max(0.0);
    let sigma2 = noise_rms * noise_rms / integration_gain.max(1.0);
    margin * margin / sigma2
}

impl Network {
    /// Renders a pair of per-tone downlink components to both FSA ports
    /// into `at_a`/`at_b`, including the cross-tone leakage each port
    /// receives from the other tone's side lobes (`tmp` holds the
    /// cross-tone render between adds).
    ///
    /// The four port renders are one-shot renders in `cw`'s pooled
    /// scratch: the tones follow the sensed orientation, so no later
    /// transfer would read a kept table.
    pub(crate) fn render_tones_to_ports_into(
        &self,
        cw: &mut ChannelWorkspace,
        comp_a: &TxComponent,
        comp_b: &TxComponent,
        at_a: &mut Signal,
        at_b: &mut Signal,
        tmp: &mut Signal,
    ) {
        let pose = &self.node.pose;
        let fsa = &self.node.fsa;
        let scene = &self.scene;
        scene.to_node_port_into(cw, comp_a, pose, fsa, Port::A, at_a);
        scene.to_node_port_into(cw, comp_b, pose, fsa, Port::A, tmp);
        at_a.add(tmp);
        scene.to_node_port_into(cw, comp_b, pose, fsa, Port::B, at_b);
        scene.to_node_port_into(cw, comp_a, pose, fsa, Port::B, tmp);
        at_b.add(tmp);
    }

    /// Chooses OAQFM carriers for the node's current (AP-estimated)
    /// orientation. Uses the true orientation when `use_truth` — handy in
    /// microbenchmarks — otherwise runs AP-side orientation sensing first.
    pub fn plan_tones(&mut self, use_truth: bool) -> Option<ToneSelection> {
        with_run_ctx(|ctx| self.plan_tones_in(ctx, use_truth))
    }

    /// [`Self::plan_tones`], sensing in caller-owned scratch.
    fn plan_tones_in(&mut self, ctx: &mut SessionCtx, use_truth: bool) -> Option<ToneSelection> {
        let orientation = if use_truth {
            self.true_orientation()
        } else {
            self.sense_orientation_at_ap_in(ctx)?
        };
        select_tones(&self.node.fsa, orientation, MIN_TONE_SEPARATION)
    }

    /// Runs a full downlink transfer of `payload` at `symbol_rate`
    /// symbols/s over the carriers of [`Network::plan_tones`]:
    /// `use_truth` plans from the true orientation (for figures and
    /// microbenchmarks), `false` from one fresh Field-2 sense per call.
    /// Sessions plan once per packet and do not come through here.
    ///
    /// Returns `None` (and counts `core.link.downlink.rejected`) for a
    /// symbol rate that is NaN, not positive, or too fast for 2 samples
    /// per symbol at the 200 MHz minimum simulation rate, before any
    /// sensing; `None` before any RNG draw when the node or a parked
    /// interferer cannot be rendered (see [`Network::localize`]); and
    /// `None` when no carrier plan exists.
    ///
    /// Steady-state allocations: only the decoded payload `Vec<u8>` in
    /// the report — all working buffers are pooled in the thread's
    /// shared [`SessionCtx`].
    pub fn downlink(
        &mut self,
        payload: &[u8],
        symbol_rate: f64,
        use_truth: bool,
    ) -> Option<DownlinkReport> {
        with_run_ctx(|ctx| {
            self.downlink_in(ctx, payload, symbol_rate, |net, ctx| {
                net.plan_tones_in(ctx, use_truth)
            })
        })
    }

    /// The one downlink transfer, in `ctx`: [`Network::downlink`]'s
    /// checks, then the carriers `tones` plans once both pass.
    pub(crate) fn downlink_in(
        &mut self,
        ctx: &mut SessionCtx,
        payload: &[u8],
        symbol_rate: f64,
        tones: impl FnOnce(&mut Self, &mut SessionCtx) -> Option<ToneSelection>,
    ) -> Option<DownlinkReport> {
        let _span = telemetry::span("core.link.downlink.ns");
        if !downlink_rate_ok(symbol_rate) {
            telemetry::counter_add("core.link.downlink.rejected", 1);
            return None;
        }
        if self.render_rejected() {
            return None;
        }
        let tones = tones(self, ctx)?;
        let scr = &mut ctx.link;
        encode_frame_into(payload, &mut scr.codec, &mut scr.frame);
        let report = match tones {
            ToneSelection::Dual { f_a, f_b } => {
                self.downlink_dual(ctx, payload, f_a, f_b, symbol_rate, tones)
            }
            ToneSelection::Single { f } => self.downlink_ook(ctx, payload, f, symbol_rate, tones),
        };
        telemetry::counter_add("core.link.downlink.frames", 1);
        telemetry::counter_add("core.link.downlink.bits", report.total_bits as u64);
        telemetry::counter_add("core.link.downlink.bit_errors", report.bit_errors as u64);
        // Node energy over the transfer, from the hw power model: OAQFM
        // carries 2 bits/symbol, OOK 1 — either way `total_bits` symbols'
        // worth of airtime bounds the draw at the downlink power level.
        let duration_s = report.total_bits as f64 / (2.0 * symbol_rate);
        let energy_nj = self.node.power.power_mw(NodeMode::Downlink) * duration_s * 1e6;
        telemetry::observe("node.energy.downlink_nj", energy_nj as u64);
        Some(report)
    }

    fn downlink_dual(
        &mut self,
        ctx: &mut SessionCtx,
        payload: &[u8],
        f_a: f64,
        f_b: f64,
        symbol_rate: f64,
        tones: ToneSelection,
    ) -> DownlinkReport {
        let (cw, scr) = (&mut ctx.chan, &mut ctx.link);
        // Pilot + frame, so the node's threshold sees both levels early.
        scr.symbols.clear();
        scr.symbols.extend_from_slice(&UPLINK_PILOT);
        scr.symbols.extend_from_slice(&scr.frame);

        // Simulation bandwidth needs to cover both tones comfortably; the
        // waveform is generated per tone so each FSA port sees its own
        // frequency-dependent gain.
        let fs = self.downlink_fs(f_a, f_b);
        let fc = 0.5 * (f_a + f_b);
        let mut tx = self.ap.tx;
        tx.fs = fs;
        let n_symbols = scr.symbols.len();
        scr.bits_a.clear();
        scr.bits_a.extend(scr.symbols.iter().map(|s| s.a_on));
        scr.bits_b.clear();
        scr.bits_b.extend(scr.symbols.iter().map(|s| s.b_on));
        // Each tone at half the total power (√2 amplitude split).
        for (tone, f, bits) in [
            (&mut scr.tone_a, f_a, &scr.bits_a),
            (&mut scr.tone_b, f_b, &scr.bits_b),
        ] {
            waveform::ook_waveform_into(&tx, fc, f, bits, symbol_rate, &mut tone.signal);
            tone.signal.scale(1.0 / 2f64.sqrt());
            tone.profile = FreqProfile::Constant(f);
        }

        // Signal at each FSA port = wanted tone + cross-tone leakage.
        self.render_tones_to_ports_into(
            cw,
            &scr.tone_a,
            &scr.tone_b,
            &mut scr.at_a,
            &mut scr.at_b,
            &mut scr.port_tmp,
        );

        // SINR bookkeeping from the known components (steady-state levels).
        let p_tx_tone = self.ap.tx.amplitude().powi(2) / 2.0;
        let chain = self.node_chain_gain();
        let g = |port: Port, f: f64| {
            self.scene
                .tone_gain_to_port(&self.node.pose, &self.node.fsa, port, f)
                * chain
        };
        let v = |p: f64| self.node.detector.ideal_output(p);
        let noise = self.node.detector.output_noise_rms();
        let sinr_a = branch_sinr(
            v(p_tx_tone * g(Port::A, f_a)),
            v(p_tx_tone * g(Port::A, f_b)),
            noise,
        );
        let sinr_b = branch_sinr(
            v(p_tx_tone * g(Port::B, f_b)),
            v(p_tx_tone * g(Port::B, f_a)),
            noise,
        );
        let integration = self.node.detector.video_bandwidth / symbol_rate;
        let dec_a = branch_decision_snr(
            v(p_tx_tone * g(Port::A, f_a)),
            v(p_tx_tone * g(Port::A, f_b)),
            noise,
            integration,
        );
        let dec_b = branch_decision_snr(
            v(p_tx_tone * g(Port::B, f_b)),
            v(p_tx_tone * g(Port::B, f_a)),
            noise,
            integration,
        );

        // Node receive + demodulate.
        self.node_videos_into(&scr.at_a, &scr.at_b, &mut scr.det_a, &mut scr.det_b);
        let slicer = EnvelopeSlicer::new(fs, symbol_rate);
        demodulate_oaqfm_into(
            &slicer,
            &scr.det_a,
            &scr.det_b,
            0.0,
            n_symbols,
            &mut scr.demod,
            &mut scr.got,
        );
        let got_frame = &scr.got[UPLINK_PILOT.len()..];

        symbols_to_bits_into(&scr.frame, &mut scr.sent_bits);
        symbols_to_bits_into(got_frame, &mut scr.got_bits);
        let errors = bit_errors(&scr.sent_bits, &scr.got_bits);
        let decoded = decode_frame_with(
            &mut scr.codec,
            &scr.got[UPLINK_PILOT.len()..],
            payload.len(),
        );
        DownlinkReport {
            tones,
            payload: decoded,
            bit_errors: errors,
            total_bits: scr.sent_bits.len(),
            sinr: sinr_a.min(sinr_b),
            decision_snr: dec_a.min(dec_b),
        }
    }

    fn downlink_ook(
        &mut self,
        ctx: &mut SessionCtx,
        payload: &[u8],
        f: f64,
        symbol_rate: f64,
        tones: ToneSelection,
    ) -> DownlinkReport {
        let (cw, scr) = (&mut ctx.chan, &mut ctx.link);
        // OOK fallback: 1 bit per symbol on a single carrier.
        symbols_to_bits_into(&scr.frame, &mut scr.sent_bits);
        scr.bits_a.clear();
        scr.bits_a.extend_from_slice(&[true, false, true, false]); // pilot
        scr.bits_a.extend_from_slice(&scr.sent_bits);

        let fs = 16.0 * symbol_rate;
        let mut tx = self.ap.tx;
        tx.fs = fs;
        let tone = &mut scr.tone_a;
        waveform::ook_waveform_into(&tx, f, f, &scr.bits_a, symbol_rate, &mut tone.signal);
        tone.profile = FreqProfile::Constant(f);
        let pose = &self.node.pose;
        let fsa = &self.node.fsa;
        self.scene
            .to_node_port_into(cw, tone, pose, fsa, Port::A, &mut scr.at_a);
        self.scene
            .to_node_port_into(cw, tone, pose, fsa, Port::B, &mut scr.at_b);

        let p_tx = self.ap.tx.amplitude().powi(2);
        let chain = self.node_chain_gain();
        let g_a = self
            .scene
            .tone_gain_to_port(&self.node.pose, &self.node.fsa, Port::A, f);
        let v_sig = self.node.detector.ideal_output(p_tx * g_a * chain);
        let noise = self.node.detector.output_noise_rms();
        let sinr = branch_sinr(v_sig, 0.0, noise);
        let integration = self.node.detector.video_bandwidth / symbol_rate;
        let decision_snr = branch_decision_snr(v_sig, 0.0, noise, integration);

        self.node_videos_into(&scr.at_a, &scr.at_b, &mut scr.det_a, &mut scr.det_b);
        let slicer = EnvelopeSlicer::new(fs, symbol_rate);
        let n_bits = scr.bits_a.len();
        demodulate_ook_into(
            &slicer,
            &scr.det_a,
            &scr.det_b,
            0.0,
            n_bits,
            &mut scr.demod,
            &mut scr.got_bits,
        );
        let got_bits = &scr.got_bits[4..];
        let errors = bit_errors(&scr.sent_bits, got_bits);
        bits_to_symbols_into(got_bits, &mut scr.got);
        let decoded = decode_frame_with(&mut scr.codec, &scr.got, payload.len());
        DownlinkReport {
            tones,
            payload: decoded,
            bit_errors: errors,
            total_bits: scr.sent_bits.len(),
            sinr,
            decision_snr,
        }
    }

    /// Runs a full uplink transfer of `payload` at `symbol_rate`
    /// symbols/s, planning carriers as [`Network::downlink`] does.
    ///
    /// Returns `None` (and counts `core.link.uplink.rejected`) for a
    /// symbol rate that is not finite and positive, before any sensing;
    /// `None` before any RNG draw when the node or a parked interferer
    /// cannot be rendered (see [`Network::localize`]); `None` for a rate
    /// past the node switch's toggle limit, after tone planning; and
    /// when no carrier plan exists.
    ///
    /// Steady-state allocations: the decoded payload `Vec<u8>`; the
    /// node, channel and AP receiver buffers are pooled in the thread's
    /// shared [`SessionCtx`]. `tests/zero_alloc.rs` pins the total with
    /// an upper bound.
    pub fn uplink(
        &mut self,
        payload: &[u8],
        symbol_rate: f64,
        use_truth: bool,
    ) -> Option<UplinkReport> {
        with_run_ctx(|ctx| {
            self.uplink_in(ctx, payload, symbol_rate, |net, ctx| {
                net.plan_tones_in(ctx, use_truth)
            })
        })
    }

    /// The one uplink transfer, in `ctx`, as [`Network::downlink_in`].
    pub(crate) fn uplink_in(
        &mut self,
        ctx: &mut SessionCtx,
        payload: &[u8],
        symbol_rate: f64,
        tones: impl FnOnce(&mut Self, &mut SessionCtx) -> Option<ToneSelection>,
    ) -> Option<UplinkReport> {
        let _span = telemetry::span("core.link.uplink.ns");
        if !uplink_rate_ok(symbol_rate) {
            telemetry::counter_add("core.link.uplink.rejected", 1);
            return None;
        }
        if self.render_rejected() {
            return None;
        }
        let tones = tones(self, ctx)?;
        self.uplink_transfer(ctx, payload, symbol_rate, tones)
    }

    fn uplink_transfer(
        &mut self,
        ctx: &mut SessionCtx,
        payload: &[u8],
        symbol_rate: f64,
        tones: ToneSelection,
    ) -> Option<UplinkReport> {
        let (cw, scr) = (&mut ctx.chan, &mut ctx.link);
        let (f_a, f_b) = match tones {
            ToneSelection::Dual { f_a, f_b } => (f_a, f_b),
            // Normal incidence: both ports reflect the same tone; the AP
            // still decodes two branches but they carry the same bit —
            // handled by using the same frequency on both branches.
            ToneSelection::Single { f } => (f, f),
        };

        let single = matches!(tones, ToneSelection::Single { .. });
        encode_frame_into(payload, &mut scr.codec, &mut scr.frame);
        symbols_to_bits_into(&scr.frame, &mut scr.sent_bits);
        scr.symbols.clear();
        scr.symbols.extend_from_slice(&UPLINK_PILOT);
        if single {
            // OOK: both ports key the same bit each symbol (like the
            // pilot), so the two reflections add coherently and either
            // antenna branch alone recovers the stream — 1 bit/symbol at
            // twice the symbol count instead of 2 separable bits.
            scr.symbols.extend(
                scr.sent_bits
                    .iter()
                    .map(|&b| OaqfmSymbol { a_on: b, b_on: b }),
            );
        } else {
            scr.symbols.extend_from_slice(&scr.frame);
        }
        let n_symbols = scr.symbols.len();

        // Query waveform: guard before and after the modulated payload.
        let fs = self.downlink_fs(f_a, f_b);
        let fc = 0.5 * (f_a + f_b);
        let t0 = GUARD_SYMBOLS as f64 / symbol_rate;
        let total_t = (n_symbols + 2 * GUARD_SYMBOLS) as f64 / symbol_rate;
        let mut tx = self.ap.tx;
        tx.fs = fs;
        let n = (total_t * fs).round() as usize;
        let amp = tx.amplitude() / 2f64.sqrt();
        // The node modulates its ports per symbol. A symbol rate beyond
        // the switch's capability is a planning error, not a physics
        // outcome — reject the transfer gracefully instead of panicking.
        if modulate_uplink_into(
            &self.node.switch,
            &scr.symbols,
            t0,
            symbol_rate,
            &mut scr.sched_a,
            &mut scr.sched_b,
        )
        .is_err()
        {
            telemetry::counter_add("core.link.uplink.rejected", 1);
            return None;
        }
        // Each query tone is rendered as its own channel component so the
        // node's FSA gain is evaluated at that tone's frequency (the whole
        // point of OAQFM: each tone talks to one port's beam). The plan
        // follows the sensed orientation, so both tones are synthesized
        // per transfer, into the pooled tone buffers.
        query_tone_into(&mut scr.tone_a, fs, fc, f_a, amp, n);
        query_tone_into(&mut scr.tone_b, fs, fc, f_b, amp, n);
        // Four one-shot monostatic renders (two tones × two RX antennas)
        // in `cw`'s pooled scratch share one Γ-run fill.
        {
            self.node
                .gamma_runs_into(&scr.sched_a, &scr.sched_b, fs, n, &mut scr.gamma_runs);
            let node_if = NodeInterface {
                pose: self.node.pose,
                fsa: &self.node.fsa,
                gamma: &scr.gamma_runs,
            };
            let nodes = std::slice::from_ref(&node_if);
            let scene = &self.scene;
            let (comp_a, comp_b, tmp) = (&scr.tone_a, &scr.tone_b, &mut scr.port_tmp);
            scene.monostatic_rx_multi_uncached_into(cw, comp_a, nodes, 0, &mut scr.rx0);
            scene.monostatic_rx_multi_uncached_into(cw, comp_b, nodes, 0, tmp);
            scr.rx0.add(tmp);
            scene.monostatic_rx_multi_uncached_into(cw, comp_a, nodes, 1, &mut scr.rx1);
            scene.monostatic_rx_multi_uncached_into(cw, comp_b, nodes, 1, tmp);
            scr.rx1.add(tmp);
        }
        // Scheduled impairments act on the AP's captures post-synthesis
        // (no-op, bitwise, when the plan is empty).
        self.faults.apply_to_rx(self.clock_s, 0, &mut scr.rx0);
        self.faults.apply_to_rx(self.clock_s, 1, &mut scr.rx1);

        let mut receiver = UplinkReceiver::milback(symbol_rate);
        // Uplink noise figure: the LNA's own 3 dB (the node's reflected
        // signal is the weak one; the scope contribution is lumped into
        // the node's implementation loss).
        receiver.lna.nf_db = 3.0;
        let mut rng = self.fork_rng();
        let stats = receiver.demodulate_into(
            &mut scr.uplink,
            &scr.rx0,
            &scr.rx1,
            f_a,
            f_b,
            t0,
            n_symbols,
            &mut rng,
            &mut scr.got,
        );
        let got_frame = &scr.got[UPLINK_PILOT.len()..];

        if single {
            // Both branches carry the duplicated bit; trust the one whose
            // decision clusters separated better.
            let use_a = stats.branch_snr[0] >= stats.branch_snr[1];
            scr.got_bits.clear();
            scr.got_bits.extend(
                got_frame
                    .iter()
                    .map(|s| if use_a { s.a_on } else { s.b_on }),
            );
        } else {
            symbols_to_bits_into(got_frame, &mut scr.got_bits);
        }
        let errors = bit_errors(&scr.sent_bits, &scr.got_bits);
        telemetry::counter_add("core.link.uplink.frames", 1);
        telemetry::counter_add("core.link.uplink.bits", scr.sent_bits.len() as u64);
        telemetry::counter_add("core.link.uplink.bit_errors", errors as u64);
        let bit_rate = tones.bits_per_symbol() as f64 * symbol_rate;
        let energy_nj = self.node.power.power_mw(NodeMode::Uplink { bit_rate })
            * (scr.sent_bits.len() as f64 / bit_rate)
            * 1e6;
        telemetry::observe("node.energy.uplink_nj", energy_nj as u64);
        let payload_res = if single {
            // Re-pack the recovered bit stream into frame symbols for the
            // shared frame decoder.
            bits_to_symbols_into(&scr.got_bits, &mut scr.got);
            decode_frame_with(&mut scr.codec, &scr.got, payload.len())
        } else {
            decode_frame_with(&mut scr.codec, got_frame, payload.len())
        };
        Some(UplinkReport {
            tones,
            payload: payload_res,
            bit_errors: errors,
            total_bits: scr.sent_bits.len(),
            snr: stats.snr,
        })
    }

    /// Simulation sample rate covering two tones `f_a`/`f_b` around their
    /// midpoint with margin.
    fn downlink_fs(&self, f_a: f64, f_b: f64) -> f64 {
        let span = (f_a - f_b).abs();
        (2.5 * span).max(200e6)
    }

    /// Power gain of the node's receive chain after the FSA port (switch
    /// through-loss × one-way implementation loss).
    fn node_chain_gain(&self) -> f64 {
        self.node.switch.through_gain() * 10f64.powf(-self.node.impl_loss_db / 10.0)
    }

    /// Renders both ports' video-rate detector outputs for the signals
    /// at the ports into pooled buffers: detector → noise → node-side
    /// impairments (a no-op when the fault plan is empty). Each port's
    /// noise stream key is drawn from the network RNG in the serial
    /// order (A, then B) before either port runs; when [`par::claim`]
    /// finds an idle core the two ports run at once, bitwise the same
    /// as one after the other (DESIGN.md §17.4).
    fn node_videos_into(
        &mut self,
        at_a: &Signal,
        at_b: &Signal,
        out_a: &mut Vec<f64>,
        out_b: &mut Vec<f64>,
    ) {
        let detector = self.node.detector;
        let key_a = detector.noise_key(self.rng());
        let key_b = detector.noise_key(self.rng());
        let (node, faults, clock_s) = (&self.node, &self.faults, self.clock_s);
        let port = |at: &Signal, key, out: &mut Vec<f64>| {
            node.receive_port_video_into(at, key, out);
            faults.apply_to_video(clock_s, at.fs, out);
        };
        match par::claim() {
            Some(claim) => {
                claim.join(|| port(at_a, key_a, out_a), || port(at_b, key_b, out_b));
            }
            None => {
                port(at_a, key_a, out_a);
                port(at_b, key_b, out_b);
            }
        }
    }
}

/// Overwrites `tone` with the query tone at RF `f_rf`: bit for bit the
/// `TxComponent::tone(Signal::tone(fs, fc, f_rf - fc, amp, n), f_rf)`
/// synthesis, reusing the buffer's capacity.
fn query_tone_into(tone: &mut TxComponent, fs: f64, fc: f64, f_rf: f64, amp: f64, n: usize) {
    let wave = &mut tone.signal;
    wave.fs = fs;
    wave.fc = fc;
    milback_dsp::buffer::track_growth(&mut wave.samples, n);
    wave.samples.clear();
    wave.samples.resize(n, ZERO);
    let w = 2.0 * std::f64::consts::PI * (f_rf - fc) / fs;
    phasor::fill_linear(amp, 0.0, w, &mut wave.samples);
    tone.profile = FreqProfile::Constant(f_rf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Fidelity;
    use milback_rf::geometry::{deg_to_rad, Pose};

    #[test]
    fn downlink_clean_at_2m() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 11);
        let payload: Vec<u8> = (0..16).collect();
        let report = net.downlink(&payload, 1e6, true).expect("no tones");
        assert!(matches!(report.tones, ToneSelection::Dual { .. }));
        assert_eq!(report.bit_errors, 0, "sinr {}", report.sinr);
        assert_eq!(report.payload.as_deref().unwrap(), &payload[..]);
        assert!(report.sinr > 10.0, "sinr {}", report.sinr);
    }

    #[test]
    fn downlink_ook_fallback_at_normal_incidence() {
        let pose = Pose::facing_ap(2.0, 0.0, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, 12);
        let payload = vec![0xA5; 8];
        let report = net.downlink(&payload, 1e6, true).expect("no tones");
        assert!(matches!(report.tones, ToneSelection::Single { .. }));
        assert_eq!(report.bit_errors, 0);
        assert_eq!(report.payload.as_deref().unwrap(), &payload[..]);
    }

    #[test]
    fn uplink_clean_at_2m() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 13);
        let payload: Vec<u8> = (0..8).map(|i| i * 17).collect();
        let report = net.uplink(&payload, 5e6, true).expect("no tones");
        assert_eq!(report.bit_errors, 0, "snr {}", report.snr);
        assert_eq!(report.payload.as_deref().unwrap(), &payload[..]);
        assert!(report.snr > 10.0, "snr {}", report.snr);
    }

    #[test]
    fn downlink_with_sensed_orientation() {
        // The full paper pipeline: sense orientation, pick tones, send.
        // 3–4° orientation error must not break communication (§9.3).
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(10.0));
        let mut net = Network::new(pose, Fidelity::Fast, 14);
        let payload = vec![0x5A; 8];
        let report = net.downlink(&payload, 1e6, false).expect("no tones");
        assert_eq!(report.bit_errors, 0, "sinr {}", report.sinr);
    }

    #[test]
    fn uplink_snr_drops_with_distance() {
        let mut snrs = Vec::new();
        for d in [2.0, 4.0, 6.0] {
            let pose = Pose::facing_ap(d, 0.0, deg_to_rad(12.0));
            let mut net = Network::new(pose, Fidelity::Fast, 15);
            let report = net.uplink(&[0x33; 4], 5e6, true).expect("no tones");
            snrs.push(report.snr);
        }
        assert!(snrs[0] > snrs[1] && snrs[1] > snrs[2], "{snrs:?}");
    }

    #[test]
    fn bad_symbol_rates_return_none_instead_of_panicking() {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        for rate in [f64::NAN, -1e6, 0.0, 1e12] {
            let mut net = Network::new(pose, Fidelity::Fast, 41);
            assert!(
                net.downlink(&[1, 2, 3], rate, true).is_none(),
                "downlink at {rate}"
            );
            assert!(
                net.uplink(&[1, 2, 3], rate, true).is_none(),
                "uplink at {rate}"
            );
        }
    }

    #[test]
    fn port_videos_match_ports_in_turn() {
        // The serial reference: detect A on its own RNG draw, then B on
        // the next. Long enough to split the noise fills.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut reference = Network::new(pose, Fidelity::Fast, 52);
        let mut net = Network::new(pose, Fidelity::Fast, 52);
        let at_a = Signal::tone(200e6, 28e9, 3e6, 1e-3, 20_000);
        let at_b = Signal::tone(200e6, 28e9, -5e6, 2e-3, 20_000);
        let node = reference.node.clone();
        let want_a = node.receive_port_video(&at_a, reference.rng());
        let want_b = node.receive_port_video(&at_b, reference.rng());

        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        net.node_videos_into(&at_a, &at_b, &mut got_a, &mut got_b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got_a), bits(&want_a), "port A video");
        assert_eq!(bits(&got_b), bits(&want_b), "port B video");
        assert_eq!(net.fork_rng(), reference.fork_rng(), "network RNG");
    }

    #[test]
    fn port_noise_is_uncorrelated() {
        // Silent ports: each port's video is its detector noise alone,
        // white at the video rate, so two ports sharing a noise stream
        // would correlate fully. 5/√n bounds |ρ| for independent ports.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 53);
        let n = 40_000;
        let silent = Signal::zeros(200e6, 28e9, n);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        net.node_videos_into(&silent, &silent, &mut a, &mut b);
        let sigma = net.node.detector.output_noise_rms();
        let rho = a.iter().zip(&b).map(|(x, y)| x * y).sum::<f64>() / (n as f64 * sigma * sigma);
        assert!(
            rho.abs() < 5.0 / (n as f64).sqrt(),
            "port A/B noise correlation {rho}"
        );
        let var_a = a.iter().map(|x| x * x).sum::<f64>() / (n as f64 * sigma * sigma);
        assert!(
            (var_a - 1.0).abs() < 5.0 * (2.0 / n as f64).sqrt(),
            "port A variance {var_a}"
        );
    }

    #[test]
    fn debug_output_summarizes_the_pooled_buffers() {
        // A warmed scratch holds multi-MB signals; printing it or the
        // network (a panic message, a log line) must not dump them.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 54);
        let mut ctx = SessionCtx::new();
        let truth = |net: &mut Network, ctx: &mut SessionCtx| net.plan_tones_in(ctx, true);
        net.uplink_in(&mut ctx, &[0x5A; 16], 5e6, truth)
            .expect("no uplink");
        net.downlink_in(&mut ctx, &[0xA5; 16], 1e6, truth)
            .expect("no downlink");
        let scratch = format!("{:?}", ctx.link);
        for printed in [&scratch, &format!("{net:?}")] {
            assert!(printed.len() < 16_000, "{} bytes", printed.len());
        }
        assert!(scratch.contains("LinkScratch") && scratch.contains("captures"));
    }

    /// FNV-1a over the length and every sample bit of each signal, in
    /// order.
    fn render_digest(signals: [&Signal; 2]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        for sig in signals {
            word(sig.len() as u64);
            for c in &sig.samples {
                word(c.re.to_bits());
                word(c.im.to_bits());
            }
        }
        h
    }

    /// Carriers planned from the true orientation.
    fn truth(net: &mut Network, ctx: &mut SessionCtx) -> Option<ToneSelection> {
        net.plan_tones_in(ctx, true)
    }

    /// A network at 2 m in the indoor scene, or in free space with only
    /// the node's mirror reflection lit (so the node term is not buried
    /// under clutter and leakage in the captures).
    fn pinned_network(facing_deg: f64, indoor: bool, seed: u64) -> Network {
        let pose = Pose::facing_ap(2.0, deg_to_rad(-3.0), deg_to_rad(facing_deg));
        if indoor {
            return Network::new(pose, Fidelity::Fast, seed);
        }
        let mut net = Network::free_space(pose, Fidelity::Fast, seed);
        net.scene.mirror = Some(milback_rf::channel::MirrorReflection::milback());
        net
    }

    #[test]
    fn downlink_port_renders_are_pinned() {
        // Every sample bit of both FSA ports' noiseless renders, for a
        // dual-tone plan (node 12° off) and the OOK fallback (normal
        // incidence); a second transfer in the same ctx renders the same.
        for (facing, pinned) in [(12.0, 0xd2e8_924f_c30c_a135), (0.0, 0x8503_01ed_3ba8_c01b)] {
            let mut net = pinned_network(facing, true, 0x5EED_0070);
            let mut ctx = SessionCtx::new();
            for pass in 0..2 {
                let report = net
                    .downlink_in(&mut ctx, &[0xA5; 16], 1e6, truth)
                    .expect("no downlink");
                assert_eq!(
                    matches!(report.tones, ToneSelection::Dual { .. }),
                    facing != 0.0
                );
                let digest = render_digest([&ctx.link.at_a, &ctx.link.at_b]);
                assert_eq!(
                    digest, pinned,
                    "facing {facing}°, pass {pass}: port renders moved: {digest:#018x}"
                );
            }
        }
    }

    #[test]
    fn uplink_captures_are_pinned() {
        // Every sample bit of both RX antennas' noiseless captures, for a
        // dual-tone and a single-tone plan, indoors and in a clutter-free
        // scene; a second transfer in the same ctx renders the same.
        let cases = [
            (12.0, true, 0xf4c6_2f03_c0f6_e2a0),
            (0.0, true, 0x1b97_a04a_ece7_1e90),
            (12.0, false, 0x20c6_68c1_e746_b5e4),
            (0.0, false, 0x9db4_c517_4128_4f80),
        ];
        for (facing, indoor, pinned) in cases {
            let mut net = pinned_network(facing, indoor, 0x5EED_0071);
            let mut ctx = SessionCtx::new();
            for pass in 0..2 {
                let report = net
                    .uplink_in(&mut ctx, &[0x5A; 16], 5e6, truth)
                    .expect("no uplink");
                assert_eq!(
                    matches!(report.tones, ToneSelection::Dual { .. }),
                    facing != 0.0
                );
                let digest = render_digest([&ctx.link.rx0, &ctx.link.rx1]);
                assert_eq!(
                    digest, pinned,
                    "facing {facing}°, indoor {indoor}, pass {pass}: captures moved: {digest:#018x}"
                );
            }
        }
    }

    #[test]
    fn pooled_scratch_survives_payload_size_changes() {
        // The scratch buffers are reused across transfers; shrinking and
        // regrowing payloads must not leak stale symbols or bits into the
        // next frame.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 21);
        for len in [16usize, 4, 32, 1, 16] {
            let payload: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(29)).collect();
            let report = net.downlink(&payload, 1e6, true).expect("no tones");
            assert_eq!(report.bit_errors, 0, "len {len}");
            assert_eq!(
                report.payload.as_deref().unwrap(),
                &payload[..],
                "len {len}"
            );
            let report = net.uplink(&payload, 5e6, true).expect("no tones");
            assert_eq!(report.bit_errors, 0, "len {len}");
            assert_eq!(
                report.payload.as_deref().unwrap(),
                &payload[..],
                "len {len}"
            );
        }
    }

    #[test]
    fn pooled_transfers_are_deterministic() {
        // Two identically seeded networks running the same transfer
        // sequence must agree bit-for-bit — warm scratch reuse cannot
        // perturb results.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut a = Network::new(pose, Fidelity::Fast, 33);
        let mut b = Network::new(pose, Fidelity::Fast, 33);
        for _ in 0..3 {
            let ra = a.downlink(&[0xC3; 12], 1e6, true).unwrap();
            let rb = b.downlink(&[0xC3; 12], 1e6, true).unwrap();
            assert_eq!(ra.bit_errors, rb.bit_errors);
            assert_eq!(ra.payload.as_deref().ok(), rb.payload.as_deref().ok());
            assert_eq!(ra.sinr.to_bits(), rb.sinr.to_bits());
            let ua = a.uplink(&[0x3C; 12], 5e6, true).unwrap();
            let ub = b.uplink(&[0x3C; 12], 5e6, true).unwrap();
            assert_eq!(ua.bit_errors, ub.bit_errors);
            assert_eq!(ua.snr.to_bits(), ub.snr.to_bits());
        }
    }
}
