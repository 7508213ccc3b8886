//! End-to-end communication over the simulated channel: OAQFM downlink
//! (paper §6.1–6.2) and backscatter uplink (§6.3), including carrier
//! selection from the sensed orientation.
//!
//! Both directions render the payload at the receiver's detection
//! bandwidth, not at an RF span (DESIGN.md §5): the uplink as each RX
//! branch's complex envelope at its query tone, one value per symbol
//! segment from [`milback_rf::channel::Scene::tone_response`]; the
//! downlink as each port's detector video, one of four input levels per
//! symbol.
//!
//! All per-transfer working buffers live in `LinkScratch`, pooled in
//! the caller's [`SessionCtx`]: a warmed downlink or uplink performs zero
//! heap allocations on the node/AP signal path (`tests/zero_alloc.rs`
//! pins this). The only steady-state allocation left is the decoded
//! payload `Vec<u8>` handed to the caller.

use crate::network::Network;
use crate::session::{with_run_ctx, SessionCtx};
use milback_ap::tone_select::{select_tones, ToneSelection};
use milback_ap::uplink::{UplinkReceiver, UplinkScratch, UPLINK_PILOT};
use milback_dsp::signal::Signal;
use milback_hw::power::NodeMode;
use milback_node::demod::{
    demodulate_oaqfm_into, demodulate_ook_into, DemodScratch, EnvelopeSlicer,
};
use milback_node::node::uplink_fill_into;
use milback_proto::bits::{bit_errors, bits_to_symbols_into, symbols_to_bits_into, OaqfmSymbol};
use milback_proto::frame::{decode_frame_with, encode_frame_into, FrameError, FrameScratch};
use milback_rf::faults::RfBand;
use milback_rf::fsa::Port;
use milback_telemetry as telemetry;

/// Minimum tone separation before falling back to single-carrier OOK:
/// the two envelope-detector branches stop being separable when the tones
/// approach the detector's video bandwidth.
pub const MIN_TONE_SEPARATION: f64 = 100e6;

/// Guard symbols (query running, node silent) before the pilot, so the
/// receiver's filter transients settle outside the payload.
pub const GUARD_SYMBOLS: usize = 6;

/// Fastest downlink symbol rate a transfer accepts, well past the
/// 36 Mbps the detector's video bandwidth allows (paper §9.4): a faster
/// request is rejected as a planning error, not rendered.
const MAX_DOWNLINK_SYMBOL_RATE: f64 = 100e6;

/// Whether a downlink can run at `symbol_rate`: positive and at most
/// [`MAX_DOWNLINK_SYMBOL_RATE`].
fn downlink_rate_ok(symbol_rate: f64) -> bool {
    symbol_rate > 0.0 && symbol_rate <= MAX_DOWNLINK_SYMBOL_RATE
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
    /// The uplink's branch envelopes, one per RX antenna.
    rx0: Signal,
    rx1: Signal,
    /// The uplink receiver's pooled demodulation buffers.
    uplink: UplinkScratch,
}

impl std::fmt::Debug for LinkScratch {
    /// Buffer lengths instead of the video streams and branch envelopes
    /// a warmed scratch holds.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkScratch")
            .field("symbols", &self.symbols.len())
            .field("videos", &[self.det_a.len(), self.det_b.len()])
            .field("branches", &[self.rx0.len(), self.rx1.len()])
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
            det_a: Vec::new(),
            det_b: Vec::new(),
            got: Vec::new(),
            sent_bits: Vec::new(),
            got_bits: Vec::new(),
            demod: DemodScratch::default(),
            codec: FrameScratch::default(),
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
    /// The decision SNR the node's slicer measured from its level
    /// clusters (weaker branch; linear), the counterpart of
    /// `decision_snr` (see [`milback_node::demod::measured_decision_snr`]).
    pub measured_snr: f64,
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
/// detector noise over `integration_gain` independent samples, while the
/// (symbol-synchronous) cross-port interference subtracts from the
/// decision margin instead.
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

/// Independent detector-noise samples in one symbol's decision: the
/// noise is white over the video bandwidth `B`, so a window of `T`
/// seconds holds `2·B·T` of them, and the slicer integrates the part of
/// each symbol past its settling guard.
fn integration_gain(slicer: &EnvelopeSlicer, video_bandwidth: f64) -> f64 {
    2.0 * video_bandwidth * (1.0 - slicer.guard) / slicer.symbol_rate
}

impl Network {
    /// Whether an uplink can run at `symbol_rate`: finite, positive and
    /// within the node switch's toggle limit (the node toggles each port
    /// at most once per symbol).
    fn uplink_rate_ok(&self, symbol_rate: f64) -> bool {
        symbol_rate.is_finite() && symbol_rate > 0.0 && self.node.switch.supports_rate(symbol_rate)
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
    /// symbol rate that is NaN, not positive, or past 100 Msym/s, before
    /// any sensing; `None` before any RNG draw when the node or a parked
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
                self.downlink_dual(scr, payload, f_a, f_b, symbol_rate, tones)
            }
            ToneSelection::Single { f } => self.downlink_ook(scr, payload, f, symbol_rate, tones),
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

    /// Power (watts) a CW tone at `f` carrying `p_tx` delivers to the
    /// node's FSA `port`.
    fn port_power(&self, p_tx: f64, port: Port, f: f64) -> f64 {
        p_tx * self
            .scene
            .tone_gain_to_port(&self.node.pose, &self.node.fsa, port, f)
    }

    /// Each port's `[own, other]` tone power (watts, at the FSA port)
    /// under a dual-tone plan with `p_tone` per tone: each port hears
    /// its own tone through its beam and the other through its side
    /// lobes. Port A's first.
    pub(crate) fn dual_port_powers(&self, p_tone: f64, f_a: f64, f_b: f64) -> [[f64; 2]; 2] {
        [(Port::A, f_a, f_b), (Port::B, f_b, f_a)]
            .map(|(port, own, other)| [own, other].map(|f| self.port_power(p_tone, port, f)))
    }

    fn downlink_dual(
        &mut self,
        scr: &mut LinkScratch,
        payload: &[u8],
        f_a: f64,
        f_b: f64,
        symbol_rate: f64,
        tones: ToneSelection,
    ) -> DownlinkReport {
        // Pilot + frame, so the node's threshold sees both levels early.
        scr.symbols.clear();
        scr.symbols.extend_from_slice(&UPLINK_PILOT);
        scr.symbols.extend_from_slice(&scr.frame);
        let n_symbols = scr.symbols.len();
        scr.bits_a.clear();
        scr.bits_a.extend(scr.symbols.iter().map(|s| s.a_on));
        scr.bits_b.clear();
        scr.bits_b.extend(scr.symbols.iter().map(|s| s.b_on));

        // Each tone at half the total power.
        let p_tone = self.ap.tx.amplitude().powi(2) / 2.0;
        let [port_a, port_b] = self.dual_port_powers(p_tone, f_a, f_b);

        // SINR bookkeeping from the known components (steady-state levels).
        let chain = self.node_chain_gain();
        let v = |p: f64| self.node.detector.ideal_output(p * chain);
        let noise = self.node.detector.output_noise_rms();
        let fs = self.node.detector.payload_video_rate(symbol_rate);
        let slicer = EnvelopeSlicer::new(fs, symbol_rate);
        let integration = integration_gain(&slicer, self.node.detector.video_bandwidth);
        let [(sinr_a, dec_a), (sinr_b, dec_b)] = [port_a, port_b].map(|[own, other]| {
            let (wanted, leak) = (v(own), v(other));
            let decision = branch_decision_snr(wanted, leak, noise, integration);
            (branch_sinr(wanted, leak, noise), decision)
        });

        // Node receive + demodulate.
        self.node_videos_into(
            [
                (port_a, &scr.bits_a, &scr.bits_b),
                (port_b, &scr.bits_b, &scr.bits_a),
            ],
            symbol_rate,
            fs,
            [&mut scr.det_a, &mut scr.det_b],
        );
        let measured_snr = demodulate_oaqfm_into(
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
            measured_snr,
        }
    }

    fn downlink_ook(
        &mut self,
        scr: &mut LinkScratch,
        payload: &[u8],
        f: f64,
        symbol_rate: f64,
        tones: ToneSelection,
    ) -> DownlinkReport {
        // OOK fallback: 1 bit per symbol on a single carrier at full
        // power, heard by both ports.
        symbols_to_bits_into(&scr.frame, &mut scr.sent_bits);
        scr.bits_a.clear();
        scr.bits_a.extend_from_slice(&[true, false, true, false]); // pilot
        scr.bits_a.extend_from_slice(&scr.sent_bits);
        let p_tx = self.ap.tx.amplitude().powi(2);
        let port_a = [self.port_power(p_tx, Port::A, f), 0.0];
        let port_b = [self.port_power(p_tx, Port::B, f), 0.0];

        let chain = self.node_chain_gain();
        let v = |[p, _]: [f64; 2]| self.node.detector.ideal_output(p * chain);
        let noise = self.node.detector.output_noise_rms();
        let sinr = branch_sinr(v(port_a), 0.0, noise);
        let fs = self.node.detector.payload_video_rate(symbol_rate);
        let slicer = EnvelopeSlicer::new(fs, symbol_rate);
        let integration = integration_gain(&slicer, self.node.detector.video_bandwidth);
        // The node slices the sum of both detectors: both ports' levels
        // add, and so do their independent noises.
        let summed = v(port_a) + v(port_b);
        let decision_snr = branch_decision_snr(summed, 0.0, noise * 2f64.sqrt(), integration);

        let bits = &scr.bits_a;
        self.node_videos_into(
            [(port_a, bits, &[]), (port_b, bits, &[])],
            symbol_rate,
            fs,
            [&mut scr.det_a, &mut scr.det_b],
        );
        let n_bits = scr.bits_a.len();
        let measured_snr = demodulate_ook_into(
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
            measured_snr,
        }
    }

    /// Runs a full uplink transfer of `payload` at `symbol_rate`
    /// symbols/s, planning carriers as [`Network::downlink`] does.
    ///
    /// Returns `None` (and counts `core.link.uplink.rejected`) for a
    /// symbol rate that is not finite and positive or is past the node
    /// switch's toggle limit, before any sensing or RNG draw; `None`
    /// before any RNG draw when the node or a parked interferer cannot be
    /// rendered (see [`Network::localize`]); and `None` when no carrier
    /// plan exists.
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
        if !self.uplink_rate_ok(symbol_rate) {
            telemetry::counter_add("core.link.uplink.rejected", 1);
            return None;
        }
        if self.render_rejected() {
            return None;
        }
        let tones = tones(self, ctx)?;
        self.uplink_transfer(&mut ctx.link, payload, symbol_rate, tones)
    }

    fn uplink_transfer(
        &mut self,
        scr: &mut LinkScratch,
        payload: &[u8],
        symbol_rate: f64,
        tones: ToneSelection,
    ) -> Option<UplinkReport> {
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
        let t0 = GUARD_SYMBOLS as f64 / symbol_rate;

        // Query: guard before and after the modulated payload. Each
        // branch is the complex envelope of its tone after the mixer at
        // the receiver's branch rate, one value per symbol segment: the
        // static paths plus the node's return at that tone while its
        // ports hold the symbol. A single-tone plan lights both query
        // tones at `f`, so their returns add.
        let mut receiver = UplinkReceiver::milback(symbol_rate);
        // Uplink noise figure: the LNA's own 3 dB (the node's reflected
        // signal is the weak one; the scope contribution is lumped into
        // the node's implementation loss).
        receiver.lna.nf_db = 3.0;
        let fs = receiver.branch_rate();
        let n = (n_symbols + 2 * GUARD_SYMBOLS) * receiver.samples_per_symbol;
        let [off, on] = self.node.port_gammas();
        let port = |bit: bool| if bit { on } else { off };
        let tones_per_branch = if single { 2.0 } else { 1.0 };
        let amp = tones_per_branch * self.ap.tx.amplitude() / 2f64.sqrt();
        // The AP's RF capture of both tones, which fault noise spans.
        let band = RfBand {
            fc: 0.5 * (f_a + f_b),
            bw: (2.5 * (f_a - f_b).abs()).max(200e6),
        };
        for (idx, f, branch) in [(0, f_a, &mut scr.rx0), (1, f_b, &mut scr.rx1)] {
            let response = self
                .scene
                .tone_response(&self.node.pose, &self.node.fsa, f, idx);
            branch.fs = fs;
            branch.fc = f;
            let level = |s: OaqfmSymbol| response.at([port(s.a_on), port(s.b_on)]) * amp;
            let samples = &mut branch.samples;
            uplink_fill_into(&scr.symbols, t0, symbol_rate, fs, n, level, samples);
            // Scheduled impairments act on the branch post-synthesis
            // (no-op, bitwise, when the plan is empty).
            self.faults.apply_to_branch(self.clock_s, idx, band, branch);
        }
        telemetry::counter_add("core.link.uplink.samples", 2 * n as u64);

        let mut rng = self.fork_rng();
        let stats = receiver.demodulate_into(
            &mut scr.uplink,
            &scr.rx0,
            &scr.rx1,
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

    /// Power gain of the node's receive chain after the FSA port (switch
    /// through-loss × one-way implementation loss).
    fn node_chain_gain(&self) -> f64 {
        self.node.switch.through_gain() * 10f64.powf(-self.node.impl_loss_db / 10.0)
    }

    /// Renders both ports' payload videos into `out` (port A, then B):
    /// each port's `([p_own, p_other], own, other)` through
    /// [`milback_node::node::BackscatterNode::payload_video_into`] at
    /// `fs`, then the node-side impairments (a no-op when the fault plan
    /// is empty). Each port's noise stream key is drawn from the network
    /// RNG, A's then B's, before either port renders.
    pub(crate) fn node_videos_into(
        &mut self,
        ports: [([f64; 2], &[bool], &[bool]); 2],
        symbol_rate: f64,
        fs: f64,
        out: [&mut Vec<f64>; 2],
    ) {
        let detector = self.node.detector;
        let keys = [
            detector.noise_key(self.rng()),
            detector.noise_key(self.rng()),
        ];
        for (((powers, own, other), key), video) in ports.into_iter().zip(keys).zip(out) {
            self.node
                .payload_video_into(powers, own, other, symbol_rate, fs, key, video);
            self.faults.apply_to_video(self.clock_s, fs, video);
            telemetry::counter_add("core.link.downlink.samples", video.len() as u64);
        }
    }
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
    fn port_noise_is_uncorrelated_and_white_at_the_video_rate() {
        // Silent ports: each port's video is its detector noise alone,
        // white at the video rate, so two ports sharing a noise stream
        // would correlate fully. 5/√n bounds |ρ| for independent ports.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut net = Network::new(pose, Fidelity::Fast, 53);
        let bits = vec![false; 500];
        let fs = net.node.detector.payload_video_rate(1e6);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let silent = ([0.0; 2], &bits[..], &[][..]);
        net.node_videos_into([silent, silent], 1e6, fs, [&mut a, &mut b]);
        let n = a.len();
        assert_eq!(n, 36_000);
        let sigma = net.node.detector.noise_rms_at(fs);
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
        // A warmed scratch holds video streams and branch envelopes;
        // printing it or the network (a panic message, a log line) must
        // not dump them.
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
        assert!(scratch.contains("LinkScratch") && scratch.contains("branches"));
    }

    /// FNV-1a over the length and every word of each stream, in order.
    fn digest<'a>(streams: impl IntoIterator<Item = &'a [u64]>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        for stream in streams {
            word(stream.len() as u64);
            stream.iter().for_each(|&w| word(w));
        }
        h
    }

    /// Every sample bit of both RX branches' envelopes.
    fn branch_digest(link: &LinkScratch) -> u64 {
        let bits = |sig: &Signal| -> Vec<u64> {
            sig.samples
                .iter()
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect()
        };
        digest([&bits(&link.rx0)[..], &bits(&link.rx1)[..]])
    }

    /// Every sample bit of both ports' detector videos.
    fn video_digest(link: &LinkScratch) -> u64 {
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        digest([&bits(&link.det_a)[..], &bits(&link.det_b)[..]])
    }

    /// Carriers planned from the true orientation.
    fn truth(net: &mut Network, ctx: &mut SessionCtx) -> Option<ToneSelection> {
        net.plan_tones_in(ctx, true)
    }

    /// A network at 2 m in the indoor scene, or in free space with only
    /// the node's mirror reflection lit (so the node term is not buried
    /// under clutter and leakage in the branches).
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
    fn downlink_port_videos_are_pinned() {
        // Every sample bit of both ports' noisy videos, for a dual-tone
        // plan (node 12° off) and the OOK fallback (normal incidence);
        // the same transfer from the same seed in a warm ctx renders the
        // same.
        for (facing, pinned) in [(12.0, 0x76a4_4916_902d_9c31), (0.0, 0x05d3_50ee_8fd2_11b9)] {
            let mut ctx = SessionCtx::new();
            for pass in 0..2 {
                let mut net = pinned_network(facing, true, 0x5EED_0070);
                let report = net
                    .downlink_in(&mut ctx, &[0xA5; 16], 1e6, truth)
                    .expect("no downlink");
                assert_eq!(
                    matches!(report.tones, ToneSelection::Dual { .. }),
                    facing != 0.0
                );
                let digest = video_digest(&ctx.link);
                assert_eq!(
                    digest, pinned,
                    "facing {facing}°, pass {pass}: port videos moved: {digest:#018x}"
                );
            }
        }
    }

    #[test]
    fn uplink_branches_are_pinned() {
        // Every sample bit of both RX branches' noiseless envelopes, for
        // a dual-tone and a single-tone plan, indoors and in a
        // clutter-free scene; a second transfer in the same ctx renders
        // the same.
        let cases = [
            (12.0, true, 0x1155_40eb_27ab_c8c1),
            (0.0, true, 0xbdbd_e074_3f0e_08c6),
            (12.0, false, 0xf64b_59f1_e80b_c2c5),
            (0.0, false, 0x1102_b288_0461_2089),
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
                let digest = branch_digest(&ctx.link);
                assert_eq!(
                    digest, pinned,
                    "facing {facing}°, indoor {indoor}, pass {pass}: branches moved: {digest:#018x}"
                );
            }
        }
    }

    #[test]
    fn uplink_symbol_edges_at_5_msym_are_pinned() {
        // Each symbol edge is found by the `t0 + k·ts <= i/fs` predicate,
        // not snapped onto the branch-sample grid `(GUARD_SYMBOLS + k)·8`,
        // so rounding puts a few one sample late. The DC block's stream
        // mean reads those samples; the decision window (samples 2–6 of
        // each symbol) does not. Snapping them would move the uplink pins.
        let symbol_rate = 5e6;
        let receiver = UplinkReceiver::milback(symbol_rate);
        let sps = receiver.samples_per_symbol;
        let t0 = GUARD_SYMBOLS as f64 / symbol_rate;
        let edges: Vec<usize> =
            milback_node::node::symbol_edges(t0, symbol_rate, receiver.branch_rate())
                .take(31)
                .collect();
        let late: Vec<usize> = (0..=30)
            .filter(|&k| edges[k] != (GUARD_SYMBOLS + k) * sps)
            .collect();
        assert_eq!(late, [15, 22, 30]);
        for k in late {
            assert_eq!(edges[k], (GUARD_SYMBOLS + k) * sps + 1, "symbol {k}");
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
