//! End-to-end communication over the simulated channel: OAQFM downlink
//! (paper §6.1–6.2) and backscatter uplink (§6.3), including carrier
//! selection from the sensed orientation.
//!
//! All per-transfer working buffers live in `LinkScratch`, pooled on
//! the [`Network`]: a warmed downlink or uplink performs zero heap
//! allocations on the node/AP signal path (`tests/zero_alloc.rs` pins
//! this). The only steady-state allocations left are the decoded payload
//! `Vec<u8>` handed to the caller and the AP uplink receiver's internal
//! demodulation buffers (see [`Network::uplink`]).

use crate::network::Network;
use milback_ap::tone_select::{select_tones, ToneSelection};
use milback_ap::uplink::{UplinkReceiver, UplinkScratch, UPLINK_PILOT};
use milback_ap::waveform;
use milback_dsp::par;
use milback_dsp::signal::Signal;
use milback_hw::power::NodeMode;
use milback_hw::switch::{SwitchSchedule, SwitchState};
use milback_node::demod::{
    demodulate_oaqfm_into, demodulate_ook_into, DemodScratch, EnvelopeSlicer,
};
use milback_node::modulator::modulate_uplink_into;
use milback_proto::bits::{bit_errors, bits_to_symbols_into, symbols_to_bits_into, OaqfmSymbol};
use milback_proto::frame::{decode_frame_with, encode_frame_into, FrameError, FrameScratch};
use milback_rf::channel::{GammaRun, NodeInterface, TxComponent};
use milback_rf::fsa::Port;
use milback_rf::{wave_fingerprint, with_channel_workspace};
use milback_telemetry as telemetry;
use rand::rngs::StdRng;

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

/// Key identifying a cached uplink query-tone pair: every parameter the
/// tone synthesis depends on, with `f64`s compared by bit pattern so the
/// cache never conflates nearly-equal plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueryKey {
    fs: u64,
    fc: u64,
    f_a: u64,
    f_b: u64,
    amp: u64,
    n: usize,
}

/// Cached uplink query tones for one carrier plan: the two rendered
/// [`TxComponent`]s plus their wave fingerprints. Repeated uplink
/// transfers on the same plan reuse these instead of cloning out of the
/// template cache and re-hashing every time.
#[derive(Debug, Clone)]
struct QueryCache {
    key: QueryKey,
    comp_a: TxComponent,
    comp_b: TxComponent,
    fp_a: u64,
    fp_b: u64,
}

/// Pooled working buffers for downlink/uplink transfers, owned by the
/// [`Network`]. Every transfer `std::mem::take`s the scratch out of the
/// network, reuses its capacity, and puts it back — so a warmed link
/// layer stops allocating.
#[derive(Debug, Clone)]
pub(crate) struct LinkScratch {
    /// Encoded frame symbols (payload + CRC).
    frame: Vec<OaqfmSymbol>,
    /// Pilot + frame, the on-air symbol stream.
    symbols: Vec<OaqfmSymbol>,
    /// Per-tone OOK bit streams (port A / port B); the OOK fallback
    /// reuses `bits_a` for its pilot+frame bit stream.
    bits_a: Vec<bool>,
    bits_b: Vec<bool>,
    /// Downlink tone waveforms (reclaimed from the `TxComponent`s after
    /// each transfer).
    wave_a: Signal,
    wave_b: Signal,
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
    query: Option<QueryCache>,
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
            wave_a: sig(),
            wave_b: sig(),
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
            query: None,
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
    /// Renders a pair of per-tone downlink components to both FSA ports,
    /// including the cross-tone leakage each port receives from the other
    /// tone's side lobes. Returns `(at_port_a, at_port_b)`.
    pub(crate) fn render_tones_to_ports(
        &self,
        comp_a: &TxComponent,
        comp_b: &TxComponent,
    ) -> (Signal, Signal) {
        let fs = comp_a.signal.fs;
        let fc = comp_a.signal.fc;
        let mut at_a = Signal::new(fs, fc, Vec::new());
        let mut at_b = Signal::new(fs, fc, Vec::new());
        let mut tmp = Signal::new(fs, fc, Vec::new());
        self.render_tones_to_ports_into(comp_a, comp_b, &mut at_a, &mut at_b, &mut tmp);
        (at_a, at_b)
    }

    /// Allocation-free [`Network::render_tones_to_ports`] into pooled
    /// output signals (`tmp` holds the cross-tone render between adds).
    ///
    /// The four port renders share one [`ChannelWorkspace`] borrow and
    /// each component's [`wave_fingerprint`] is computed once, so the
    /// hoisted port tables are reused across ports and transfers.
    ///
    /// [`ChannelWorkspace`]: milback_rf::ChannelWorkspace
    pub(crate) fn render_tones_to_ports_into(
        &self,
        comp_a: &TxComponent,
        comp_b: &TxComponent,
        at_a: &mut Signal,
        at_b: &mut Signal,
        tmp: &mut Signal,
    ) {
        let fp_a = wave_fingerprint(comp_a);
        let fp_b = wave_fingerprint(comp_b);
        let pose = &self.node.pose;
        let fsa = &self.node.fsa;
        with_channel_workspace(|ws| {
            self.scene
                .to_node_port_into(ws, comp_a, fp_a, pose, fsa, Port::A, at_a);
            self.scene
                .to_node_port_into(ws, comp_b, fp_b, pose, fsa, Port::A, tmp);
            at_a.add(tmp);
            self.scene
                .to_node_port_into(ws, comp_b, fp_b, pose, fsa, Port::B, at_b);
            self.scene
                .to_node_port_into(ws, comp_a, fp_a, pose, fsa, Port::B, tmp);
            at_b.add(tmp);
        });
    }

    /// Chooses OAQFM carriers for the node's current (AP-estimated)
    /// orientation. Uses the true orientation when `use_truth` — handy in
    /// microbenchmarks — otherwise runs AP-side orientation sensing first.
    pub fn plan_tones(&mut self, use_truth: bool) -> Option<ToneSelection> {
        let orientation = if use_truth {
            self.true_orientation()
        } else {
            self.sense_orientation_at_ap()?
        };
        select_tones(&self.node.fsa, orientation, MIN_TONE_SEPARATION)
    }

    /// Runs a full downlink transfer of `payload` at `symbol_rate`
    /// symbols/s. `use_truth` short-circuits orientation sensing (for
    /// microbenchmarks); the end-to-end path senses first.
    ///
    /// Returns `None` (and counts `core.link.downlink.rejected`) for a
    /// symbol rate that is NaN, not positive, or too fast for 2 samples
    /// per symbol at the 200 MHz minimum simulation rate, before any
    /// sensing; and `None` when no carrier plan exists.
    ///
    /// Steady-state allocations: only the decoded payload `Vec<u8>` in
    /// the report — all working buffers are pooled in the network's
    /// `LinkScratch`.
    pub fn downlink(
        &mut self,
        payload: &[u8],
        symbol_rate: f64,
        use_truth: bool,
    ) -> Option<DownlinkReport> {
        let _span = telemetry::span("core.link.downlink.ns");
        if !downlink_rate_ok(symbol_rate) {
            telemetry::counter_add("core.link.downlink.rejected", 1);
            return None;
        }
        let tones = self.plan_tones(use_truth)?;
        let mut scr = std::mem::take(&mut self.link_scratch);
        encode_frame_into(payload, &mut scr.codec, &mut scr.frame);
        let report = match tones {
            ToneSelection::Dual { f_a, f_b } => {
                self.downlink_dual(&mut scr, payload, f_a, f_b, symbol_rate, tones)
            }
            ToneSelection::Single { f } => {
                self.downlink_ook(&mut scr, payload, f, symbol_rate, tones)
            }
        };
        self.link_scratch = scr;
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
        waveform::ook_waveform_into(&tx, fc, f_a, &scr.bits_a, symbol_rate, &mut scr.wave_a);
        waveform::ook_waveform_into(&tx, fc, f_b, &scr.bits_b, symbol_rate, &mut scr.wave_b);
        scr.wave_a.scale(1.0 / 2f64.sqrt());
        scr.wave_b.scale(1.0 / 2f64.sqrt());
        // The components take the waveforms by value; the buffers come
        // back out of them at the end of the transfer.
        let placeholder = || Signal::new(1.0, 0.0, Vec::new());
        let comp_a = TxComponent::tone(std::mem::replace(&mut scr.wave_a, placeholder()), f_a);
        let comp_b = TxComponent::tone(std::mem::replace(&mut scr.wave_b, placeholder()), f_b);

        // Signal at each FSA port = wanted tone + cross-tone leakage.
        self.render_tones_to_ports_into(
            &comp_a,
            &comp_b,
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
        // Reclaim the waveform buffers from the components.
        scr.wave_a = comp_a.signal;
        scr.wave_b = comp_b.signal;
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
        scr: &mut LinkScratch,
        payload: &[u8],
        f: f64,
        symbol_rate: f64,
        tones: ToneSelection,
    ) -> DownlinkReport {
        // OOK fallback: 1 bit per symbol on a single carrier.
        symbols_to_bits_into(&scr.frame, &mut scr.sent_bits);
        scr.bits_a.clear();
        scr.bits_a.extend_from_slice(&[true, false, true, false]); // pilot
        scr.bits_a.extend_from_slice(&scr.sent_bits);

        let fs = 16.0 * symbol_rate;
        let mut tx = self.ap.tx;
        tx.fs = fs;
        waveform::ook_waveform_into(&tx, f, f, &scr.bits_a, symbol_rate, &mut scr.wave_a);
        let comp = TxComponent::tone(
            std::mem::replace(&mut scr.wave_a, Signal::new(1.0, 0.0, Vec::new())),
            f,
        );
        let fp = wave_fingerprint(&comp);
        let pose = &self.node.pose;
        let fsa = &self.node.fsa;
        with_channel_workspace(|ws| {
            self.scene
                .to_node_port_into(ws, &comp, fp, pose, fsa, Port::A, &mut scr.at_a);
            self.scene
                .to_node_port_into(ws, &comp, fp, pose, fsa, Port::B, &mut scr.at_b);
        });

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
        scr.wave_a = comp.signal;
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
    /// symbols/s.
    ///
    /// Returns `None` (and counts `core.link.uplink.rejected`) for a
    /// symbol rate that is not finite and positive, before any sensing;
    /// for a rate past the node switch's toggle limit, after tone
    /// planning; and when no carrier plan exists.
    ///
    /// Steady-state allocations: the decoded payload `Vec<u8>`; the
    /// node, channel and AP receiver buffers are pooled in
    /// `LinkScratch`. `tests/zero_alloc.rs` pins the total with an upper
    /// bound.
    pub fn uplink(
        &mut self,
        payload: &[u8],
        symbol_rate: f64,
        use_truth: bool,
    ) -> Option<UplinkReport> {
        let _span = telemetry::span("core.link.uplink.ns");
        if !uplink_rate_ok(symbol_rate) {
            telemetry::counter_add("core.link.uplink.rejected", 1);
            return None;
        }
        let tones = self.plan_tones(use_truth)?;
        let mut scr = std::mem::take(&mut self.link_scratch);
        let report = self.uplink_transfer(&mut scr, payload, symbol_rate, tones);
        self.link_scratch = scr;
        report
    }

    /// The AP's two RX-antenna captures (channel output with any
    /// scheduled impairments, before the receiver's LNA) of the most
    /// recent [`Network::uplink`] transfer; empty before the first. For
    /// checks that replay the receiver's stages on a real capture.
    pub fn uplink_captures(&self) -> [&Signal; 2] {
        [&self.link_scratch.rx0, &self.link_scratch.rx1]
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

        // Query waveform: guard before and after the modulated payload.
        let fs = self.downlink_fs(f_a, f_b);
        let fc = 0.5 * (f_a + f_b);
        let t0 = GUARD_SYMBOLS as f64 / symbol_rate;
        let total_t = (n_symbols + 2 * GUARD_SYMBOLS) as f64 / symbol_rate;
        let mut tx = self.ap.tx;
        tx.fs = fs;
        let n = (total_t * fs).round() as usize;
        let amp = tx.amplitude() / 2f64.sqrt();
        // Each query tone is rendered as its own channel component so the
        // node's FSA gain is evaluated at that tone's frequency (the whole
        // point of OAQFM: each tone talks to one port's beam). Query tones
        // only depend on the carrier plan, so repeated transfers pull them
        // from the per-network cache (itself fed once from the template
        // cache) instead of re-synthesizing and re-fingerprinting.
        let key = QueryKey {
            fs: fs.to_bits(),
            fc: fc.to_bits(),
            f_a: f_a.to_bits(),
            f_b: f_b.to_bits(),
            amp: amp.to_bits(),
            n,
        };
        if scr.query.as_ref().is_none_or(|q| q.key != key) {
            let tone_a = milback_dsp::template::tone(fs, fc, f_a - fc, amp, n)
                .as_ref()
                .clone();
            let tone_b = milback_dsp::template::tone(fs, fc, f_b - fc, amp, n)
                .as_ref()
                .clone();
            let comp_a = TxComponent::tone(tone_a, f_a);
            let comp_b = TxComponent::tone(tone_b, f_b);
            let fp_a = wave_fingerprint(&comp_a);
            let fp_b = wave_fingerprint(&comp_b);
            scr.query = Some(QueryCache {
                key,
                comp_a,
                comp_b,
                fp_a,
                fp_b,
            });
        }
        let q = scr.query.as_ref().expect("query cache just filled");

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
        // Four monostatic renders (two tones × two RX antennas) share one
        // workspace borrow and one Γ-run fill; the per-tone ray tables and
        // static responses are built once and replayed for the other
        // antenna/transfer.
        {
            self.node
                .gamma_runs_into(&scr.sched_a, &scr.sched_b, fs, n, &mut scr.gamma_runs);
            let node_if = NodeInterface {
                pose: self.node.pose,
                fsa: &self.node.fsa,
                gamma: &scr.gamma_runs,
            };
            let nodes = std::slice::from_ref(&node_if);
            with_channel_workspace(|ws| {
                self.scene
                    .monostatic_rx_multi_into(ws, &q.comp_a, q.fp_a, nodes, 0, &mut scr.rx0);
                self.scene.monostatic_rx_multi_into(
                    ws,
                    &q.comp_b,
                    q.fp_b,
                    nodes,
                    0,
                    &mut scr.port_tmp,
                );
                scr.rx0.add(&scr.port_tmp);
                self.scene
                    .monostatic_rx_multi_into(ws, &q.comp_a, q.fp_a, nodes, 1, &mut scr.rx1);
                self.scene.monostatic_rx_multi_into(
                    ws,
                    &q.comp_b,
                    q.fp_b,
                    nodes,
                    1,
                    &mut scr.port_tmp,
                );
                scr.rx1.add(&scr.port_tmp);
            });
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
    /// impairments (a no-op when the fault plan is empty). Each port
    /// draws from its own RNG, forked port A first; when [`par::claim`]
    /// finds an idle core the two ports run at once, bitwise the same
    /// as one after the other (DESIGN.md §17.4).
    fn node_videos_into(
        &mut self,
        at_a: &Signal,
        at_b: &Signal,
        out_a: &mut Vec<f64>,
        out_b: &mut Vec<f64>,
    ) {
        let mut rng_a = self.fork_rng();
        let mut rng_b = self.fork_rng();
        let (node, faults, clock_s) = (&self.node, &self.faults, self.clock_s);
        let port = |at: &Signal, rng: &mut StdRng, out: &mut Vec<f64>| {
            node.receive_port_video_into(at, rng, out);
            faults.apply_to_video(clock_s, at.fs, out);
        };
        match par::claim() {
            Some(claim) => {
                claim.join(
                    || port(at_a, &mut rng_a, out_a),
                    || port(at_b, &mut rng_b, out_b),
                );
            }
            None => {
                port(at_a, &mut rng_a, out_a);
                port(at_b, &mut rng_b, out_b);
            }
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
    fn port_videos_match_ports_in_turn() {
        // The serial reference: fork port A's RNG, detect A, then fork
        // port B's and detect B. Long enough to split the noise fills.
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
        let mut reference = Network::new(pose, Fidelity::Fast, 52);
        let mut net = Network::new(pose, Fidelity::Fast, 52);
        let at_a = Signal::tone(200e6, 28e9, 3e6, 1e-3, 20_000);
        let at_b = Signal::tone(200e6, 28e9, -5e6, 2e-3, 20_000);
        let mut rng = reference.fork_rng();
        let want_a = reference.node.receive_port_video(&at_a, &mut rng);
        let mut rng = reference.fork_rng();
        let want_b = reference.node.receive_port_video(&at_b, &mut rng);

        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        net.node_videos_into(&at_a, &at_b, &mut got_a, &mut got_b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got_a), bits(&want_a), "port A video");
        assert_eq!(bits(&got_b), bits(&want_b), "port B video");
        assert_eq!(net.fork_rng(), reference.fork_rng(), "network RNG");
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
