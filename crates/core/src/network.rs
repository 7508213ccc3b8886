//! The end-to-end MilBack network: one AP, one channel scene, one node.
//!
//! `Network` owns the scene, the node and the AP parameters, and runs the
//! paper's procedures signal-by-signal: Field-2 localization (§5.1),
//! orientation sensing at the AP (§5.2a) and at the node (§5.2b). The
//! communication procedures live in [`crate::link`].

use crate::config::{ApParams, Fidelity};
use crate::session::{with_run_ctx, SessionCtx};
use milback_ap::dechirp::RangeProcessor;
use milback_ap::orientation::ApOrientationEstimator;
use milback_ap::ranging::{LocalizationResult, Localizer};
use milback_ap::workspace::DspWorkspace;
use milback_dsp::noise::{add_awgn, thermal_noise_power};
use milback_dsp::num::{Cpx, ZERO};
use milback_dsp::signal::Signal;
use milback_hw::switch::{SwitchSchedule, SwitchState};
use milback_node::node::{fill_gamma_runs, BackscatterNode};
use milback_node::orientation::NodeOrientationEstimator;
use milback_rf::channel::{
    FreqProfile, GammaRun, NodeInterface, Scene, TxComponent, SELF_INTERFERENCE_DELAY_S,
};
use milback_rf::faults::FaultPlan;
use milback_rf::fsa::{DualPortFsa, Port};
use milback_rf::geometry::{Pose, SPEED_OF_LIGHT};
use milback_rf::workspace::{fsa_fingerprint, wave_fingerprint, ChannelWorkspace};
use milback_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A neighboring node whose leftover reflection clutters this network's
/// Field-2 captures (inter-node interference, DESIGN.md §16). Plain
/// `Copy` data so the dense-network fabric can refill a pooled list per
/// slot without allocating: the pose is in *this* network's AP-local
/// frame, and `gamma` is the neighbor's constant parked reflection
/// coefficient pair (see `BackscatterNode::parked_gamma`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferer {
    /// Neighbor pose in this network's AP-local frame.
    pub pose: Pose,
    /// The neighbor's FSA (its frequency-selective reflection shapes the
    /// clutter spectrum).
    pub fsa: DualPortFsa,
    /// Constant `[Γ_A, Γ_B]` of the parked neighbor.
    pub gamma: [Cpx; 2],
}

/// Reusable buffers and cached identity for a Field-2 render
/// (DESIGN.md §13). Holds the TX reference, the per-chirp capture
/// pairs, the node's Γ runs, the parked neighbours' summed returns, and
/// the chirp's channel component with its waveform fingerprint so a
/// warmed burst re-renders with **zero** heap allocations
/// (`tests/zero_alloc.rs`).
#[derive(Debug)]
pub struct Field2Burst {
    /// TX reference chirp of the last render.
    pub tx: Signal,
    /// Per-chirp capture pairs (`[antenna 0, antenna 1]`).
    pub captures: Vec<[Signal; 2]>,
    /// The channel component (TX chirp + frequency profile) and its
    /// `wave_fingerprint`, synthesized when the chirp config changes:
    /// the one waveform a packet repeats, and the key of its cached
    /// channel tables.
    comp: Option<(TxComponent, u64)>,
    /// The node's Γ runs for the chirp being rendered, refilled per
    /// chirp and shared by both antennas.
    gamma_runs: Vec<GammaRun>,
    /// Per antenna, the sum of every parked neighbour's return: their Γ
    /// is constant, so it is the same in every chirp and is rendered
    /// once per burst.
    parked: [Signal; 2],
}

/// Placeholder for not-yet-rendered capture slots (`Signal` requires a
/// positive sample rate, so it has no `Default`). The render overwrites
/// `fs`/`fc` and resizes the buffer.
fn empty_signal() -> Signal {
    Signal::zeros(1.0, 0.0, 0)
}

impl Default for Field2Burst {
    fn default() -> Self {
        Self {
            tx: empty_signal(),
            captures: Vec::new(),
            comp: None,
            gamma_runs: Vec::new(),
            parked: [empty_signal(), empty_signal()],
        }
    }
}

/// Everything the node's noiseless Field-1 port videos depend on, `f64`s
/// by bit pattern (DESIGN.md §13.6): the scene's static fingerprint
/// (which folds the steer), the node's pose and FSA, the chirp with its
/// TX amplitude, and the receive chain ahead of the detector noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Field1Key {
    scene: u64,
    pose: [u64; 3],
    fsa: u64,
    /// `f_start`, `f_stop`, `duration`, `fs`, `amplitude`.
    chirp: [u64; 5],
    /// Switch through-gain, `impl_loss_db`, detector slope and video
    /// bandwidth.
    rx_chain: [u64; 4],
}

/// The node's noiseless detector videos of the Field-1 chirp at both FSA
/// ports, rendered once per [`Field1Key`] and reused by every Field-1
/// reception until the key changes (DESIGN.md §13.6). Only the detector
/// noise at the ADC's read instants differs between receptions, so each
/// one copies a video into `noisy` and runs the node's sampling half on
/// the copy: bitwise the same as rendering the chirp afresh.
#[derive(Clone, Default)]
pub(crate) struct Field1Videos {
    key: Option<Field1Key>,
    /// Port A and port B video at `fs`.
    videos: [Vec<f64>; 2],
    fs: f64,
    /// Pooled copy the detector noise is added to.
    noisy: Vec<f64>,
}

impl std::fmt::Debug for Field1Videos {
    /// Summarizes the buffers instead of dumping 2 × 144k samples.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Field1Videos")
            .field("key", &self.key)
            .field("len", &self.videos[0].len())
            .field("fs", &self.fs)
            .finish_non_exhaustive()
    }
}

impl Field1Videos {
    /// One reception of the cached chirp at `port`: detector noise at the
    /// ADC read indices of a copy of the port's video, then the ADC.
    pub(crate) fn receive(
        &mut self,
        node: &BackscatterNode,
        port: Port,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        self.noisy.clear();
        self.noisy.extend_from_slice(&self.videos[port as usize]);
        node.sample_video(&mut self.noisy, self.fs, rng)
    }
}

/// A complete single-node MilBack deployment: deployment state only.
/// Reusable scratch (DSP and link buffers, the channel caches) lives in
/// a [`SessionCtx`].
#[derive(Debug, Clone)]
pub struct Network {
    /// The propagation scene (clutter, antennas, self-interference).
    pub scene: Scene,
    /// The backscatter node.
    pub node: BackscatterNode,
    /// AP transmit/capture parameters.
    pub ap: ApParams,
    /// Waveform fidelity preset.
    pub fidelity: Fidelity,
    /// Scheduled channel impairments (empty by default; when empty every
    /// render path is bitwise identical to the fault-free build).
    pub faults: FaultPlan,
    /// Session clock, seconds. Render paths evaluate fault windows at
    /// `clock_s + local offset`; the [`crate::session`] supervisor
    /// advances it across fields and recovery backoff.
    pub clock_s: f64,
    /// Parked neighbors whose residual reflections are layered into every
    /// Field-2 capture as clutter (empty by default; when empty the
    /// render is bitwise identical to the interference-free build — no
    /// extra RNG draws, no extra arithmetic). The dense-network fabric
    /// fills this per scheduled slot.
    pub interferers: Vec<Interferer>,
    rng: StdRng,
    /// The node's noiseless Field-1 port videos, filled by
    /// [`Self::warm_field1_videos`].
    pub(crate) field1: Field1Videos,
    /// The AP orientation of the last successful Field-2 sense here:
    /// what a shed session plans its carriers from.
    pub(crate) sensed_orientation: Option<f64>,
}

impl Network {
    /// Builds a network with the node at `pose` in the paper's indoor
    /// scene, with the AP's beams steered at the node (the paper steers
    /// mechanically).
    pub fn new(pose: Pose, fidelity: Fidelity, seed: u64) -> Self {
        Self::in_scene(Scene::milback_indoor(), pose, fidelity, seed)
    }

    /// Builds a clutter-free network (for microbenchmarks).
    pub fn free_space(pose: Pose, fidelity: Fidelity, seed: u64) -> Self {
        Self::in_scene(Scene::free_space(), pose, fidelity, seed)
    }

    fn in_scene(mut scene: Scene, pose: Pose, fidelity: Fidelity, seed: u64) -> Self {
        scene.steer_towards(&pose.position);
        Self {
            scene,
            node: BackscatterNode::milback(pose),
            ap: ApParams::milback(),
            fidelity,
            faults: FaultPlan::none(),
            clock_s: 0.0,
            interferers: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            field1: Field1Videos::default(),
            sensed_orientation: None,
        }
    }

    /// Moves the node (and re-steers the AP).
    pub fn set_node_pose(&mut self, pose: Pose) {
        self.node.pose = pose;
        self.scene.steer_towards(&pose.position);
    }

    /// The node's true incidence angle (ground-truth orientation).
    pub fn true_orientation(&self) -> f64 {
        self.node.pose.incidence_from(&self.scene.tx_pos)
    }

    /// The node's true range from the AP TX antenna.
    pub fn true_range(&self) -> f64 {
        self.scene.tx_pos.distance_to(&self.node.pose.position)
    }

    /// The node's true azimuth as seen from the AP.
    pub fn true_angle(&self) -> f64 {
        self.scene.tx_pos.bearing_to(&self.node.pose.position)
    }

    /// Access to the seeded RNG (experiments thread all randomness through
    /// here so runs are reproducible).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Re-seeds the RNG in place (allocation-free: `StdRng` is a plain
    /// struct). The serving engine keeps one pooled `Network` per node
    /// lane and reseeds it with `derive_seed(master, ticket)` at the
    /// start of every session, so outcomes depend only on the submission
    /// index — never on which worker ran the lane or what ran before.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    // ------------------------------------------------------------------
    // Field 2: localization + AP-side orientation
    // ------------------------------------------------------------------

    /// Renders the AP's captures of `n_chirps` Field-2 chirps (the paper
    /// uses five) at both RX antennas, with the node running its
    /// localization modulation. Allocating wrapper over
    /// [`Self::field2_captures_into`].
    ///
    /// Returns `(tx_reference, captures)` where `captures[i]` holds the
    /// two antennas' captures of chirp `i`, already including capture
    /// noise and trigger jitter; `None` on entry, before any RNG draw,
    /// when the node or a parked interferer cannot be rendered, as
    /// [`Self::localize`] does.
    pub fn field2_captures(&mut self, n_chirps: usize) -> Option<(Signal, Vec<[Signal; 2]>)> {
        let mut burst = Field2Burst::default();
        let rendered =
            with_run_ctx(|ctx| self.field2_captures_into(&mut ctx.chan, n_chirps, &mut burst));
        rendered.then_some((burst.tx, burst.captures))
    }

    /// Renders a Field-2 burst into reusable [`Field2Burst`] buffers
    /// through the cached channel-synthesis path (DESIGN.md §13).
    /// Bitwise identical to [`Self::field2_captures`] — same RNG draw
    /// order (per chirp, one word for the trigger jitter, then one AWGN
    /// stream key per antenna) and the same sample arithmetic; only the
    /// buffer management differs.
    /// After warm-up (same scene/pose/fidelity in `cw` and `burst`), a
    /// burst performs zero steady-state heap allocations.
    ///
    /// Returns `false`, having rendered nothing and drawn nothing from
    /// the RNG, when the node or a parked interferer sits where the scene
    /// cannot render it (an AP antenna or a NaN coordinate, see
    /// [`Scene::can_render_at`]; counted as
    /// `core.network.render.rejected`); `true` once `burst` holds the
    /// captures.
    ///
    /// # Panics
    ///
    /// If `n_chirps < 2`.
    pub fn field2_captures_into(
        &mut self,
        cw: &mut ChannelWorkspace,
        n_chirps: usize,
        burst: &mut Field2Burst,
    ) -> bool {
        assert!(n_chirps >= 2, "need at least two chirps");
        if self.render_rejected() {
            return false;
        }
        telemetry::counter_add("core.network.field2.render", 1);
        let mut chirp_cfg = self.fidelity.sawtooth();
        chirp_cfg.amplitude = self.ap.tx.amplitude();
        // The TX chirp is loop-invariant across chirps AND trials, and
        // only the node's Γ runs vary with the chirp index: one channel
        // component serves every chirp, synthesized and fingerprinted
        // only when the chirp config changes.
        let profile = FreqProfile::Sawtooth(chirp_cfg);
        if burst
            .comp
            .as_ref()
            .is_some_and(|(c, _)| c.profile != profile)
        {
            burst.comp = None;
        }
        let (comp, wave_fp) = burst.comp.get_or_insert_with(|| {
            let comp = TxComponent {
                signal: chirp_cfg.sawtooth(),
                profile,
            };
            let wave_fp = wave_fingerprint(&comp);
            (comp, wave_fp)
        });
        let (comp, wave_fp) = (&*comp, *wave_fp);
        burst.tx.copy_from(&comp.signal);
        let (fs, n) = (comp.signal.fs, comp.signal.len());

        let mod_freq = self.fidelity.localization_mod_freq();
        let schedule_a = SwitchSchedule::SquareWave {
            freq_hz: mod_freq,
            first: SwitchState::Reflective,
        };
        let schedule_b = SwitchSchedule::Constant(SwitchState::Absorptive);

        let noise_p = thermal_noise_power(burst.tx.fs, self.ap.capture_nf_db);
        burst.captures.truncate(n_chirps);
        while burst.captures.len() < n_chirps {
            burst.captures.push([empty_signal(), empty_signal()]);
        }
        // Backscatter passes the node's implementation loss twice. This
        // expression can differ from the node's own `impl_loss_amp()²` in
        // the last bit, and every Field-2 digest depends on it.
        let two_way_loss = 10f64.powf(-2.0 * self.node.impl_loss_db / 20.0);
        // Inter-node interference (DESIGN.md §16). A parked neighbor's Γ
        // is constant, so its return is the same in every chirp: each
        // antenna's neighbor sum is rendered once per burst, one replay
        // per neighbor, and added to every capture below. The counts
        // depend only on the slot's interferer list, never on thread
        // schedule, so these counters stay in the deterministic
        // telemetry view. An empty list skips everything, keeping the
        // single-node render bitwise unchanged.
        let has_neighbors = !self.interferers.is_empty();
        if has_neighbors {
            telemetry::counter_add("net.interference.bursts", 1);
            telemetry::counter_add("net.interference.neighbors", self.interferers.len() as u64);
            telemetry::counter_add("net.interference.rays", (2 * self.interferers.len()) as u64);
            for (ant, sum) in burst.parked.iter_mut().enumerate() {
                sum.fs = fs;
                sum.fc = comp.signal.fc;
                sum.samples.clear();
                sum.samples.resize(n, ZERO);
                for itf in &self.interferers {
                    let runs = [GammaRun {
                        end: n,
                        gamma: itf.gamma,
                    }];
                    let node_if = NodeInterface {
                        pose: itf.pose,
                        fsa: &itf.fsa,
                        gamma: &runs,
                    };
                    self.scene
                        .accumulate_backscatter_into(cw, comp, wave_fp, &node_if, ant, sum);
                }
            }
        }
        let switch = self.node.switch;
        let gamma = |state| switch.gamma(state) * two_way_loss;
        for (i, pair) in burst.captures.iter_mut().enumerate() {
            // One Γ-run fill per chirp, shared by both antennas.
            let t_off = i as f64 * chirp_cfg.duration;
            let runs = &mut burst.gamma_runs;
            fill_gamma_runs(&schedule_a, &schedule_b, gamma, t_off, fs, n, runs);
            let node_if = NodeInterface {
                pose: self.node.pose,
                fsa: &self.node.fsa,
                gamma: runs,
            };
            // Common trigger jitter for both antennas of this chirp. The
            // TX and RX share the synthesizer, so jitter shifts only the
            // sampling window (an envelope delay) — it does NOT rotate the
            // carrier, which is what keeps background subtraction coherent
            // chirp-to-chirp in the real system too.
            let jitter = milback_dsp::noise::draw_normal(&mut self.rng).abs() * self.ap.jitter_rms;
            for (ant, rx) in pair.iter_mut().enumerate() {
                self.scene.monostatic_rx_multi_into(
                    cw,
                    comp,
                    wave_fp,
                    std::slice::from_ref(&node_if),
                    ant,
                    rx,
                );
                // The parked neighbors' summed reflections layer in
                // next — after the target's return and before
                // jitter/noise, so the clutter rides the same capture
                // window. No RNG draws: an empty list is bitwise free.
                if has_neighbors {
                    for (s, p) in rx.samples.iter_mut().zip(&burst.parked[ant].samples) {
                        *s += *p;
                    }
                }
                if jitter > 0.0 {
                    rx.delay_in_place(jitter);
                }
                add_awgn(rx, noise_p, &mut self.rng);
                // Scheduled impairments go in last — after the cached
                // channel response and the receiver noise — so the
                // content-fingerprint caches stay valid and an empty
                // plan leaves the capture bitwise untouched.
                self.faults.apply_to_rx(self.clock_s + t_off, i, rx);
            }
        }
        true
    }

    /// Whether the node cannot be rendered: the node or a parked
    /// interferer sits at an AP antenna or has a NaN coordinate (see
    /// [`Scene::can_render_at`]), where the path loss is undefined.
    /// Counts `core.network.render.rejected` when so. Draws nothing from
    /// the RNG. Every public path that renders the node checks it on
    /// entry.
    pub(crate) fn render_rejected(&self) -> bool {
        let renderable = self.scene.can_render_at(&self.node.pose.position)
            && self
                .interferers
                .iter()
                .all(|itf| self.scene.can_render_at(&itf.pose.position));
        if !renderable {
            telemetry::counter_add("core.network.render.rejected", 1);
        }
        !renderable
    }

    /// Renders one Field-2 burst of the packet's chirp count into `ctx`
    /// and localizes from it: the tail [`Self::localize`] and
    /// [`Self::sense_orientation_at_ap`] share. With `orient`, the AP
    /// orientation is gated from the same diffs. `None` without a fix,
    /// and on entry, before any RNG draw, when the node or a parked
    /// interferer cannot be rendered.
    fn field2_pass(
        &mut self,
        ctx: &mut SessionCtx,
        orient: bool,
    ) -> Option<(LocalizationResult, Option<f64>)> {
        let n_chirps = self.fidelity.packet().field2_count;
        if !self.field2_captures_into(&mut ctx.chan, n_chirps, &mut ctx.burst) {
            return None;
        }
        let (tx, captures) = (&ctx.burst.tx, &ctx.burst.captures);
        let fix = self.localizer().process_with(&mut ctx.dsp, tx, captures)?;
        let orientation = orient.then(|| self.ap_orientation_in(&ctx.dsp, tx));
        Some((fix, orientation.flatten()))
    }

    /// Runs the full §5.1 localization: Field-2 capture → dechirp →
    /// background subtraction → range + angle.
    ///
    /// Returns `None` when there is no fix, and on entry, before any RNG
    /// draw, when the node or a parked interferer cannot be rendered
    /// (counted as `core.network.render.rejected`). Fixes are pinned to
    /// literals by `tests/workspace_equivalence.rs`.
    pub fn localize(&mut self) -> Option<LocalizationResult> {
        with_run_ctx(|ctx| self.field2_pass(ctx, false)).map(|(fix, _)| fix)
    }

    /// The localizer matching this network's fidelity, with the AP's
    /// TX→RX leakage as its timing reference when the scene has one.
    pub fn localizer(&self) -> Localizer {
        let mut cfg = self.fidelity.sawtooth();
        cfg.amplitude = self.ap.tx.amplitude();
        let mut localizer = Localizer::new(RangeProcessor::new(cfg, 2));
        localizer.leakage_range = self
            .scene
            .self_interference_db
            .map(|_| SELF_INTERFERENCE_DELAY_S * SPEED_OF_LIGHT / 2.0);
        localizer
    }

    /// Runs §5.2(a): AP-side orientation sensing — the paper's FFT →
    /// background subtraction → gate → IFFT flow — on a fresh Field-2
    /// burst. Returns the estimated incidence angle (radians).
    ///
    /// Returns `None` on entry, before any RNG draw, when the node or a
    /// parked interferer cannot be rendered, as [`Self::localize`] does.
    pub fn sense_orientation_at_ap(&mut self) -> Option<f64> {
        with_run_ctx(|ctx| self.sense_orientation_at_ap_in(ctx))
    }

    /// [`Self::sense_orientation_at_ap`] in caller-owned scratch.
    pub(crate) fn sense_orientation_at_ap_in(&mut self, ctx: &mut SessionCtx) -> Option<f64> {
        self.field2_pass(ctx, true)?.1
    }

    /// §5.2(a) on the burst last processed in `ws`: gates antenna 0's
    /// difference at the node bin and pair `ws.detection` holds, the
    /// ones localization read. Keeps a successful estimate as
    /// the network's sensed orientation. `None` without a detection.
    pub(crate) fn ap_orientation_in(&mut self, ws: &DspWorkspace, tx: &Signal) -> Option<f64> {
        let hit = ws.detection?;
        let localizer = self.localizer();
        let orientation = ApOrientationEstimator::new(self.fidelity.sawtooth()).estimate_gated(
            &ws.antennas[0].diffs[hit.pair],
            hit.bin,
            localizer.gate_half_width(),
            tx.fs,
            tx.len(),
            localizer.proc.fft_len,
            &self.node.fsa,
            Port::A,
        )?;
        self.sensed_orientation = Some(orientation);
        Some(orientation)
    }

    // ------------------------------------------------------------------
    // Field 1: node-side orientation
    // ------------------------------------------------------------------

    /// Makes `self.field1` hold the node's noiseless Field-1 port videos
    /// for the current scene, pose, node and chirp, rendering them only
    /// when their [`Field1Key`] changed (counted as
    /// `node.field1.video.render`). A render takes the chirp from `ctx`
    /// (synthesized there once per chirp config) through the one-shot
    /// `Scene::to_node_port_into` in `ctx.chan` and the node's video
    /// half at both ports. Draws nothing from the RNG.
    pub(crate) fn warm_field1_videos(&mut self, ctx: &mut SessionCtx) {
        let mut cfg = self.fidelity.triangular();
        cfg.amplitude = self.ap.tx.amplitude();
        let node = &self.node;
        let pos = node.pose.position;
        let key = Field1Key {
            scene: self.scene.static_fingerprint(),
            pose: [pos.x, pos.y, node.pose.facing].map(f64::to_bits),
            fsa: fsa_fingerprint(&node.fsa),
            chirp: [cfg.f_start, cfg.f_stop, cfg.duration, cfg.fs, cfg.amplitude].map(f64::to_bits),
            rx_chain: [
                node.switch.through_gain(),
                node.impl_loss_db,
                node.detector.slope,
                node.detector.video_bandwidth,
            ]
            .map(f64::to_bits),
        };
        if self.field1.key != Some(key) {
            telemetry::counter_add("node.field1.video.render", 1);
            let profile = FreqProfile::Triangular(cfg);
            let chirp = &mut ctx.field1_chirp;
            if chirp.as_ref().is_some_and(|c| c.profile != profile) {
                *chirp = None;
            }
            let comp = chirp.get_or_insert_with(|| TxComponent {
                signal: cfg.triangular(),
                profile,
            });
            let mut at_port = empty_signal();
            let (scene, field1) = (&self.scene, &mut self.field1);
            for (port, video) in Port::BOTH.into_iter().zip(&mut field1.videos) {
                let (pose, fsa) = (&node.pose, &node.fsa);
                scene.to_node_port_into(&mut ctx.chan, comp, pose, fsa, port, &mut at_port);
                node.port_video_into(&at_port, video);
            }
            field1.fs = comp.signal.fs;
            field1.key = Some(key);
        }
    }

    /// Renders the node's ADC captures of one Field-1 triangular chirp at
    /// both ports (both ports absorptive/listening), from the node's
    /// cached noiseless port videos (DESIGN.md §13.6).
    ///
    /// Returns `None` on entry, before any RNG draw, when the node or a
    /// parked interferer cannot be rendered, as [`Self::localize`] does.
    pub fn field1_node_captures(&mut self) -> Option<(Vec<f64>, Vec<f64>)> {
        with_run_ctx(|ctx| self.field1_node_captures_in(ctx))
    }

    /// [`Self::field1_node_captures`] in caller-owned scratch.
    fn field1_node_captures_in(&mut self, ctx: &mut SessionCtx) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.render_rejected() {
            return None;
        }
        self.warm_field1_videos(ctx);
        let (field1, node, rng) = (&mut self.field1, &self.node, &mut self.rng);
        let mut cap_a = field1.receive(node, Port::A, rng);
        let mut cap_b = field1.receive(node, Port::B, rng);
        // Node-side impairments act on the detector output (blockage,
        // saturation, droop); no-op when the plan is empty.
        let adc_fs = self.node.adc.sample_rate;
        self.faults.apply_to_video(self.clock_s, adc_fs, &mut cap_a);
        self.faults.apply_to_video(self.clock_s, adc_fs, &mut cap_b);
        Some((cap_a, cap_b))
    }

    /// Runs §5.2(b): the node estimates its own orientation from the
    /// triangular chirp's peak separation.
    ///
    /// Returns `None` on entry, before any RNG draw, when the node or a
    /// parked interferer cannot be rendered, as [`Self::localize`] does.
    pub fn sense_orientation_at_node(&mut self) -> Option<f64> {
        with_run_ctx(|ctx| self.sense_orientation_at_node_in(ctx))
    }

    /// [`Self::sense_orientation_at_node`] in caller-owned scratch.
    pub(crate) fn sense_orientation_at_node_in(&mut self, ctx: &mut SessionCtx) -> Option<f64> {
        let (cap_a, cap_b) = self.field1_node_captures_in(ctx)?;
        let mut est = NodeOrientationEstimator::milback();
        est.chirp = self.fidelity.triangular();
        est.sample_rate = self.node.adc.sample_rate;
        est.estimate(&self.node.fsa, &cap_a, &cap_b)
    }

    /// Convenience for experiments: a fresh sub-RNG seeded from the main
    /// one.
    pub fn fork_rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_rf::geometry::{deg_to_rad, rad_to_deg};

    #[test]
    fn localizes_node_in_clutter() {
        let pose = Pose::facing_ap(3.0, 0.0, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, 1);
        let fix = net.localize().expect("localization failed");
        assert!(
            (fix.range - 3.0).abs() < 0.15,
            "range {} vs true 3.0",
            fix.range
        );
        let angle = fix.angle.expect("no angle");
        assert!(
            rad_to_deg(angle).abs() < 3.0,
            "angle {}°",
            rad_to_deg(angle)
        );
    }

    #[test]
    fn localizes_off_boresight_node() {
        let phi = deg_to_rad(10.0);
        let pose = Pose::facing_ap(2.0, phi, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, 2);
        let fix = net.localize().expect("localization failed");
        assert!((fix.range - 2.0).abs() < 0.15, "range {}", fix.range);
        let angle = fix.angle.expect("no angle");
        assert!(
            (rad_to_deg(angle) - 10.0).abs() < 3.0,
            "angle {}° vs true 10°",
            rad_to_deg(angle)
        );
    }

    #[test]
    fn ap_senses_node_orientation() {
        for deg in [-15.0, 10.0] {
            let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(deg));
            let mut net = Network::new(pose, Fidelity::Fast, 3);
            let est = net.sense_orientation_at_ap().expect("no estimate");
            // True incidence is −ψ for a node rotated by ψ.
            let true_inc = net.true_orientation();
            let err = rad_to_deg(est - true_inc).abs();
            assert!(err < 4.0, "ψ={deg}°: err {err}°");
        }
    }

    #[test]
    fn node_senses_own_orientation() {
        for deg in [-15.0, 0.0, 12.0] {
            let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(deg));
            let mut net = Network::new(pose, Fidelity::Fast, 4);
            let est = net.sense_orientation_at_node().expect("no estimate");
            let true_inc = net.true_orientation();
            let err = rad_to_deg(est - true_inc).abs();
            assert!(err < 4.0, "ψ={deg}°: err {err}°");
        }
    }

    #[test]
    fn ground_truth_helpers() {
        let pose = Pose::facing_ap(4.0, deg_to_rad(20.0), deg_to_rad(5.0));
        let net = Network::new(pose, Fidelity::Fast, 5);
        assert!((net.true_range() - 4.0).abs() < 1e-9);
        assert!((rad_to_deg(net.true_angle()) - 20.0).abs() < 1e-9);
        assert!((rad_to_deg(net.true_orientation()) + 5.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let pose = Pose::facing_ap(2.5, 0.0, 0.0);
        let a = Network::new(pose, Fidelity::Fast, 7).localize();
        let b = Network::new(pose, Fidelity::Fast, 7).localize();
        assert_eq!(a, b);
    }
}
