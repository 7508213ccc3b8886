//! The end-to-end MilBack network: one AP, one channel scene, one node.
//!
//! `Network` owns the scene, the node and the AP parameters, and runs the
//! paper's procedures signal-by-signal: Field-2 localization (§5.1),
//! orientation sensing at the AP (§5.2a) and at the node (§5.2b). The
//! communication procedures live in [`crate::link`].

use crate::config::{ApParams, Fidelity};
use crate::link::LinkScratch;
use milback_ap::dechirp::RangeProcessor;
use milback_ap::orientation::ApOrientationEstimator;
use milback_ap::ranging::{LocalizationResult, Localizer};
use milback_dsp::chirp::ChirpConfig;
use milback_dsp::noise::{add_awgn, thermal_noise_power};
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use milback_hw::switch::{SwitchSchedule, SwitchState};
use milback_node::node::{fill_gamma_runs, BackscatterNode};
use milback_node::orientation::NodeOrientationEstimator;
use milback_rf::channel::{FreqProfile, GammaRun, NodeInterface, Scene, TxComponent};
use milback_rf::faults::FaultPlan;
use milback_rf::fsa::{DualPortFsa, Port};
use milback_rf::geometry::Pose;
use milback_rf::workspace::{wave_fingerprint, with_channel_workspace, ChannelWorkspace};
use milback_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

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
/// pairs, the node's Γ runs, and the channel component with its
/// waveform fingerprint so a warmed burst re-renders with **zero** heap
/// allocations
/// (`tests/zero_alloc.rs`).
#[derive(Debug)]
pub struct Field2Burst {
    /// TX reference chirp of the last render.
    pub tx: Signal,
    /// Per-chirp capture pairs (`[antenna 0, antenna 1]`).
    pub captures: Vec<[Signal; 2]>,
    /// The channel component (TX chirp + frequency profile), kept so
    /// repeat bursts skip the template clone.
    comp: Option<TxComponent>,
    /// `wave_fingerprint` of `comp`, cached alongside it.
    wave_fp: u64,
    /// The chirp config `comp`/`wave_fp` were built for.
    comp_cfg: Option<ChirpConfig>,
    /// The node's Γ runs for the chirp being rendered, refilled per
    /// chirp and shared by both antennas.
    gamma_runs: Vec<GammaRun>,
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
            wave_fp: 0,
            comp_cfg: None,
            gamma_runs: Vec::new(),
        }
    }
}

thread_local! {
    static BURST: RefCell<Field2Burst> = RefCell::new(Field2Burst::default());
}

/// Runs `f` with this thread's shared [`Field2Burst`] buffers (the
/// render-side analogue of `milback_ap::with_workspace`). Re-entrant
/// checkouts fall back to a fresh temporary burst.
pub fn with_field2_burst<R>(f: impl FnOnce(&mut Field2Burst) -> R) -> R {
    BURST.with(|b| match b.try_borrow_mut() {
        Ok(mut burst) => f(&mut burst),
        Err(_) => f(&mut Field2Burst::default()),
    })
}

/// A complete single-node MilBack deployment.
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
    /// Pooled link-layer working buffers: downlink/uplink transfers
    /// `mem::take` this, reuse its capacity, and put it back, so warmed
    /// transfers stop allocating (`tests/zero_alloc.rs`).
    pub(crate) link_scratch: LinkScratch,
}

impl Network {
    /// Builds a network with the node at `pose` in the paper's indoor
    /// scene, with the AP's beams steered at the node (the paper steers
    /// mechanically).
    pub fn new(pose: Pose, fidelity: Fidelity, seed: u64) -> Self {
        let mut scene = Scene::milback_indoor();
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
            link_scratch: LinkScratch::default(),
        }
    }

    /// Builds a clutter-free network (for microbenchmarks).
    pub fn free_space(pose: Pose, fidelity: Fidelity, seed: u64) -> Self {
        let mut scene = Scene::free_space();
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
            link_scratch: LinkScratch::default(),
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
    /// noise and trigger jitter.
    pub fn field2_captures(&mut self, n_chirps: usize) -> (Signal, Vec<[Signal; 2]>) {
        let mut burst = Field2Burst::default();
        with_channel_workspace(|cw| self.field2_captures_into(cw, n_chirps, &mut burst));
        (burst.tx, burst.captures)
    }

    /// Renders a Field-2 burst into reusable [`Field2Burst`] buffers
    /// through the cached channel-synthesis path (DESIGN.md §13).
    /// Bitwise identical to [`Self::field2_captures`] — same RNG draw
    /// order (one jitter gaussian per chirp, then per-antenna AWGN) and
    /// the same sample arithmetic; only the buffer management differs.
    /// After warm-up (same scene/pose/fidelity on this thread), a burst
    /// performs zero steady-state heap allocations.
    pub fn field2_captures_into(
        &mut self,
        cw: &mut ChannelWorkspace,
        n_chirps: usize,
        burst: &mut Field2Burst,
    ) {
        assert!(n_chirps >= 2, "need at least two chirps");
        let cfg = self.fidelity.sawtooth();
        let mut chirp_cfg = cfg;
        chirp_cfg.amplitude = self.ap.tx.amplitude();
        // The TX chirp is loop-invariant across chirps AND trials: fetch it
        // from the process-wide template cache (bitwise identical to fresh
        // synthesis) instead of re-synthesizing 6400 samples per burst.
        // One channel component serves every chirp; only the node's Γ
        // runs vary with the chirp index — so the component and its
        // waveform fingerprint are cached in the burst and rebuilt only
        // when the chirp config changes.
        let template = milback_dsp::template::sawtooth(&chirp_cfg);
        burst.tx.copy_from(template.as_ref());
        let comp: &TxComponent = if burst.comp_cfg == Some(chirp_cfg) && burst.comp.is_some() {
            match burst.comp.as_ref() {
                Some(c) => c,
                // Checked `is_some` above; unreachable.
                None => return,
            }
        } else {
            let fresh = TxComponent {
                signal: template.as_ref().clone(),
                profile: FreqProfile::Sawtooth(chirp_cfg),
            };
            burst.wave_fp = wave_fingerprint(&fresh);
            burst.comp_cfg = Some(chirp_cfg);
            burst.comp.insert(fresh)
        };
        let wave_fp = burst.wave_fp;
        let (fs, n) = (comp.signal.fs, comp.signal.len());

        let mod_freq = self.fidelity.localization_mod_freq();
        let schedule_a = SwitchSchedule::SquareWave {
            freq_hz: mod_freq,
            first: SwitchState::Reflective,
        };
        let schedule_b = SwitchSchedule::Constant(SwitchState::Absorptive);

        let noise_p = thermal_noise_power(burst.tx.fs, self.ap.capture_nf_db);
        milback_dsp::buffer::track_growth(&mut burst.captures, n_chirps);
        burst.captures.truncate(n_chirps);
        while burst.captures.len() < n_chirps {
            burst.captures.push([empty_signal(), empty_signal()]);
        }
        // Backscatter passes the node's implementation loss twice. This
        // expression can differ from the node's own `impl_loss_amp()²` in
        // the last bit, and every Field-2 digest depends on it.
        let two_way_loss = 10f64.powf(-2.0 * self.node.impl_loss_db / 20.0);
        // Inter-node interference accounting (DESIGN.md §16). The loop
        // below adds each parked neighbor's reflection into every
        // capture *deterministically* — counts depend only on the slot's
        // interferer list, never on thread schedule — so these counters
        // stay in the deterministic telemetry view. An empty list skips
        // everything, keeping the single-node render bitwise unchanged.
        if !self.interferers.is_empty() {
            telemetry::counter_add("net.interference.bursts", 1);
            telemetry::counter_add("net.interference.neighbors", self.interferers.len() as u64);
            telemetry::counter_add(
                "net.interference.rays",
                (n_chirps * 2 * self.interferers.len()) as u64,
            );
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
            let jitter = milback_dsp::noise::gaussian(&mut self.rng).abs() * self.ap.jitter_rms;
            for (ant, rx) in pair.iter_mut().enumerate() {
                self.scene.monostatic_rx_multi_into(
                    cw,
                    comp,
                    wave_fp,
                    std::slice::from_ref(&node_if),
                    ant,
                    rx,
                );
                // Parked neighbors' residual reflections layer in next —
                // after the target's return (matching the multi-node
                // slice order) and before jitter/noise, so the clutter
                // rides the same capture window. One constant Γ run per
                // neighbor, no RNG draws: an empty list is bitwise free.
                for itf in &self.interferers {
                    let parked = [GammaRun {
                        end: n,
                        gamma: itf.gamma,
                    }];
                    self.scene.accumulate_backscatter_into(
                        cw,
                        comp,
                        wave_fp,
                        &NodeInterface {
                            pose: itf.pose,
                            fsa: &itf.fsa,
                            gamma: &parked,
                        },
                        ant,
                        rx,
                    );
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

    /// Runs the full §5.1 localization: Field-2 capture → dechirp →
    /// background subtraction → range + angle.
    ///
    /// Returns `None` when there is no fix, and on entry, before any RNG
    /// draw, when the node or a parked interferer cannot be rendered
    /// (counted as `core.network.render.rejected`).
    pub fn localize(&mut self) -> Option<LocalizationResult> {
        if self.render_rejected() {
            return None;
        }
        // Render into the thread-local burst buffers through the cached
        // channel path, then process in the thread-local DSP workspace:
        // batch workers reuse both trial after trial (fixes pinned to
        // literals by tests/workspace_equivalence.rs; the cached render
        // by tests/channel_equivalence.rs).
        with_field2_burst(|burst| {
            with_channel_workspace(|cw| self.field2_captures_into(cw, 5, burst));
            let localizer = self.localizer();
            milback_ap::with_workspace(|ws| localizer.process_with(ws, &burst.tx, &burst.captures))
        })
    }

    /// The localizer matching this network's fidelity.
    pub fn localizer(&self) -> Localizer {
        let mut cfg = self.fidelity.sawtooth();
        cfg.amplitude = self.ap.tx.amplitude();
        Localizer::new(RangeProcessor::new(cfg, 2))
    }

    /// Runs §5.2(a): AP-side orientation sensing — the paper's FFT →
    /// background subtraction → gate → IFFT flow. Returns the estimated
    /// incidence angle (radians).
    ///
    /// Returns `None` on entry, before any RNG draw, when the node or a
    /// parked interferer cannot be rendered, as [`Self::localize`] does.
    pub fn sense_orientation_at_ap(&mut self) -> Option<f64> {
        if self.render_rejected() {
            return None;
        }
        with_field2_burst(|burst| {
            with_channel_workspace(|cw| self.field2_captures_into(cw, 5, burst));
            let tx = &burst.tx;
            let captures = &burst.captures;
            let localizer = self.localizer();
            let est = ApOrientationEstimator::new(self.fidelity.sawtooth());
            milback_ap::with_workspace(|ws| {
                localizer.profile_diffs_with(ws, tx, captures);
                // Locate the node's range bin and the difference pair
                // with the most node energy, exactly as localization does.
                let hit = localizer.detect_with(ws, tx.fs)?;
                est.estimate_gated(
                    &ws.antennas[0].diffs[hit.pair],
                    hit.bin,
                    localizer.gate_half_width(),
                    tx.fs,
                    tx.len(),
                    localizer.proc.fft_len,
                    &self.node.fsa,
                    Port::A,
                )
            })
        })
    }

    // ------------------------------------------------------------------
    // Field 1: node-side orientation
    // ------------------------------------------------------------------

    /// Renders the node's ADC captures of one Field-1 triangular chirp at
    /// both ports (both ports absorptive/listening).
    pub fn field1_node_captures(&mut self) -> (Vec<f64>, Vec<f64>) {
        let mut cfg = self.fidelity.triangular();
        cfg.amplitude = self.ap.tx.amplitude();
        let tx = cfg.triangular();
        let profile = FreqProfile::Triangular(cfg);
        let comp = TxComponent {
            signal: tx,
            profile,
        };
        let at_a = self
            .scene
            .to_node_port(&comp, &self.node.pose, &self.node.fsa, Port::A);
        let at_b = self
            .scene
            .to_node_port(&comp, &self.node.pose, &self.node.fsa, Port::B);
        let mut cap_a = self.node.receive_port(&at_a, &mut self.rng);
        let mut cap_b = self.node.receive_port(&at_b, &mut self.rng);
        // Node-side impairments act on the detector output (blockage,
        // saturation, droop); no-op when the plan is empty.
        let adc_fs = self.node.adc.sample_rate;
        self.faults.apply_to_video(self.clock_s, adc_fs, &mut cap_a);
        self.faults.apply_to_video(self.clock_s, adc_fs, &mut cap_b);
        (cap_a, cap_b)
    }

    /// Runs §5.2(b): the node estimates its own orientation from the
    /// triangular chirp's peak separation.
    ///
    /// Returns `None` on entry, before any RNG draw, when the node or a
    /// parked interferer cannot be rendered, as [`Self::localize`] does.
    pub fn sense_orientation_at_node(&mut self) -> Option<f64> {
        if self.render_rejected() {
            return None;
        }
        let (cap_a, cap_b) = self.field1_node_captures();
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
