//! The over-the-air channel: scene composition of node backscatter, static
//! clutter, the node's structural mirror reflection, and AP
//! self-interference.
//!
//! This module replaces the paper's physical indoor environment ("tables,
//! chairs, and shelves", §9). It is deliberately a *discrete-ray* model:
//! every path contributes a delayed, phase-rotated, amplitude-scaled copy of
//! the transmitted complex envelope. That is exactly the structure the
//! paper's algorithms are designed against — background subtraction removes
//! the static rays, the FMCW dechirp maps delays to beat frequencies, and
//! the two RX antennas see the geometric phase difference used for AoA.
//!
//! Noise is *not* added here; receivers (AP front-end, node envelope
//! detectors) inject their own thermal noise so that noise bandwidths match
//! each receiver's detection filter.

use crate::antenna::{Antenna, Horn};
use crate::fsa::{DualPortFsa, Port};
use crate::geometry::{Point, Pose, SPEED_OF_LIGHT};
use crate::propagation::{backscatter_rx_power, fspl, one_way_rx_power, radar_rx_power};
use crate::workspace::{
    fsa_fingerprint, pose_bits, ChannelWorkspace, CurveKey, CurvePair, Fnv, GainCurves, RayKey,
    RenderScratch, StaticKey,
};
use milback_dsp::chirp::ChirpConfig;
use milback_dsp::noise::db_to_ratio;
use milback_dsp::num::{Cpx, ZERO};
use milback_dsp::signal::Signal;
use std::f64::consts::PI;

/// A transmitted waveform plus the sawtooth sweep it follows. The FSA's
/// beam direction depends on the instantaneous frequency, so the channel
/// must know *what* RF frequency is being emitted at every instant. A
/// tone is the zero-span sweep, `f_start == f_stop`.
#[derive(Debug, Clone, PartialEq)]
pub struct TxComponent {
    /// The complex-baseband waveform (its `fc` is the reference carrier).
    pub signal: Signal,
    /// The sweep the waveform follows.
    pub sweep: ChirpConfig,
}

impl TxComponent {
    /// Instantaneous RF frequency at waveform-local time `t` (seconds).
    pub fn freq_at(&self, t: f64) -> f64 {
        self.sweep.sawtooth_freq_at(t)
    }

    /// RF frequency range swept by this component.
    pub fn freq_range(&self) -> (f64, f64) {
        (self.sweep.f_start, self.sweep.f_stop)
    }
}

/// Precomputed frequency→value lookup table over a component's swept
/// band. Per-sample amplitudes are read from it by linear interpolation
/// instead of evaluating the link budget at every sample's
/// instantaneous frequency.
///
/// A LUT is filled once per table build, in the pooled scratch of a
/// [`ChannelWorkspace`]. A cached Field-2 ray-table build reads its FSA
/// gain factor by grid index from the workspace's gain-curve cache,
/// which computes each (FSA, incidence, band) curve once (DESIGN.md
/// §13.5), and the one-shot monostatic reference evaluates the gain
/// point by point, bitwise the same.
#[derive(Default)]
pub(crate) struct FreqLut {
    f_lo: f64,
    step: f64,
    values: Vec<f64>,
}

impl FreqLut {
    const POINTS: usize = 2048;

    /// `(step, points)` of the grid over `f_lo..=f_hi`: point `i` sits
    /// at `f_lo + i·step`. A degenerate band (`f_hi <= f_lo`) is the
    /// single point `f_lo`.
    fn grid(f_lo: f64, f_hi: f64) -> (f64, usize) {
        if f_hi <= f_lo {
            (1.0, 1)
        } else {
            ((f_hi - f_lo) / (Self::POINTS - 1) as f64, Self::POINTS)
        }
    }

    /// Tabulates `eval(i, f_i)` at every grid point `i`, reusing the
    /// table's buffer.
    fn fill(&mut self, f_lo: f64, f_hi: f64, mut eval: impl FnMut(usize, f64) -> f64) {
        let (step, points) = Self::grid(f_lo, f_hi);
        self.f_lo = f_lo;
        self.step = step;
        self.values.clear();
        self.values
            .extend((0..points).map(|i| eval(i, f_lo + i as f64 * step)));
    }

    #[inline]
    fn get(&self, f: f64) -> f64 {
        if self.values.len() == 1 {
            return self.values[0];
        }
        let x = ((f - self.f_lo) / self.step).clamp(0.0, (self.values.len() - 1) as f64);
        let i = x.floor() as usize;
        if i + 1 >= self.values.len() {
            return self.values[self.values.len() - 1];
        }
        let frac = x - i as f64;
        self.values[i] * (1.0 - frac) + self.values[i + 1] * frac
    }
}

/// A static clutter reflector (wall, desk, shelf…).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reflector {
    /// Position in the plane.
    pub position: Point,
    /// Radar cross-section in m².
    pub rcs: f64,
}

/// The node's structural (ground-plane) mirror reflection — the
/// interference source behind the orientation-error bump of Figure 13b.
///
/// The mirror return is strongest near specular incidence and, crucially,
/// couples weakly to the switch state, so background subtraction cannot
/// remove it completely (paper §9.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MirrorReflection {
    /// Peak RCS at the specular angle, m².
    pub peak_rcs: f64,
    /// Incidence angle of the specular peak, radians.
    pub center: f64,
    /// Gaussian angular width of the specular lobe, radians.
    pub width: f64,
    /// Fraction of the mirror amplitude modulated by the node's switching
    /// (0 = perfectly static → fully removed by subtraction).
    pub switch_coupling: f64,
    /// Extra one-way depth of the effective specular point behind the FSA
    /// aperture, meters (millimetres). Re-mounting or rotating the node
    /// changes this, which randomizes the mirror's carrier phase relative
    /// to the antenna-mode return — the reason the paper's Fig. 13b error
    /// bump has high variance rather than a fixed bias.
    pub depth_offset: f64,
}

impl MirrorReflection {
    /// The MilBack prototype's mirror reflection, calibrated to reproduce
    /// the Fig. 13b error bump between −6° and −2°.
    pub fn milback() -> Self {
        Self {
            peak_rcs: 6.5e-3,
            center: (-4f64).to_radians(),
            width: 1.8f64.to_radians(),
            switch_coupling: 0.23,
            depth_offset: 0.0,
        }
    }

    /// Effective RCS at incidence `inc` radians.
    pub fn rcs_at(&self, inc: f64) -> f64 {
        let x = (inc - self.center) / self.width;
        self.peak_rcs * (-x * x).exp()
    }
}

/// The node as seen by the channel: where it is, how it is oriented, which
/// FSA it carries, and the port reflection coefficients it holds over the
/// capture.
pub struct NodeInterface<'a> {
    /// Node pose.
    pub pose: Pose,
    /// The node's dual-port FSA.
    pub fsa: &'a DualPortFsa,
    /// `[Γ_A, Γ_B]` (complex voltage ratios), held over the whole
    /// render: the node's SPDT switches hold one throw per Field-2 chirp
    /// (`milback_node::node::BackscatterNode::field2_gamma`), and a parked
    /// node never toggles.
    pub gamma: [Cpx; 2],
}

/// Hoisted per-ray synthesis tables for one (scene, waveform, node
/// geometry, RX antenna) tuple: everything in `add_node_backscatter`'s
/// inner loop that does not depend on the reflection coefficients.
/// Built once, then replayed per chirp against that chirp's Γ with three
/// multiply-adds per sample.
#[derive(Debug, Clone, Default)]
pub struct RayTables {
    /// Envelope delayed by the round-trip time.
    pub(crate) delayed: Vec<Cpx>,
    /// Per-sample port-A/port-B LUT amplitudes at the instantaneous
    /// emitted frequency.
    pub(crate) amp: [Vec<f64>; 2],
    /// Per-sample mirror LUT amplitude (empty when the scene has no
    /// mirror model).
    pub(crate) amp_mirror: Vec<f64>,
    /// Round-trip carrier phasor `exp(-j2π·fc·τ_rt)`.
    pub(crate) rt_phase: Cpx,
    /// Mirror `(switch_coupling, depth phasor)` when enabled.
    pub(crate) mirror: Option<(f64, Cpx)>,
}

/// Delay of the AP's TX→RX leakage path (a ~30 cm equivalent round
/// trip): a fixed property of the AP hardware, so the AP knows it and
/// checks each Field-2 burst's timing against it
/// (`Localizer::leakage_range`).
pub const SELF_INTERFERENCE_DELAY_S: f64 = 1e-9;

/// The complete propagation scene.
#[derive(Debug, Clone)]
pub struct Scene {
    /// AP transmit antenna position.
    pub tx_pos: Point,
    /// AP receive antenna positions (two, for phase-difference AoA).
    pub rx_pos: [Point; 2],
    /// Transmit antenna pattern.
    pub tx_antenna: Horn,
    /// Receive antenna pattern (both RX antennas identical).
    pub rx_antenna: Horn,
    /// Azimuth the AP's beams are steered toward, radians.
    pub steer: f64,
    /// Static clutter reflectors.
    pub clutter: Vec<Reflector>,
    /// TX→RX leakage (self-interference) in dB (negative), at delay
    /// [`SELF_INTERFERENCE_DELAY_S`]. `None` disables.
    pub self_interference_db: Option<f64>,
    /// The node's structural mirror reflection. `None` disables.
    pub mirror: Option<MirrorReflection>,
}

impl Scene {
    /// An empty free-space scene with the MilBack AP antenna arrangement:
    /// TX at the origin, two RX antennas spaced λ/2 at 28 GHz on the y
    /// axis, beams steered along +x.
    pub fn free_space() -> Self {
        let half_lambda = SPEED_OF_LIGHT / 28e9 / 2.0;
        Self {
            tx_pos: Point::origin(),
            rx_pos: [
                Point::new(0.0, half_lambda / 2.0),
                Point::new(0.0, -half_lambda / 2.0),
            ],
            tx_antenna: Horn::milback_ap(),
            rx_antenna: Horn::milback_ap(),
            steer: 0.0,
            clutter: Vec::new(),
            self_interference_db: None,
            mirror: None,
        }
    }

    /// The paper's indoor evaluation scene: a handful of strong static
    /// reflectors (walls, desk, shelf), −45 dB self-interference and the
    /// node mirror reflection enabled.
    pub fn milback_indoor() -> Self {
        let mut s = Self::free_space();
        s.clutter = vec![
            Reflector {
                position: Point::new(6.0, 2.0),
                rcs: 0.8,
            }, // side wall
            Reflector {
                position: Point::new(9.0, -1.5),
                rcs: 1.5,
            }, // back wall
            Reflector {
                position: Point::new(2.5, -1.0),
                rcs: 0.15,
            }, // desk
            Reflector {
                position: Point::new(4.0, 1.8),
                rcs: 0.25,
            }, // shelf
        ];
        s.self_interference_db = Some(-45.0);
        s.mirror = Some(MirrorReflection::milback());
        s
    }

    /// Steers the AP's TX/RX beams toward a target point.
    ///
    /// Changes [`Scene::static_fingerprint`], so the cached static
    /// responses (clutter and leakage) are rebuilt on the next render.
    /// A node's cached ray tables stay valid: they key on
    /// [`Scene::ray_fingerprint`], and the steered horns' gain enters
    /// only as a scalar at replay.
    pub fn steer_towards(&mut self, target: &Point) {
        self.steer = self.tx_pos.bearing_to(target);
    }

    /// Content fingerprint of what a node's Field-2 ray tables depend on
    /// in the scene: the TX and RX antenna positions and the mirror
    /// model. The tables are built with unit horn gains, and each replay
    /// scales them by the current steer's `√(g_tx·g_rx)`, so neither the
    /// steer nor the horn patterns enter this key.
    pub fn ray_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.f64(self.tx_pos.x);
        h.f64(self.tx_pos.y);
        for p in &self.rx_pos {
            h.f64(p.x);
            h.f64(p.y);
        }
        match &self.mirror {
            None => h.word(0),
            Some(m) => {
                h.word(1);
                h.f64(m.peak_rcs);
                h.f64(m.center);
                h.f64(m.width);
                h.f64(m.switch_coupling);
                h.f64(m.depth_offset);
            }
        }
        h.finish()
    }

    /// Content-generation fingerprint over every field that shapes the
    /// synthesized channel: [`Scene::ray_fingerprint`]'s fields plus the
    /// horn patterns, the steer, the clutter and the self-interference.
    /// The static responses of [`crate::workspace::ChannelWorkspace`]
    /// are keyed on this value (a clutter path's horn gain depends on
    /// the steer), so *any* scene mutation — method or direct field
    /// edit — rebuilds them on the next render (DESIGN.md §13).
    pub fn static_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.ray_fingerprint());
        for horn in [&self.tx_antenna, &self.rx_antenna] {
            h.f64(horn.peak_dbi);
            h.f64(horn.hpbw);
            h.f64(horn.sidelobe_db);
        }
        h.f64(self.steer);
        h.word(self.clutter.len() as u64);
        for r in &self.clutter {
            h.f64(r.position.x);
            h.f64(r.position.y);
            h.f64(r.rcs);
        }
        match self.self_interference_db {
            None => h.word(0),
            Some(db) => {
                h.word(1);
                h.f64(db);
            }
        }
        h.finish()
    }

    /// Whether a node at `p` can be rendered: every ray leg from the
    /// AP's TX and RX antennas to `p` has a positive length. False at an
    /// antenna position and for a NaN coordinate, where the path loss
    /// of [`fspl`] is undefined.
    pub fn can_render_at(&self, p: &Point) -> bool {
        [self.tx_pos, self.rx_pos[0], self.rx_pos[1]]
            .iter()
            .all(|a| a.distance_to(p) > 0.0)
    }

    /// AP TX antenna gain toward `target` given current steering.
    fn tx_gain_towards(&self, target: &Point, f: f64) -> f64 {
        let bearing = self.tx_pos.bearing_to(target);
        self.tx_antenna.gain(bearing - self.steer, f)
    }

    /// AP RX antenna gain from `target` given current steering.
    fn rx_gain_from(&self, rx_idx: usize, target: &Point, f: f64) -> f64 {
        let bearing = self.rx_pos[rx_idx].bearing_to(target);
        self.rx_antenna.gain(bearing - self.steer, f)
    }

    /// The amplitude factor `√(g_tx·g_rx)` of the steered horns on a
    /// node's two-way path through RX antenna `rx_idx`, at carrier `fc`.
    /// Ray tables are built with unit horn gains and replayed with this
    /// factor: exact, because [`Horn::gain`] does not depend on
    /// frequency and both two-way budgets are linear in `g_tx·g_rx`.
    fn horn_amplitude(&self, node: &Point, rx_idx: usize, fc: f64) -> f64 {
        (self.tx_gain_towards(node, fc) * self.rx_gain_from(rx_idx, node, fc)).sqrt()
    }

    // -----------------------------------------------------------------
    // Wideband signal-level operations
    // -----------------------------------------------------------------

    /// Monostatic capture at RX antenna `rx_idx` with every backscatter
    /// node in `nodes` (SDM operation, paper §7): each node's return
    /// through both FSA ports (weighted by its time-varying reflection
    /// coefficients and its mirror reflection) summed with the static
    /// clutter and TX self-interference paths. Noiseless. The channel is
    /// linear, so the sum is exact. This is the cached, allocation-free
    /// render of Field 2 (DESIGN.md §13), bitwise identical to
    /// [`Scene::monostatic_rx_multi_uncached_into`].
    ///
    /// `wave_fp` must be
    /// [`wave_fingerprint`](crate::workspace::wave_fingerprint)`(comp)` — callers compute
    /// it once per burst and reuse it across chirps/antennas. After the
    /// workspace is warm (same scene, waveform and node geometry), a
    /// render performs **zero** heap allocations: the static-scene
    /// response is copied from cache and each node's hoisted ray tables
    /// are replayed against each node's Γ (pinned by
    /// `tests/zero_alloc.rs`).
    pub fn monostatic_rx_multi_into(
        &self,
        ws: &mut ChannelWorkspace,
        comp: &TxComponent,
        wave_fp: u64,
        nodes: &[NodeInterface<'_>],
        rx_idx: usize,
        out: &mut Signal,
    ) {
        assert!(rx_idx < 2, "rx_idx must be 0 or 1");
        let fs = comp.signal.fs;
        let n = comp.signal.len();
        out.fs = fs;
        out.fc = comp.signal.fc;
        out.samples.resize(n, ZERO);

        // Static paths first (summation order matters bitwise: the
        // uncached reference adds them in the same order).
        if !self.clutter.is_empty() || self.self_interference_db.is_some() {
            let key = StaticKey {
                scene: self.static_fingerprint(),
                wave: wave_fp,
                rx_idx,
            };
            let response = ws.static_response(key, || {
                let mut acc = vec![ZERO; n];
                self.add_static_paths(comp, rx_idx, &mut acc);
                acc
            });
            out.samples.copy_from_slice(response);
        } else {
            out.samples.fill(ZERO);
        }

        let ray_fp = self.ray_fingerprint();
        for node in nodes {
            let tables = self.cached_ray_tables(ws, comp, wave_fp, ray_fp, node, rx_idx);
            let horn = self.horn_amplitude(&node.pose.position, rx_idx, comp.signal.fc);
            accumulate_node(tables, node.gamma, horn, &mut out.samples);
        }
    }

    /// Accumulates one additional node's backscatter **on top of** an
    /// already-rendered capture — the clutter-composition hook behind
    /// inter-node interference in the dense-network fabric (DESIGN.md
    /// §16): a scheduled node's Field-2 render first draws its own
    /// return through [`Scene::monostatic_rx_multi_into`], then layers
    /// each neighbor's reflected tones in with this method.
    ///
    /// Bitwise identical to having passed the extra node in the `nodes`
    /// slice of [`Scene::monostatic_rx_multi_into`] (the channel is
    /// linear and both paths run the same [`RayTables`] replay), and
    /// allocation-free once the neighbor's tables are cached in `ws`.
    /// `out` must hold the rendered capture (`comp.signal.len()`
    /// samples).
    pub fn accumulate_backscatter_into(
        &self,
        ws: &mut ChannelWorkspace,
        comp: &TxComponent,
        wave_fp: u64,
        node: &NodeInterface<'_>,
        rx_idx: usize,
        out: &mut Signal,
    ) {
        assert!(rx_idx < 2, "rx_idx must be 0 or 1");
        assert_eq!(
            out.samples.len(),
            comp.signal.len(),
            "accumulate over an already-rendered capture"
        );
        let ray_fp = self.ray_fingerprint();
        let tables = self.cached_ray_tables(ws, comp, wave_fp, ray_fp, node, rx_idx);
        let horn = self.horn_amplitude(&node.pose.position, rx_idx, comp.signal.fc);
        accumulate_node(tables, node.gamma, horn, &mut out.samples);
    }

    /// One node's [`RayTables`] from `ws`, built on a miss from the
    /// workspace's cached gain curves. `ray_fp` is
    /// [`Self::ray_fingerprint`]: the steer is not part of the key.
    fn cached_ray_tables<'w>(
        &self,
        ws: &'w mut ChannelWorkspace,
        comp: &TxComponent,
        wave_fp: u64,
        ray_fp: u64,
        node: &NodeInterface<'_>,
        rx_idx: usize,
    ) -> &'w RayTables {
        let fsa_fp = fsa_fingerprint(node.fsa);
        let key = RayKey {
            scene: ray_fp,
            wave: wave_fp,
            rx_idx,
            pose: pose_bits(&node.pose),
            fsa: fsa_fp,
        };
        ws.ray_tables(key, |curves, luts| {
            let inc = node.pose.incidence_from(&self.tx_pos);
            let pair = cached_curves(curves, node.fsa, fsa_fp, inc, comp.freq_range());
            let mut tables = RayTables::default();
            let gain = |port: Port, i: usize, _| pair[port as usize][i];
            self.build_ray_tables(comp, node, rx_idx, gain, luts, &mut tables);
            tables
        })
    }

    /// One-shot monostatic render, the reference the cached path is
    /// asserted against: the static paths straight into `out`, then each
    /// node's [`RayTables`] built in `ws`'s pooled scratch, with the gain
    /// evaluated point by point through [`DualPortFsa::gain`], and
    /// replayed with the same horn factor. It leaves no cache entry in
    /// `ws`; a warmed scratch makes the render allocation-free.
    pub fn monostatic_rx_multi_uncached_into(
        &self,
        ws: &mut ChannelWorkspace,
        comp: &TxComponent,
        nodes: &[NodeInterface<'_>],
        rx_idx: usize,
        out: &mut Signal,
    ) {
        assert!(rx_idx < 2, "rx_idx must be 0 or 1");
        let n = comp.signal.len();
        out.fs = comp.signal.fs;
        out.fc = comp.signal.fc;
        out.samples.clear();
        out.samples.resize(n, ZERO);
        self.add_static_paths(comp, rx_idx, &mut out.samples);
        let RenderScratch { rays, luts } = &mut ws.scratch;
        for node in nodes {
            let inc = node.pose.incidence_from(&self.tx_pos);
            let gain = |port, _, f| node.fsa.gain(port, inc, f);
            self.build_ray_tables(comp, node, rx_idx, gain, luts, rays);
            let horn = self.horn_amplitude(&node.pose.position, rx_idx, comp.signal.fc);
            accumulate_node(rays, node.gamma, horn, &mut out.samples);
        }
    }

    /// [`Self::monostatic_rx_multi_uncached_into`] into a fresh signal
    /// through a fresh workspace.
    pub fn monostatic_rx_multi_uncached(
        &self,
        comp: &TxComponent,
        nodes: &[NodeInterface<'_>],
        rx_idx: usize,
    ) -> Signal {
        let mut out = Signal::new(comp.signal.fs, comp.signal.fc, Vec::new());
        let mut ws = ChannelWorkspace::new();
        self.monostatic_rx_multi_uncached_into(&mut ws, comp, nodes, rx_idx, &mut out);
        out
    }

    /// Builds the hoisted [`RayTables`] for one node's backscatter rays
    /// (both ports + its mirror reflection) into `out`, reusing its
    /// buffers: the round-trip-delayed envelope and, per sample, every
    /// frequency-LUT amplitude the historical inner loop evaluated on
    /// the fly. The AP horns count as unit gains here: the replay
    /// multiplies in [`Self::horn_amplitude`], so the tables do not
    /// depend on the steer. `gain(port, i, f)` is the port's FSA gain at the node's
    /// incidence at point `i` (frequency `f`) of the LUT grid; `luts`
    /// holds the port-A, port-B and mirror LUTs while they are read.
    fn build_ray_tables(
        &self,
        comp: &TxComponent,
        node: &NodeInterface<'_>,
        rx_idx: usize,
        gain: impl Fn(Port, usize, f64) -> f64,
        luts: &mut [FreqLut; 3],
        out: &mut RayTables,
    ) {
        let fc = comp.signal.fc;
        let fs = comp.signal.fs;
        let n = comp.signal.len();
        let d_tx = self.tx_pos.distance_to(&node.pose.position);
        let d_rx = self.rx_pos[rx_idx].distance_to(&node.pose.position);
        let tau_rt = (d_tx + d_rx) / SPEED_OF_LIGHT;
        let inc = node.pose.incidence_from(&self.tx_pos);
        let rt_phase = Cpx::cis(-2.0 * PI * fc * tau_rt);

        let (f_lo, f_hi) = comp.freq_range();
        let [lut_a, lut_b, lut_mirror] = luts;
        for (port, lut) in Port::BOTH.into_iter().zip([&mut *lut_a, &mut *lut_b]) {
            lut.fill(f_lo, f_hi, |i, f| {
                (backscatter_rx_power(1.0, 1.0, 1.0, gain(port, i, f), 1.0, 1.0, f)
                    * fspl(d_tx, f)
                    * fspl(d_rx, f)
                    / fspl(1.0, f).powi(2))
                .sqrt()
            });
        }
        let mirror = self.mirror.as_ref().map(|m| {
            let sigma = m.rcs_at(inc);
            lut_mirror.fill(f_lo, f_hi, |_, f| {
                (radar_rx_power(1.0, 1.0, 1.0, sigma, 1.0, f) * fspl(d_tx, f) * fspl(d_rx, f)
                    / fspl(1.0, f).powi(2))
                .sqrt()
            });
            // The extra 2·depth path shows up as a carrier phase rotation
            // (the mm-scale envelope delay is far below range resolution).
            let phase = Cpx::cis(-2.0 * PI * fc * 2.0 * m.depth_offset / SPEED_OF_LIGHT);
            (m.switch_coupling, phase)
        });

        comp.signal.delayed_into(tau_rt, &mut out.delayed);
        let [amp_a, amp_b] = &mut out.amp;
        let amp_mirror = &mut out.amp_mirror;
        for amp in [&mut *amp_a, &mut *amp_b, &mut *amp_mirror] {
            amp.clear();
        }
        amp_a.reserve(n);
        amp_b.reserve(n);
        if mirror.is_some() {
            amp_mirror.reserve(n);
        }
        for i in 0..n {
            let t = i as f64 / fs;
            let t_emit = (t - tau_rt).max(0.0);
            let f_inst = comp.freq_at(t_emit);
            amp_a.push(lut_a.get(f_inst));
            amp_b.push(lut_b.get(f_inst));
            if mirror.is_some() {
                amp_mirror.push(lut_mirror.get(f_inst));
            }
        }
        out.rt_phase = rt_phase;
        out.mirror = mirror;
    }

    /// Adds the node-independent static paths (clutter + TX→RX leakage)
    /// into `acc` through the allocation-free
    /// [`Signal::accumulate_delayed`] kernel.
    fn add_static_paths(&self, comp: &TxComponent, rx_idx: usize, acc: &mut [Cpx]) {
        let fc = comp.signal.fc;
        // --- Static clutter ---------------------------------------------
        for r in &self.clutter {
            let d1 = self.tx_pos.distance_to(&r.position);
            let d2 = self.rx_pos[rx_idx].distance_to(&r.position);
            let tau = (d1 + d2) / SPEED_OF_LIGHT;
            let g_t = self.tx_gain_towards(&r.position, fc);
            let g_r = self.rx_gain_from(rx_idx, &r.position, fc);
            // Bistatic radar equation split across the two legs.
            let p = radar_rx_power(1.0, g_t, g_r, r.rcs, 1.0, fc) * fspl(d1, fc) * fspl(d2, fc)
                / fspl(1.0, fc).powi(2);
            let coeff = Cpx::cis(-2.0 * PI * fc * tau) * p.sqrt();
            comp.signal.accumulate_delayed(tau, coeff, acc);
        }

        // --- TX → RX self-interference ----------------------------------
        if let Some(si_db) = self.self_interference_db {
            let tau = SELF_INTERFERENCE_DELAY_S;
            let coeff = Cpx::cis(-2.0 * PI * fc * tau) * db_to_ratio(si_db).sqrt();
            comp.signal.accumulate_delayed(tau, coeff, acc);
        }
    }

    // -----------------------------------------------------------------
    // Narrowband (per-tone) link-budget helpers
    // -----------------------------------------------------------------

    /// One-way power gain from the AP TX to the node's FSA `port` at RF
    /// frequency `f` (linear ratio Pr/Pt). The downlink budget.
    pub fn tone_gain_to_port(&self, pose: &Pose, fsa: &DualPortFsa, port: Port, f: f64) -> f64 {
        let d = self.tx_pos.distance_to(&pose.position);
        let inc = pose.incidence_from(&self.tx_pos);
        let g_tx = self.tx_gain_towards(&pose.position, f);
        one_way_rx_power(1.0, g_tx, fsa.gain(port, inc, f), d, f)
    }

    /// Two-way power gain for a tone at RF `f` reflected by the node's
    /// `port` (fully reflective, |Γ|=1), received at RX antenna `rx_idx`.
    /// The uplink/localization budget.
    pub fn tone_backscatter_gain(
        &self,
        pose: &Pose,
        fsa: &DualPortFsa,
        port: Port,
        f: f64,
        rx_idx: usize,
    ) -> f64 {
        let d_tx = self.tx_pos.distance_to(&pose.position);
        let d_rx = self.rx_pos[rx_idx].distance_to(&pose.position);
        let inc = pose.incidence_from(&self.tx_pos);
        let g_tx = self.tx_gain_towards(&pose.position, f);
        let g_rx = self.rx_gain_from(rx_idx, &pose.position, f);
        let g_node = fsa.gain(port, inc, f);
        backscatter_rx_power(1.0, g_tx, g_rx, g_node, 1.0, 1.0, f) * fspl(d_tx, f) * fspl(d_rx, f)
            / fspl(1.0, f).powi(2)
    }

    /// The complex gain of every path a CW tone at RF `f` takes from the
    /// AP TX to RX antenna `rx_idx` with a node at `pose`, split by what
    /// the node's switches control (see [`ToneResponse::at`]). Each path
    /// carries its exact phasor `e^{−j2πf·τ}`: a tone's complex envelope
    /// mixed down at its own frequency, which is what the uplink
    /// receiver detects.
    pub fn tone_response(
        &self,
        pose: &Pose,
        fsa: &DualPortFsa,
        f: f64,
        rx_idx: usize,
    ) -> ToneResponse {
        let path = |tau: f64, power: f64| Cpx::cis(-2.0 * PI * f * tau) * power.sqrt();
        let rx = self.rx_pos[rx_idx];
        let mut static_paths = ZERO;
        for r in &self.clutter {
            let (d1, d2) = (
                self.tx_pos.distance_to(&r.position),
                rx.distance_to(&r.position),
            );
            let g_t = self.tx_gain_towards(&r.position, f);
            let g_r = self.rx_gain_from(rx_idx, &r.position, f);
            let p = radar_rx_power(1.0, g_t, g_r, r.rcs, 1.0, f) * fspl(d1, f) * fspl(d2, f)
                / fspl(1.0, f).powi(2);
            static_paths += path((d1 + d2) / SPEED_OF_LIGHT, p);
        }
        if let Some(si_db) = self.self_interference_db {
            static_paths += path(SELF_INTERFERENCE_DELAY_S, db_to_ratio(si_db));
        }

        let node = pose.position;
        let (d_tx, d_rx) = (self.tx_pos.distance_to(&node), rx.distance_to(&node));
        let legs = fspl(d_tx, f) * fspl(d_rx, f) / fspl(1.0, f).powi(2);
        let round_trip =
            path((d_tx + d_rx) / SPEED_OF_LIGHT, 1.0) * self.horn_amplitude(&node, rx_idx, f);
        let inc = pose.incidence_from(&self.tx_pos);
        let ports = Port::BOTH.map(|port| {
            let g_node = fsa.gain(port, inc, f);
            round_trip * (backscatter_rx_power(1.0, 1.0, 1.0, g_node, 1.0, 1.0, f) * legs).sqrt()
        });
        let (mirror, coupling) = self.mirror.map_or((ZERO, 0.0), |m| {
            let p = radar_rx_power(1.0, 1.0, 1.0, m.rcs_at(inc), 1.0, f) * legs;
            let depth = path(2.0 * m.depth_offset / SPEED_OF_LIGHT, 1.0);
            (round_trip * depth * p.sqrt(), m.switch_coupling)
        });
        ToneResponse {
            static_paths,
            ports,
            mirror,
            coupling,
        }
    }
}

/// A tone's complex gain from the AP TX to one RX antenna, split by what
/// the node's switches control ([`Scene::tone_response`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToneResponse {
    /// The static paths: clutter and TX→RX leakage.
    pub static_paths: Cpx,
    /// Each FSA port's antenna-mode return at |Γ| = 1.
    pub ports: [Cpx; 2],
    /// The node's mirror reflection at rest (zero without a mirror
    /// model).
    pub mirror: Cpx,
    /// The mirror's coupling to port A's switch state.
    pub coupling: f64,
}

impl ToneResponse {
    /// The gain while the node's ports reflect with `[Γ_A, Γ_B]`: the
    /// static paths, each port's return weighted by its Γ, and the
    /// mirror, switch-coupled to port A as in the wideband render.
    pub fn at(&self, gamma: [Cpx; 2]) -> Cpx {
        let [ga, gb] = gamma;
        let mirror_gain = 1.0 + self.coupling * (2.0 * ga.abs() - 1.0);
        self.static_paths + ga * self.ports[0] + gb * self.ports[1] + self.mirror * mirror_gain
    }
}

/// Both ports' FSA gain at incidence `inc` on the LUT grid of the band
/// `f_lo..=f_hi`, from the workspace's gain-curve cache: built once per
/// (FSA, incidence, band) by [`DualPortFsa::gain_curve_into`].
fn cached_curves<'c>(
    curves: &'c mut GainCurves,
    fsa: &DualPortFsa,
    fsa_fp: u64,
    inc: f64,
    (f_lo, f_hi): (f64, f64),
) -> &'c CurvePair {
    let key = CurveKey {
        fsa: fsa_fp,
        incidence: inc.to_bits(),
        f_lo: f_lo.to_bits(),
        f_hi: f_hi.to_bits(),
    };
    curves.get_or_build(key, || {
        let (step, points) = FreqLut::grid(f_lo, f_hi);
        Port::BOTH.map(|port| {
            let mut curve = vec![0.0; points];
            fsa.gain_curve_into(port, inc, f_lo, step, &mut curve);
            curve
        })
    })
}

/// Replays one node's hoisted [`RayTables`] against its Γ, accumulating
/// into `acc`. This is the only per-sample loop left on the monostatic
/// path: the mirror's switch-coupling gain is hoisted and each sample
/// costs three multiply-adds — no Γ lookup, no trigonometry, no LUT
/// walks. The steered horns' amplitude factor `horn`
/// ([`Scene::horn_amplitude`]) is folded into the round-trip phasor once
/// per replay. Both the cached and the one-shot render call it, so they
/// agree bitwise.
fn accumulate_node(tables: &RayTables, [ga, gb]: [Cpx; 2], horn: f64, acc: &mut [Cpx]) {
    let rt_phase = tables.rt_phase * horn;
    let samples = tables
        .delayed
        .iter()
        .zip(&tables.amp[0])
        .zip(&tables.amp[1])
        .zip(&mut *acc);
    for (((&s, &amp_a), &amp_b), out) in samples {
        let coeff = ga * amp_a + gb * amp_b;
        *out += s * coeff * rt_phase;
    }

    // --- Mirror (structural) reflection, switch-coupled --------------
    // Added after the port term, sample by sample, exactly as a single
    // fused loop would.
    if let Some((coupling, phase)) = tables.mirror {
        // Weak coupling to port A's switch state.
        let state = 2.0 * ga.abs() - 1.0;
        let gain = 1.0 + coupling * state;
        let samples = tables.delayed.iter().zip(&tables.amp_mirror).zip(acc);
        for ((&s, &amp_m), out) in samples {
            *out += s * rt_phase * phase * (amp_m * gain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::deg_to_rad;
    use crate::workspace::wave_fingerprint;
    use milback_dsp::noise::ratio_to_db;

    /// Monostatic render at `rx_idx` through a fresh workspace.
    fn render(
        scene: &Scene,
        comp: &TxComponent,
        nodes: &[NodeInterface<'_>],
        rx_idx: usize,
    ) -> Signal {
        let mut ws = crate::workspace::ChannelWorkspace::default();
        let mut out = Signal::new(comp.signal.fs, comp.signal.fc, Vec::new());
        let wave_fp = wave_fingerprint(comp);
        scene.monostatic_rx_multi_into(&mut ws, comp, wave_fp, nodes, rx_idx, &mut out);
        out
    }

    /// Both ports reflective or both absorptive.
    fn static_gamma(reflective: bool) -> [Cpx; 2] {
        let g = if reflective {
            Cpx::new(-0.94, 0.0)
        } else {
            Cpx::new(0.05, 0.0)
        };
        [g, g]
    }

    /// A tone at RF `f`: the zero-span sweep.
    fn tone(signal: Signal, f: f64) -> TxComponent {
        let sweep = ChirpConfig {
            f_start: f,
            f_stop: f,
            duration: signal.duration(),
            fs: signal.fs,
            amplitude: 1.0,
        };
        TxComponent { signal, sweep }
    }

    #[test]
    fn component_frequency_follows_its_sweep() {
        let cfg = ChirpConfig::milback_sawtooth();
        let chirp = TxComponent {
            signal: Signal::zeros(cfg.fs, cfg.center(), 0),
            sweep: cfg,
        };
        assert_eq!(chirp.freq_at(0.0), 26.5e9);
        assert_eq!(chirp.freq_at(cfg.duration), 29.5e9);
        assert_eq!(chirp.freq_range(), (26.5e9, 29.5e9));
        let tone = tone(Signal::tone(1e8, 27.5e9, 0.0, 1.0, 100), 27.5e9);
        for t in [0.0, 0.3e-6, 1.0] {
            assert_eq!(tone.freq_at(t), 27.5e9);
        }
        assert_eq!(tone.freq_range(), (27.5e9, 27.5e9));
    }

    #[test]
    fn downlink_tone_gain_matches_budget() {
        // Node at 2 m, facing the AP; tone at the port-A alignment frequency.
        let scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        let pose = Pose::facing_ap(2.0, 0.0, 0.0);
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let g = scene.tone_gain_to_port(&pose, &fsa, Port::A, f);
        let g_db = ratio_to_db(g);
        // 20 (horn) + ~12.5 (FSA) − FSPL(2m) ≈ 20 + 12.5 − 67.5 ≈ −35 dB.
        assert!((-40.0..=-30.0).contains(&g_db), "downlink gain {g_db} dB");
    }

    #[test]
    fn uplink_gain_is_roughly_downlink_squared_over_horn() {
        let scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        let pose = Pose::facing_ap(3.0, 0.0, 0.0);
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let one = scene.tone_gain_to_port(&pose, &fsa, Port::A, f);
        let two = scene.tone_backscatter_gain(&pose, &fsa, Port::A, f, 0);
        // Pr2/Pt = (Pr1/Pt)² × (G_rx/G_tx) here since geometry is symmetric.
        let expect = one * one * 1.0;
        let ratio = two / expect;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tone_to_aligned_port_beats_misaligned() {
        let scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        // Node rotated 15°: port A aligns at one frequency, port B at another.
        let psi = deg_to_rad(15.0);
        let pose = Pose::facing_ap(2.0, 0.0, psi);
        let inc = pose.incidence_from(&Point::origin());
        let fa = fsa.frequency_for_angle(Port::A, inc).unwrap();
        let fb = fsa.frequency_for_angle(Port::B, inc).unwrap();
        // Tone at fa: port A receives strongly, port B weakly.
        let ga = scene.tone_gain_to_port(&pose, &fsa, Port::A, fa);
        let gb = scene.tone_gain_to_port(&pose, &fsa, Port::B, fa);
        assert!(
            ratio_to_db(ga / gb) > 10.0,
            "port isolation {} dB",
            ratio_to_db(ga / gb)
        );
        // And symmetrically at fb.
        let ga2 = scene.tone_gain_to_port(&pose, &fsa, Port::A, fb);
        let gb2 = scene.tone_gain_to_port(&pose, &fsa, Port::B, fb);
        assert!(ratio_to_db(gb2 / ga2) > 10.0);
    }

    #[test]
    fn monostatic_reflective_vs_absorptive_contrast() {
        let scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        let pose = Pose::facing_ap(2.0, 0.0, 0.0);
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let fs = 1e8;
        let sig = Signal::tone(fs, f, 0.0, 1.0, 2000);
        let comp = tone(sig, f);
        let g_refl = static_gamma(true);
        let g_abs = static_gamma(false);
        let node_r = NodeInterface {
            pose,
            fsa: &fsa,
            gamma: g_refl,
        };
        let node_a = NodeInterface {
            pose,
            fsa: &fsa,
            gamma: g_abs,
        };
        let rx_r = render(&scene, &comp, std::slice::from_ref(&node_r), 0);
        let rx_a = render(&scene, &comp, std::slice::from_ref(&node_a), 0);
        let pr: f64 = rx_r.samples[100..].iter().map(|c| c.norm_sq()).sum();
        let pa: f64 = rx_a.samples[100..].iter().map(|c| c.norm_sq()).sum();
        let contrast = ratio_to_db(pr / pa);
        // |Γ| 0.94 vs 0.05 → ~25 dB power contrast (with both ports equal).
        assert!(contrast > 20.0, "contrast {contrast} dB");
    }

    #[test]
    fn monostatic_power_matches_budget() {
        let scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        let pose = Pose::facing_ap(2.0, 0.0, 0.0);
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let fs = 1e8;
        let comp = tone(Signal::tone(fs, f, 0.0, 1.0, 4000), f);
        // Only port A reflective, |Γ| = 1, port B perfectly absorbing.
        let g = [Cpx::new(-1.0, 0.0), Cpx::new(0.0, 0.0)];
        let node = NodeInterface {
            pose,
            fsa: &fsa,
            gamma: g,
        };
        let rx = render(&scene, &comp, std::slice::from_ref(&node), 0);
        let p: f64 =
            rx.samples[200..].iter().map(|c| c.norm_sq()).sum::<f64>() / (rx.len() - 200) as f64;
        let expected = scene.tone_backscatter_gain(&pose, &fsa, Port::A, f, 0);
        assert!((p / expected - 1.0).abs() < 0.1, "p {p} vs {expected}");
    }

    #[test]
    fn clutter_adds_static_return() {
        let mut scene = Scene::free_space();
        scene.clutter.push(Reflector {
            position: Point::new(4.0, 0.0),
            rcs: 1.0,
        });
        let fsa = DualPortFsa::milback();
        // Node far off to the side so its return is negligible.
        let pose = Pose::facing_ap(2.0, deg_to_rad(80.0), 0.0);
        let f = 28e9;
        let comp = tone(Signal::tone(1e8, f, 0.0, 1.0, 2000), f);
        let g = static_gamma(false);
        let node = NodeInterface {
            pose,
            fsa: &fsa,
            gamma: g,
        };
        let rx = render(&scene, &comp, std::slice::from_ref(&node), 0);
        let p: f64 =
            rx.samples[100..].iter().map(|c| c.norm_sq()).sum::<f64>() / (rx.len() - 100) as f64;
        assert!(p > 1e-12, "clutter return missing: {p}");
    }

    #[test]
    fn self_interference_dominates_when_enabled() {
        let mut scene = Scene::free_space();
        scene.self_interference_db = Some(-45.0);
        let fsa = DualPortFsa::milback();
        let pose = Pose::facing_ap(8.0, 0.0, 0.0);
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let comp = tone(Signal::tone(1e8, f, 0.0, 1.0, 2000), f);
        let g = static_gamma(true);
        let node = NodeInterface {
            pose,
            fsa: &fsa,
            gamma: g,
        };
        let rx = render(&scene, &comp, std::slice::from_ref(&node), 0);
        let p: f64 =
            rx.samples[100..].iter().map(|c| c.norm_sq()).sum::<f64>() / (rx.len() - 100) as f64;
        // −45 dB self-interference >> node return at 8 m (≈ −90 dB).
        assert!(ratio_to_db(p) > -50.0, "{} dB", ratio_to_db(p));
    }

    #[test]
    fn multi_node_capture_is_sum_of_singles() {
        // Channel linearity: two nodes rendered together equal the sum of
        // each rendered alone (minus one copy of the static paths).
        let scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        let pose1 = Pose::facing_ap(2.0, deg_to_rad(-10.0), 0.0);
        let pose2 = Pose::facing_ap(4.0, deg_to_rad(15.0), 0.0);
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let comp = tone(Signal::tone(1e8, f, 0.0, 1.0, 1000), f);
        let g1 = static_gamma(true);
        let g2 = static_gamma(true);
        let n1 = NodeInterface {
            pose: pose1,
            fsa: &fsa,
            gamma: g1,
        };
        let n2 = NodeInterface {
            pose: pose2,
            fsa: &fsa,
            gamma: g2,
        };
        let both = render(&scene, &comp, &[n1, n2], 0);
        let g1 = static_gamma(true);
        let g2 = static_gamma(true);
        let n1 = NodeInterface {
            pose: pose1,
            fsa: &fsa,
            gamma: g1,
        };
        let n2 = NodeInterface {
            pose: pose2,
            fsa: &fsa,
            gamma: g2,
        };
        let a = render(&scene, &comp, std::slice::from_ref(&n1), 0);
        let b = render(&scene, &comp, std::slice::from_ref(&n2), 0);
        for i in 0..both.len() {
            let want = a.samples[i] + b.samples[i]; // static paths are zero in free space
            assert!((both.samples[i] - want).abs() < 1e-15, "sample {i}");
        }
    }

    #[test]
    fn accumulate_backscatter_matches_multi_render_bitwise() {
        // The interference hook (target rendered, then a neighbor layered
        // in) must equal rendering both nodes through the multi path —
        // same cache keys, same table replay, bit for bit.
        let mut scene = Scene::milback_indoor();
        let fsa = DualPortFsa::milback();
        let target = Pose::facing_ap(2.0, deg_to_rad(-4.0), deg_to_rad(10.0));
        let neighbor = Pose::facing_ap(2.4, deg_to_rad(6.0), deg_to_rad(12.0));
        scene.steer_towards(&target.position);
        let cfg = ChirpConfig::milback_sawtooth();
        let comp = TxComponent {
            signal: cfg.sawtooth(),
            sweep: cfg,
        };
        let wave_fp = crate::workspace::wave_fingerprint(&comp);
        let g_t = static_gamma(true);
        let g_n = static_gamma(false);
        let node_t = NodeInterface {
            pose: target,
            fsa: &fsa,
            gamma: g_t,
        };
        let node_n = NodeInterface {
            pose: neighbor,
            fsa: &fsa,
            gamma: g_n,
        };
        for rx_idx in 0..2 {
            let mut ws = crate::workspace::ChannelWorkspace::default();
            let mut composed = Signal::zeros(comp.signal.fs, comp.signal.fc, comp.signal.len());
            scene.monostatic_rx_multi_into(
                &mut ws,
                &comp,
                wave_fp,
                std::slice::from_ref(&node_t),
                rx_idx,
                &mut composed,
            );
            scene.accumulate_backscatter_into(
                &mut ws,
                &comp,
                wave_fp,
                &node_n,
                rx_idx,
                &mut composed,
            );
            let joint = scene.monostatic_rx_multi_uncached(
                &comp,
                &[
                    NodeInterface {
                        pose: target,
                        fsa: &fsa,
                        gamma: g_t,
                    },
                    NodeInterface {
                        pose: neighbor,
                        fsa: &fsa,
                        gamma: g_n,
                    },
                ],
                rx_idx,
            );
            assert_eq!(composed.samples, joint.samples, "rx {rx_idx} diverged");
        }
    }

    #[test]
    fn steered_away_node_is_suppressed() {
        let mut scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        let on_beam = Pose::facing_ap(3.0, 0.0, 0.0);
        let off_beam = Pose::facing_ap(3.0, deg_to_rad(30.0), 0.0);
        scene.steer_towards(&on_beam.position);
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let g_on = scene.tone_backscatter_gain(&on_beam, &fsa, Port::A, f, 0);
        let g_off = scene.tone_backscatter_gain(&off_beam, &fsa, Port::A, f, 0);
        // Two horn passes of ≥20 dB suppression each.
        assert!(
            ratio_to_db(g_on / g_off) > 35.0,
            "{} dB",
            ratio_to_db(g_on / g_off)
        );
    }

    #[test]
    fn mirror_rcs_peaks_at_center() {
        let m = MirrorReflection::milback();
        let at_center = m.rcs_at(m.center);
        assert_eq!(at_center, m.peak_rcs);
        assert!(m.rcs_at(m.center + deg_to_rad(10.0)) < 0.01 * m.peak_rcs);
    }

    #[test]
    fn rx_antennas_see_phase_difference() {
        let scene = Scene::free_space();
        let fsa = DualPortFsa::milback();
        // Node off boresight → path difference between the two RX antennas.
        let phi = deg_to_rad(20.0);
        let pose = Pose::facing_ap(3.0, phi, 0.0);
        let f = fsa.frequency_for_angle(Port::A, 0.0).unwrap();
        let comp = tone(Signal::tone(1e8, f, 0.0, 1.0, 1000), f);
        let g = static_gamma(true);
        let node = NodeInterface {
            pose,
            fsa: &fsa,
            gamma: g,
        };
        let rx0 = render(&scene, &comp, std::slice::from_ref(&node), 0);
        let rx1 = render(&scene, &comp, std::slice::from_ref(&node), 1);
        let dphi = (rx0.samples[500] * rx1.samples[500].conj()).arg();
        // Expected phase difference: 2π·d_ant·sin(φ)/λ.
        let d_ant = scene.rx_pos[0].distance_to(&scene.rx_pos[1]);
        let lambda = SPEED_OF_LIGHT / f;
        let expected = 2.0 * PI * d_ant * phi.sin() / lambda;
        assert!(
            (dphi - expected).abs() < 0.05,
            "measured {dphi}, expected {expected}"
        );
    }
}
