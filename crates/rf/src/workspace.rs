//! Reusable channel-synthesis workspace: the Field-2 caches behind the
//! fast monostatic render path, and the pooled scratch every one-shot
//! render builds its tables in (DESIGN.md §13).
//!
//! A five-chirp Field-2 burst renders the *same* static scene (clutter
//! plus TX→RX leakage) and the *same* node geometry ten times (five
//! chirps × two RX antennas) — only the node's reflection-coefficient
//! schedule changes between chirps. The [`ChannelWorkspace`] caches
//! everything that depends purely on (scene, waveform, geometry):
//!
//! * the summed **static-scene response** per (scene, waveform, RX
//!   antenna) — reused across every chirp of a burst and across trials
//!   with unchanged geometry,
//! * per-node **ray tables** (delayed envelope + per-sample LUT
//!   amplitude products + round-trip phasor) per (antenna positions and
//!   mirror model, waveform, pose, FSA, RX antenna). They are built with
//!   unit AP horn gains and each replay multiplies in the current
//!   steer's `√(g_tx·g_rx)`, so a re-steer keeps them: the fabric's
//!   parked neighbours, re-steered past at every slot, are built once
//!   per round,
//! * per-(FSA, incidence, band) **gain curves**: both ports' FSA gain
//!   on the frequency-LUT grid, shared by every ray table built at that
//!   incidence — whatever the steer, the RX antenna or the waveform's
//!   samples.
//!
//! Only Field 2 repeats a waveform, so only its renders go through
//! these caches. The Field-1 render is one-shot (its video is kept by
//! the network): it builds its tables in the workspace's one pooled
//! scratch and leaves no cache entry behind. The payload never renders
//! here: both link directions work at the receivers' detection
//! bandwidth from the narrowband `Scene::tone_response` and
//! `Scene::tone_gain_to_port`.
//!
//! ## Invalidation
//!
//! `Scene` is a plain value with public fields — experiments mutate it
//! directly (`scene.clutter.push(..)`, `steer_towards`, node moves), so
//! a hidden mutation-counting generation number could not see every
//! edit. The generation counter is therefore a **content generation**:
//! [`Scene::static_fingerprint`](crate::channel::Scene::static_fingerprint)
//! folds every static-relevant field into an FNV-1a hash and keys the
//! static responses;
//! [`Scene::ray_fingerprint`](crate::channel::Scene::ray_fingerprint)
//! folds the fields a ray table reads (antenna positions, mirror model)
//! and keys the ray tables, next to waveform and geometry fingerprints.
//! A scene mutation changes the fingerprints of what it affects, which
//! misses the cache and rebuilds — no explicit invalidation hooks
//! needed, no way to forget one.
//!
//! ## Telemetry
//!
//! Each workspace warms on whatever its owner renders, and which pooled
//! workspace a session lands on depends on the thread schedule, so all
//! counters carry the `.local` suffix and are stripped from the
//! deterministic telemetry view (README §Observability):
//!
//! * `rf.scene.cache.hit.local` / `rf.scene.cache.miss.local` — static
//!   response lookups,
//! * `rf.ray.cache.hit.local` / `rf.ray.cache.miss.local` — node ray
//!   tables,
//! * `rf.gain.cache.hit.local` / `rf.gain.cache.miss.local` — FSA gain
//!   curves, looked up once per ray-table build.

use crate::channel::{FreqLut, RayTables, TxComponent};
use crate::fsa::DualPortFsa;
use crate::geometry::Pose;
use milback_dsp::num::Cpx;
use milback_telemetry as telemetry;

// ---------------------------------------------------------------------
// FNV-1a fingerprints
// ---------------------------------------------------------------------

/// Incremental FNV-1a over 64-bit words. Hashing whole `f64` bit
/// patterns (not bytes) keeps a 6 400-sample waveform fingerprint in
/// the ~10 µs range — negligible next to a render and amortized by the
/// callers that cache the result per burst.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    pub(crate) fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a transmitted component: sample rate, carrier,
/// sweep and every sample's bit pattern. Two components
/// with equal fingerprints render identically through the channel.
///
/// Only the Field-2 burst computes it: once per chirp config, kept with
/// the burst's component and passed to every cached render of it.
pub fn wave_fingerprint(comp: &TxComponent) -> u64 {
    let mut h = Fnv::new();
    h.f64(comp.signal.fs);
    h.f64(comp.signal.fc);
    let sweep = &comp.sweep;
    for f in [
        sweep.f_start,
        sweep.f_stop,
        sweep.duration,
        sweep.fs,
        sweep.amplitude,
    ] {
        h.f64(f);
    }
    h.word(comp.signal.len() as u64);
    for c in &comp.signal.samples {
        h.f64(c.re);
        h.f64(c.im);
    }
    h.finish()
}

/// Fingerprint of an FSA design (all [`crate::fsa::FsaConfig`] fields).
pub fn fsa_fingerprint(fsa: &DualPortFsa) -> u64 {
    let cfg = fsa.config();
    let mut h = Fnv::new();
    h.word(cfg.n_elements as u64);
    h.f64(cfg.spacing);
    h.f64(cfg.feed_length);
    h.word(cfg.harmonic as u64);
    h.f64(cfg.feed_loss_neper);
    h.f64(cfg.efficiency_db);
    h.f64(cfg.element.peak_dbi);
    h.f64(cfg.element.q);
    h.f64(cfg.element.floor_db);
    h.f64(cfg.f_lo);
    h.f64(cfg.f_hi);
    h.finish()
}

#[inline]
pub(crate) fn pose_bits(pose: &Pose) -> [u64; 3] {
    [
        pose.position.x.to_bits(),
        pose.position.y.to_bits(),
        pose.facing.to_bits(),
    ]
}

// ---------------------------------------------------------------------
// Cache keys and entries
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StaticKey {
    pub scene: u64,
    pub wave: u64,
    pub rx_idx: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RayKey {
    pub scene: u64,
    pub wave: u64,
    pub rx_idx: usize,
    pub pose: [u64; 3],
    pub fsa: u64,
}

/// Key of one gain-curve pair. The curve depends only on the FSA
/// design, the incidence angle and the swept band: not on the AP's
/// steer, the RX antenna, the node's range or the waveform samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CurveKey {
    pub fsa: u64,
    pub incidence: u64,
    pub f_lo: u64,
    pub f_hi: u64,
}

/// Both ports' gain curves, `[A, B]`, on the frequency-LUT grid.
pub(crate) type CurvePair = [Vec<f64>; 2];

struct Entry<K, V> {
    key: K,
    value: V,
    stamp: u64,
}

/// Tiny stamp-LRU: linear scan (a handful of entries), min-stamp
/// replacement when full. `hit`/`miss` name the telemetry counters.
pub(crate) struct Lru<K, V> {
    entries: Vec<Entry<K, V>>,
    cap: usize,
    clock: u64,
    hit: &'static str,
    miss: &'static str,
}

impl<K: PartialEq + Copy, V> Lru<K, V> {
    fn new(cap: usize, hit: &'static str, miss: &'static str) -> Self {
        Self {
            entries: Vec::new(),
            cap,
            clock: 0,
            hit,
            miss,
        }
    }

    pub(crate) fn get_or_build(&mut self, key: K, build: impl FnOnce() -> V) -> &V {
        self.clock += 1;
        let stamp = self.clock;
        let idx = match self.entries.iter().position(|e| e.key == key) {
            Some(i) => {
                telemetry::counter_add(self.hit, 1);
                self.entries[i].stamp = stamp;
                i
            }
            None => {
                telemetry::counter_add(self.miss, 1);
                let entry = Entry {
                    key,
                    value: build(),
                    stamp,
                };
                if self.entries.len() < self.cap {
                    self.entries.push(entry);
                    self.entries.len() - 1
                } else {
                    // `cap >= 1`, so a full cache always has an eviction
                    // victim; fall back to slot 0 rather than panicking.
                    let i = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.stamp)
                        .map_or(0, |(i, _)| i);
                    self.entries[i] = entry;
                    i
                }
            }
        };
        &self.entries[idx].value
    }
}

// ---------------------------------------------------------------------
// The workspace
// ---------------------------------------------------------------------

/// Caller-owned cache set for channel synthesis. Mirrors
/// `milback_ap::workspace::DspWorkspace`: this crate keeps no instance
/// of its own; the `milback` core's `SessionCtx` holds the one a
/// session renders through.
pub struct ChannelWorkspace {
    statics: Lru<StaticKey, Vec<Cpx>>,
    rays: Lru<RayKey, RayTables>,
    curves: GainCurves,
    pub(crate) scratch: RenderScratch,
}

/// The gain-curve cache, handed to ray-table builds so they read their
/// FSA gain points from it.
pub(crate) type GainCurves = Lru<CurveKey, CurvePair>;

/// The pooled buffers a render builds its tables in: one node's ray
/// tables for a one-shot monostatic render and the frequency LUTs (port
/// A, port B, mirror) of every table build. Rebuilt, never looked up, so
/// a one-shot render leaves nothing behind but capacity.
#[derive(Default)]
pub(crate) struct RenderScratch {
    pub rays: RayTables,
    pub luts: [FreqLut; 3],
}

impl ChannelWorkspace {
    /// An empty workspace; caches fill on first use.
    pub fn new() -> Self {
        Self {
            statics: Lru::new(8, "rf.scene.cache.hit.local", "rf.scene.cache.miss.local"),
            rays: Lru::new(16, "rf.ray.cache.hit.local", "rf.ray.cache.miss.local"),
            curves: Lru::new(16, "rf.gain.cache.hit.local", "rf.gain.cache.miss.local"),
            scratch: RenderScratch::default(),
        }
    }

    pub(crate) fn static_response(
        &mut self,
        key: StaticKey,
        build: impl FnOnce() -> Vec<Cpx>,
    ) -> &[Cpx] {
        self.statics.get_or_build(key, build)
    }

    /// The cached ray tables under `key`; a miss builds them with the
    /// gain-curve cache and the scratch LUTs.
    pub(crate) fn ray_tables(
        &mut self,
        key: RayKey,
        build: impl FnOnce(&mut GainCurves, &mut [FreqLut; 3]) -> RayTables,
    ) -> &RayTables {
        let (curves, luts) = (&mut self.curves, &mut self.scratch.luts);
        self.rays.get_or_build(key, || build(curves, luts))
    }

    /// Number of cached entries across all caches (test/diagnostic aid).
    pub fn cached_entries(&self) -> usize {
        self.statics.entries.len() + self.rays.entries.len() + self.curves.entries.len()
    }
}

impl Default for ChannelWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Scene, TxComponent};
    use milback_dsp::signal::Signal;

    #[test]
    fn lru_replaces_least_recently_used() {
        let mut lru: Lru<u64, u64> = Lru::new(2, "t.hit.local", "t.miss.local");
        lru.get_or_build(1, || 10);
        lru.get_or_build(2, || 20);
        lru.get_or_build(1, || 99); // hit: keeps 10
        assert_eq!(*lru.get_or_build(1, || 99), 10);
        lru.get_or_build(3, || 30); // evicts key 2, the least recently used
        assert_eq!(lru.entries.len(), 2);
        assert!(lru.entries.iter().any(|e| e.key == 1));
        assert!(lru.entries.iter().any(|e| e.key == 3));
    }

    #[test]
    fn wave_fingerprint_separates_contents_and_metadata() {
        let mk = |f_off: f64| TxComponent {
            signal: Signal::tone(1e8, 28e9, f_off, 1.0, 64),
            sweep: milback_dsp::chirp::ChirpConfig::milback_sawtooth(),
        };
        let a = wave_fingerprint(&mk(0.0));
        let b = wave_fingerprint(&mk(1e6));
        assert_ne!(a, b, "different samples must fingerprint differently");
        assert_eq!(a, wave_fingerprint(&mk(0.0)), "fingerprint must be stable");
    }

    /// The ray fingerprint ignores the steer and the horn patterns (the
    /// replay applies their gain) and follows the antenna positions and
    /// the mirror model.
    #[test]
    fn ray_fingerprint_is_steer_free() {
        let base = Scene::milback_indoor();
        let fp = base.ray_fingerprint();

        let mut steered = base.clone();
        steered.steer_towards(&crate::geometry::Point::new(3.0, 1.0));
        steered.tx_antenna.peak_dbi -= 3.0;
        steered.clutter.pop();
        steered.self_interference_db = None;
        assert_eq!(
            fp,
            steered.ray_fingerprint(),
            "steer, horn or clutter keyed"
        );

        let mut mirror_moved = base.clone();
        mirror_moved.mirror.as_mut().unwrap().depth_offset += 1e-3;
        assert_ne!(fp, mirror_moved.ray_fingerprint(), "mirror not covered");

        let mut no_mirror = base.clone();
        no_mirror.mirror = None;
        assert_ne!(
            fp,
            no_mirror.ray_fingerprint(),
            "mirror presence not covered"
        );

        let mut tx_moved = base.clone();
        tx_moved.tx_pos.x += 1e-4;
        assert_ne!(fp, tx_moved.ray_fingerprint(), "tx_pos not covered");

        let mut rx_moved = base;
        rx_moved.rx_pos[0].y += 1e-4;
        assert_ne!(fp, rx_moved.ray_fingerprint(), "rx_pos not covered");
    }

    #[test]
    fn scene_fingerprint_sees_every_static_field() {
        let base = Scene::milback_indoor();
        let fp = base.static_fingerprint();
        assert_eq!(fp, base.static_fingerprint(), "fingerprint must be stable");

        let mut steered = base.clone();
        steered.steer_towards(&crate::geometry::Point::new(3.0, 1.0));
        assert_ne!(fp, steered.static_fingerprint(), "steer not covered");

        let mut decluttered = base.clone();
        decluttered.clutter.pop();
        assert_ne!(fp, decluttered.static_fingerprint(), "clutter not covered");

        let mut no_si = base.clone();
        no_si.self_interference_db = None;
        assert_ne!(fp, no_si.static_fingerprint(), "SI not covered");

        let mut mirror_moved = base.clone();
        mirror_moved.mirror.as_mut().unwrap().depth_offset += 1e-3;
        assert_ne!(fp, mirror_moved.static_fingerprint(), "mirror not covered");

        let mut rx_moved = base;
        rx_moved.rx_pos[1].y += 1e-4;
        assert_ne!(fp, rx_moved.static_fingerprint(), "rx_pos not covered");
    }
}
