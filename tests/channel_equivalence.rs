//! Bitwise equivalence of the cached channel-synthesis path
//! (`Scene::monostatic_rx_multi_into` + `ChannelWorkspace`, DESIGN.md
//! §13) against the one-shot reference
//! (`Scene::monostatic_rx_multi_uncached`), plus the content-fingerprint
//! invalidation rules: any static-scene or node-geometry change must be
//! reflected on the very next render, with no stale cache reuse. The
//! node's Γ (one per render, DESIGN.md §13.1) is outside every key.

use milback::{Fidelity, Network};
use milback_dsp::chirp::ChirpConfig;
use milback_dsp::num::Cpx;
use milback_dsp::signal::Signal;
use milback_hw::switch::{SpdtSwitch, SwitchState};
use milback_rf::channel::{NodeInterface, Reflector, Scene, TxComponent};
use milback_rf::fsa::DualPortFsa;
use milback_rf::geometry::{deg_to_rad, Point, Pose};
use milback_rf::{wave_fingerprint, ChannelWorkspace};

/// A short Field-2-style chirp (800 samples) so each uncached reference
/// render stays cheap.
fn test_component() -> TxComponent {
    let cfg = ChirpConfig {
        f_start: 27.5e9,
        f_stop: 28.5e9,
        duration: 0.5e-6,
        fs: 1.6e9,
        amplitude: 1.0,
    };
    TxComponent {
        signal: cfg.sawtooth(),
        sweep: cfg,
    }
}

/// `[Γ_A, Γ_B]` through the prototype switch with port A on the given
/// throw and port B parked absorptive — the shape of a Field-2 chirp.
fn chirp_gamma(port_a: SwitchState) -> [Cpx; 2] {
    let switch = SpdtSwitch::adrf5020();
    [switch.gamma(port_a), switch.gamma(SwitchState::Absorptive)]
}

fn render_cached(
    ws: &mut ChannelWorkspace,
    scene: &Scene,
    comp: &TxComponent,
    nodes: &[NodeInterface<'_>],
    rx_idx: usize,
) -> Signal {
    let mut out = Signal::zeros(comp.signal.fs, comp.signal.fc, 0);
    scene.monostatic_rx_multi_into(ws, comp, wave_fingerprint(comp), nodes, rx_idx, &mut out);
    out
}

/// The cached path must be bitwise identical to the uncached reference on
/// every scene variant — clutter on/off, mirror on/off, self-interference
/// on/off — at both RX antennas, with two SDM nodes in the scene, both on
/// the cold first render and on the warm replay.
#[test]
fn cached_render_matches_uncached_across_scene_variants() {
    let comp = test_component();
    let fsa = DualPortFsa::milback();
    let pose_a = Pose::facing_ap(3.0, deg_to_rad(5.0), deg_to_rad(8.0));
    let pose_b = Pose::facing_ap(4.5, deg_to_rad(-10.0), 0.0);
    let nodes = [
        NodeInterface {
            pose: pose_a,
            fsa: &fsa,
            gamma: chirp_gamma(SwitchState::Reflective),
        },
        NodeInterface {
            pose: pose_b,
            fsa: &fsa,
            gamma: chirp_gamma(SwitchState::Absorptive),
        },
    ];

    let mut indoor = Scene::milback_indoor();
    indoor.steer_towards(&pose_a.position);
    let mut no_mirror = indoor.clone();
    no_mirror.mirror = None;
    let mut no_clutter = indoor.clone();
    no_clutter.clutter.clear();
    let mut bare = Scene::free_space();
    bare.steer_towards(&pose_a.position);

    let mut ws = ChannelWorkspace::default();
    for (name, scene) in [
        ("indoor", &indoor),
        ("no_mirror", &no_mirror),
        ("no_clutter", &no_clutter),
        ("free_space", &bare),
    ] {
        for rx_idx in 0..2 {
            let reference = scene.monostatic_rx_multi_uncached(&comp, &nodes, rx_idx);
            let cold = render_cached(&mut ws, scene, &comp, &nodes, rx_idx);
            assert_eq!(
                reference.samples, cold.samples,
                "{name} rx{rx_idx}: cold cached render diverged"
            );
            let warm = render_cached(&mut ws, scene, &comp, &nodes, rx_idx);
            assert_eq!(
                reference.samples, warm.samples,
                "{name} rx{rx_idx}: warm cached render diverged"
            );
        }
    }
}

/// Γ is deliberately outside the cache keys (it is replayed on every
/// render): the chirps of a burst, port A reflective, absorptive, then
/// reflective again, must reuse the hoisted tables yet each produce its
/// own correct output.
#[test]
fn gamma_runs_are_applied_per_render_not_cached() {
    let comp = test_component();
    let fsa = DualPortFsa::milback();
    let pose = Pose::facing_ap(3.0, 0.0, deg_to_rad(5.0));
    let mut scene = Scene::milback_indoor();
    scene.steer_towards(&pose.position);

    let mut ws = ChannelWorkspace::default();
    let mut chirps = Vec::new();
    for (chirp, throw) in [
        SwitchState::Reflective,
        SwitchState::Absorptive,
        SwitchState::Reflective,
    ]
    .into_iter()
    .enumerate()
    {
        let node = NodeInterface {
            pose,
            fsa: &fsa,
            gamma: chirp_gamma(throw),
        };
        let cached = render_cached(&mut ws, &scene, &comp, std::slice::from_ref(&node), 0);
        let reference = scene.monostatic_rx_multi_uncached(&comp, std::slice::from_ref(&node), 0);
        assert_eq!(reference.samples, cached.samples, "chirp {chirp} diverged");
        chirps.push(cached);
    }
    assert_ne!(
        chirps[0].samples, chirps[1].samples,
        "distinct Γ must yield distinct renders"
    );
    assert_eq!(
        chirps[0].samples, chirps[2].samples,
        "the same Γ must yield the same render"
    );
}

/// Moving the node or re-steering the AP mid-burst must invalidate the
/// cached tables: the next render equals a fresh uncached render of the
/// new geometry and differs from the stale one.
#[test]
fn scene_and_node_mutations_invalidate_the_cache() {
    let comp = test_component();
    let fsa = DualPortFsa::milback();
    let gamma = chirp_gamma(SwitchState::Reflective);
    let pose0 = Pose::facing_ap(3.0, 0.0, deg_to_rad(5.0));
    let mut scene = Scene::milback_indoor();
    scene.steer_towards(&pose0.position);

    let mut ws = ChannelWorkspace::default();
    let node0 = NodeInterface {
        pose: pose0,
        fsa: &fsa,
        gamma,
    };
    let before = render_cached(&mut ws, &scene, &comp, std::slice::from_ref(&node0), 0);

    // Node moves: new pose must be re-synthesized, not replayed.
    let pose1 = Pose::facing_ap(3.4, deg_to_rad(7.0), deg_to_rad(5.0));
    let node1 = NodeInterface {
        pose: pose1,
        fsa: &fsa,
        gamma,
    };
    let moved = render_cached(&mut ws, &scene, &comp, std::slice::from_ref(&node1), 0);
    let moved_ref = scene.monostatic_rx_multi_uncached(&comp, std::slice::from_ref(&node1), 0);
    assert_eq!(
        moved_ref.samples, moved.samples,
        "post-move render is stale"
    );
    assert_ne!(before.samples, moved.samples, "node motion had no effect");

    // AP re-steers toward the new position: the static fingerprint
    // changes, so the clutter response must refresh, and the replay
    // must take the new horn gain.
    scene.steer_towards(&pose1.position);
    let steered = render_cached(&mut ws, &scene, &comp, std::slice::from_ref(&node1), 0);
    let steered_ref = scene.monostatic_rx_multi_uncached(&comp, std::slice::from_ref(&node1), 0);
    assert_eq!(
        steered_ref.samples, steered.samples,
        "post-steer render is stale"
    );
    assert_ne!(moved.samples, steered.samples, "re-steering had no effect");

    // Clutter mutation through the public field (no setter involved).
    scene.clutter.push(Reflector {
        position: Point::new(5.0, 0.5),
        rcs: 0.4,
    });
    let cluttered = render_cached(&mut ws, &scene, &comp, std::slice::from_ref(&node1), 0);
    let cluttered_ref = scene.monostatic_rx_multi_uncached(&comp, std::slice::from_ref(&node1), 0);
    assert_eq!(
        cluttered_ref.samples, cluttered.samples,
        "post-clutter-mutation render is stale"
    );
    assert_ne!(
        steered.samples, cluttered.samples,
        "added reflector had no effect"
    );

    // The original geometry still verifies after all the churn (it may
    // have been evicted, but never corrupted).
    let mut scene0 = Scene::milback_indoor();
    scene0.steer_towards(&pose0.position);
    let replay = render_cached(&mut ws, &scene0, &comp, std::slice::from_ref(&node0), 0);
    assert_eq!(
        before.samples, replay.samples,
        "original geometry corrupted"
    );
}

/// A scene edit other than the steer still reaches every cache that
/// reads it. From a warm workspace, each edit's next render equals the
/// uncached reference of the edited scene, differs from the warm render,
/// and adds exactly the entries the edit invalidates: a clutter edit a
/// static response only; an RX antenna move or a mirror edit a static
/// response and a ray table; a re-steer a static response only.
#[test]
fn scene_edits_other_than_the_steer_invalidate_what_they_reach() {
    type Edit = fn(&mut Scene);
    let comp = test_component();
    let fsa = DualPortFsa::milback();
    let pose = Pose::facing_ap(2.6, deg_to_rad(-4.0), deg_to_rad(-5.0));
    let gamma = chirp_gamma(SwitchState::Reflective);
    let node = NodeInterface {
        pose,
        fsa: &fsa,
        gamma,
    };
    let nodes = std::slice::from_ref(&node);
    let mut base = Scene::milback_indoor();
    base.steer_towards(&pose.position);

    // (name, edit, static responses added, ray tables added)
    let edits: [(&str, Edit, usize, usize); 4] = [
        ("clutter", |s| s.clutter[0].rcs *= 2.0, 1, 0),
        ("rx_pos", |s| s.rx_pos[0].y += 1e-3, 1, 1),
        (
            "mirror",
            |s| s.mirror.as_mut().unwrap().depth_offset += 0.4e-3,
            1,
            1,
        ),
        ("steer", |s| s.steer_towards(&Point::new(2.0, 0.4)), 1, 0),
    ];
    for (name, edit, statics, rays) in edits {
        let mut ws = ChannelWorkspace::default();
        let warm = render_cached(&mut ws, &base, &comp, nodes, 0);
        let warm_entries = ws.cached_entries();
        let mut scene = base.clone();
        edit(&mut scene);
        let edited = render_cached(&mut ws, &scene, &comp, nodes, 0);
        let reference = scene.monostatic_rx_multi_uncached(&comp, nodes, 0);
        assert_eq!(reference.samples, edited.samples, "{name}: stale render");
        assert_ne!(warm.samples, edited.samples, "{name}: edit had no effect");
        assert_eq!(
            ws.cached_entries() - warm_entries,
            statics + rays,
            "{name}: wrong cache entries rebuilt"
        );
    }
}

/// A Field-2 burst with parked neighbours, bit for bit, against a
/// reference composed in the pooled order: per chirp and antenna, the
/// target's one-shot render plus the neighbours' summed one-shot renders
/// (in a clutter- and leakage-free copy of the scene, so the sum holds
/// their returns alone), then the trigger jitter and the capture noise
/// drawn from a copy of the network's RNG in the network's order.
#[test]
fn parked_neighbour_burst_matches_the_pooled_composition() {
    use milback::Interferer;
    use milback_dsp::noise::{add_awgn, draw_normal, thermal_noise_power};
    use milback_node::node::BackscatterNode;

    let pose = Pose::facing_ap(2.2, deg_to_rad(-3.0), deg_to_rad(9.0));
    let mut net = Network::new(pose, Fidelity::Fast, 0x9A2C);
    for (range, az, facing) in [(2.6, 7.0, 12.0), (1.8, -11.0, -4.0), (3.3, 2.0, 3.0)] {
        let nb =
            BackscatterNode::milback(Pose::facing_ap(range, deg_to_rad(az), deg_to_rad(facing)));
        net.interferers.push(Interferer {
            pose: nb.pose,
            fsa: nb.fsa,
            gamma: nb.parked_gamma(),
        });
    }
    let mut rng = net.rng().clone();
    let n_chirps = 5;
    let (tx, captures) = net.field2_captures(n_chirps).expect("renderable");

    let mut cfg = net.fidelity.sawtooth();
    cfg.amplitude = net.ap.tx.amplitude();
    let comp = TxComponent {
        signal: cfg.sawtooth(),
        sweep: cfg,
    };
    assert_eq!(tx.samples, comp.signal.samples);
    let noise_p = thermal_noise_power(comp.signal.fs, net.ap.capture_nf_db);

    let neighbours: Vec<NodeInterface<'_>> = net
        .interferers
        .iter()
        .map(|itf| NodeInterface {
            pose: itf.pose,
            fsa: &itf.fsa,
            gamma: itf.gamma,
        })
        .collect();
    let mut returns_only = net.scene.clone();
    returns_only.clutter.clear();
    returns_only.self_interference_db = None;
    let sums = [0, 1].map(|ant| returns_only.monostatic_rx_multi_uncached(&comp, &neighbours, ant));

    for (i, pair) in captures.iter().enumerate() {
        let target = NodeInterface {
            pose: net.node.pose,
            fsa: &net.node.fsa,
            gamma: net.node.field2_gamma(i),
        };
        let jitter = draw_normal(&mut rng).abs() * net.ap.jitter_rms;
        for (ant, got) in pair.iter().enumerate() {
            let mut want =
                net.scene
                    .monostatic_rx_multi_uncached(&comp, std::slice::from_ref(&target), ant);
            for (s, p) in want.samples.iter_mut().zip(&sums[ant].samples) {
                *s += *p;
            }
            if jitter > 0.0 {
                want.delay_in_place(jitter);
            }
            add_awgn(&mut want, noise_p, &mut rng);
            assert_eq!(got.samples, want.samples, "chirp {i} rx{ant} diverged");
        }
    }
}

/// The one-shot render (`monostatic_rx_multi_uncached_into`) builds its
/// tables in the workspace's pooled scratch: through one scratch shared
/// by renders of other waveforms, lengths and scenes (mirror on and off),
/// each must equal the same render through a fresh workspace, and none
/// may leave a cache entry behind.
#[test]
fn one_shot_renders_through_a_shared_scratch_match_fresh_ones() {
    let fsa = DualPortFsa::milback();
    let pose = Pose::facing_ap(2.0, deg_to_rad(-3.0), deg_to_rad(12.0));
    let chirp = test_component();
    // A tone is the zero-span sweep.
    let tone = |f: f64, n| {
        let signal = Signal::tone(1.6e9, 28e9, f - 28e9, 0.7, n);
        let sweep = ChirpConfig {
            f_start: f,
            f_stop: f,
            ..chirp.sweep
        };
        TxComponent { signal, sweep }
    };
    let comps = [
        chirp.clone(),
        tone(27.9e9, 1_300),
        tone(28.3e9, 500),
        chirp.clone(),
    ];
    let mut shared = ChannelWorkspace::default();
    for (k, comp) in comps.iter().enumerate() {
        let mut scene = Scene::milback_indoor();
        if k % 2 == 1 {
            scene.mirror = None;
        }
        scene.steer_towards(&pose.position);
        let fresh = || Signal::new(1.0, 0.0, Vec::new());
        let gamma = chirp_gamma(SwitchState::Reflective);
        let node = NodeInterface {
            pose,
            fsa: &fsa,
            gamma,
        };
        for rx_idx in 0..2 {
            let mut got = fresh();
            let nodes = std::slice::from_ref(&node);
            scene.monostatic_rx_multi_uncached_into(&mut shared, comp, nodes, rx_idx, &mut got);
            let want = scene.monostatic_rx_multi_uncached(comp, nodes, rx_idx);
            assert_eq!(got.samples, want.samples, "render {k}: rx{rx_idx}");
            assert_eq!((got.fs, got.fc), (want.fs, want.fc));
        }
    }
    assert_eq!(
        shared.cached_entries(),
        0,
        "a one-shot render left a cache entry"
    );
}

/// Neither the gain-curve cache nor the ray tables key on the steer:
/// after a warm render at one steer, a render at another steer rebuilds
/// only the static responses, hits every ray table and every curve, and
/// must still equal the uncached per-point reference bit for bit (the
/// replay applies the new horn gain). The neighbours are chosen so a
/// key missing a field collides: one shares the target's pose (so its
/// incidence bits) on a different FSA, one shares the target's FSA at
/// another incidence.
#[test]
fn gain_curves_are_shared_across_steers_and_keyed_on_fsa_and_incidence() {
    use milback_rf::fsa::FsaConfig;
    use milback_telemetry as telemetry;

    let comp = test_component();
    let n = comp.signal.len();
    let fsa = DualPortFsa::milback();
    let other_fsa = DualPortFsa::new(FsaConfig {
        n_elements: 10,
        ..FsaConfig::milback()
    });
    let target = Pose::facing_ap(3.0, deg_to_rad(4.0), deg_to_rad(7.0));
    let gamma = chirp_gamma(SwitchState::Reflective);
    let parked = [Cpx::new(0.21, -0.05); 2];
    // (pose, FSA, Γ): the target first, then three parked neighbours.
    let nodes: [(Pose, &DualPortFsa, [Cpx; 2]); 4] = [
        (target, &fsa, gamma),
        (target, &other_fsa, parked),
        (
            Pose::facing_ap(2.4, deg_to_rad(-9.0), deg_to_rad(-11.0)),
            &fsa,
            parked,
        ),
        (
            Pose::facing_ap(4.2, deg_to_rad(13.0), deg_to_rad(2.0)),
            &other_fsa,
            parked,
        ),
    ];
    let interfaces = || nodes.map(|(pose, fsa, gamma)| NodeInterface { pose, fsa, gamma });

    telemetry::set_enabled(true);
    let hits = || {
        telemetry::snapshot()
            .counters
            .get("rf.gain.cache.hit.local")
            .copied()
            .unwrap_or(0)
    };
    let hits_before = hits();
    let mut ws = ChannelWorkspace::default();
    let mut entries = Vec::new();
    for steer_at in [target.position, Point::new(2.0, -1.5)] {
        let mut scene = Scene::milback_indoor();
        scene.steer_towards(&steer_at);
        for rx_idx in 0..2 {
            let fp = wave_fingerprint(&comp);
            let mut out = Signal::zeros(comp.signal.fs, comp.signal.fc, 0);
            let [target_if, neighbour_ifs @ ..] = interfaces();
            let target_only = std::slice::from_ref(&target_if);
            scene.monostatic_rx_multi_into(&mut ws, &comp, fp, target_only, rx_idx, &mut out);
            for node in &neighbour_ifs {
                scene.accumulate_backscatter_into(&mut ws, &comp, fp, node, rx_idx, &mut out);
            }
            let reference = scene.monostatic_rx_multi_uncached(&comp, &interfaces(), rx_idx);
            if let Some(i) = (0..n).find(|&i| out.samples[i] != reference.samples[i]) {
                panic!(
                    "steer at {steer_at:?} rx{rx_idx}: sample {i} is {:?}, reference {:?}",
                    out.samples[i], reference.samples[i]
                );
            }
        }
        entries.push(ws.cached_entries());
    }
    // The re-steer adds two static responses (one per antenna) but no
    // ray table and no gain curve.
    assert_eq!(
        entries[1] - entries[0],
        2,
        "re-steer rebuilt ray tables or gain curves"
    );
    assert!(hits() > hits_before, "no gain-curve cache hit was counted");
}
