//! Telemetry aggregation invariants under the parallel batch engine.
//!
//! The registry shards per worker thread and merges shards with
//! commutative, order-independent integer arithmetic, so the
//! deterministic subset of a snapshot (everything except `.ns` wall-clock
//! spans, `.local` per-thread caches, and gauges) must come out identical
//! whether a batch ran with one worker (`MILBACK_THREADS=1` equivalent)
//! or many. This file is the acceptance test for that contract, and
//! for the meaning of the work counters (one `dsp.fft.size` sample per
//! transform, one `node.adc.reads` per ADC read a Field-1 reception
//! evaluates, one `dsp.noise.variates` count per normal variate
//! computed).

use milback::batch::{derive_seed, par_map_with_threads};
use milback::chaos::{chaos_sweep_with_threads, ChaosPoint};
use milback::{serve, Fidelity, Network, Session, SessionConfig, SessionCtx};
use milback_ap::RangeProcessor;
use milback_proto::packet::Packet;
use milback_rf::geometry::{deg_to_rad, Pose};
use milback_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard};

/// Every test here mutates the process-global registry and enabled
/// flag, so they must not interleave.
fn registry_lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// One full-stack trial: localization, then a downlink and an uplink
/// transfer, so the snapshot covers dsp, ap, node, proto and core.
fn full_stack_trial(&seed: &u64, index: usize) -> u64 {
    let phi = deg_to_rad((index as f64 % 13.0) - 6.0);
    let pose = Pose::facing_ap(2.5, phi, deg_to_rad(8.0));
    let mut net = Network::new(pose, Fidelity::Fast, seed);
    let fix = net.localize().map(|f| f.range.to_bits()).unwrap_or(0);
    let payload: Vec<u8> = (0..6u8).map(|i| i * 37 + index as u8).collect();
    let dl = net.downlink(&payload, 1e6, true);
    let ul = net.uplink(&payload, 5e6, true);
    fix ^ dl.map(|r| r.bit_errors as u64).unwrap_or(u64::MAX)
        ^ ul.map(|r| r.bit_errors as u64).unwrap_or(u64::MAX)
}

/// Runs the same batch with `threads` workers and returns the
/// deterministic view of the resulting snapshot.
fn run_and_snapshot(threads: usize) -> telemetry::Snapshot {
    telemetry::reset();
    let seeds: Vec<u64> = (0..6).map(|i| derive_seed(0xDECAF, i)).collect();
    let results = par_map_with_threads(&seeds, threads, full_stack_trial);
    assert_eq!(results.len(), 6);
    telemetry::snapshot().deterministic_view()
}

#[test]
fn parallel_and_serial_telemetry_totals_agree() {
    let _gate = registry_lock();
    telemetry::set_enabled(true);

    let serial = run_and_snapshot(1);

    // The serial baseline must actually have seen the pipeline: every
    // instrumented layer contributes at least one counter.
    for prefix in ["dsp.", "ap.", "node.", "proto.", "core."] {
        assert!(
            serial
                .counters
                .keys()
                .chain(serial.histograms.keys())
                .any(|k| k.starts_with(prefix)),
            "serial snapshot has no metrics from the `{prefix}` layer"
        );
    }

    for threads in [2, 4] {
        let parallel = run_and_snapshot(threads);
        assert_eq!(
            serial.counters, parallel.counters,
            "counter totals differ between 1 and {threads} worker threads"
        );
        assert_eq!(
            serial.histograms, parallel.histograms,
            "histogram totals differ between 1 and {threads} worker threads"
        );
    }
}

#[test]
fn disabled_pipeline_records_nothing() {
    let _gate = registry_lock();
    telemetry::set_enabled(false);
    telemetry::reset();
    let pose = Pose::facing_ap(2.0, 0.0, 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, 7);
    let _ = net.localize();
    let snap = telemetry::snapshot();
    assert!(snap.counters.is_empty(), "disabled run recorded counters");
    assert!(
        snap.histograms.is_empty(),
        "disabled run recorded histograms"
    );
    telemetry::set_enabled(true);
}

fn chaos_points() -> Vec<ChaosPoint> {
    vec![
        ChaosPoint {
            intensity: 0.6,
            range_m: 2.0,
        },
        ChaosPoint {
            intensity: 0.9,
            range_m: 2.5,
        },
    ]
}

/// The telemetry deterministic views of a serial and a parallel chaos
/// run are byte-identical: fault and recovery counters depend only on
/// the injected schedule, not on thread interleaving.
#[test]
fn chaos_telemetry_views_are_byte_identical() {
    let _gate = registry_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);

    telemetry::reset();
    let serial = chaos_sweep_with_threads(&chaos_points(), 2, 0xC4A1, 1);
    let view_serial = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::reset();
    let parallel = chaos_sweep_with_threads(&chaos_points(), 2, 0xC4A1, 4);
    let view_parallel = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::set_enabled(was);
    assert_eq!(serial, parallel, "outcomes diverged");
    assert_eq!(view_serial, view_parallel, "deterministic views diverged");
}

/// `dsp.fft.size` records one sample per transform: a localization
/// burst runs one range FFT per windowed range spectrum (five chirps ×
/// two antennas), and each of them is counted.
#[test]
fn localize_records_one_fft_sample_per_range_spectrum() {
    let _gate = registry_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    let pose = Pose::facing_ap(2.5, 0.0, deg_to_rad(8.0));
    let mut net = Network::new(pose, Fidelity::Fast, 0xF17);
    telemetry::reset();
    let fix = net.localize();
    let snap = telemetry::snapshot();
    telemetry::set_enabled(was);

    assert!(fix.is_some(), "no fix at 2.5 m");
    let spectra = snap.counters.get("ap.dechirp.spectra").copied();
    let ffts = snap.histograms.get("dsp.fft.size").map(|h| h.count);
    assert_eq!(spectra, Some(10), "five chirps x two antennas");
    assert_eq!(ffts, spectra, "dsp.fft.size must count every range FFT");
}

/// A range profile is one padded-gather FFT (`FftPlan::forward_padded_into`):
/// each call records one `dsp.fft.size` sample at the full transform
/// length and one `ap.dechirp.spectra` count, whatever band it keeps.
#[test]
fn padded_range_transform_records_one_fft_sample_and_one_spectrum() {
    let _gate = registry_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    let chirp = Fidelity::Fast.sawtooth();
    let proc = RangeProcessor::new(chirp, 2);
    let tx = chirp.sawtooth();
    let rx = tx.delayed(20e-9);
    let mut dechirped = Vec::new();
    proc.dechirp_into(&rx, &tx, &mut dechirped);
    assert!(dechirped.len() < proc.fft_len, "input is not zero-padded");
    let (mut fft_buf, mut profile) = (Vec::new(), Vec::new());
    let bands = [1, 930, proc.fft_len];
    telemetry::reset();
    for bins in bands {
        proc.range_profile_into(&dechirped, bins, &mut fft_buf, &mut profile);
    }
    let snap = telemetry::snapshot();
    telemetry::set_enabled(was);

    let calls = bands.len() as u64;
    let spectra = snap.counters.get("ap.dechirp.spectra").copied();
    assert_eq!(spectra, Some(calls), "one spectrum count per transform");
    let ffts = snap
        .histograms
        .get("dsp.fft.size")
        .map(|h| (h.count, h.sum));
    let points = u128::from(calls) * proc.fft_len as u128;
    assert_eq!(
        ffts,
        Some((calls, points)),
        "one full-length sample per transform"
    );
}

/// Only Field 2 repeats a waveform within a packet, so only Field 2
/// renders through the channel caches. Once one ctx has localized each
/// of four roster networks, alternating uplink and downlink sessions on
/// them, each planning fresh carriers from its own Field-2 sense, miss
/// no ray table and no static response: their Field-1, port and
/// capture renders are one-shot. A payload render that went through the
/// caches would miss four of each per uplink and evict the Field-2
/// entries the next session reads.
#[test]
fn payload_renders_leave_the_field2_caches_alone() {
    let _gate = registry_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    let session = Session::new(SessionConfig::milback());
    let mut ctx = SessionCtx::new();
    let mut nets: Vec<Network> = serve::roster(4, 0x5E55_0001)
        .into_iter()
        .zip(0xCA5E..)
        .map(|(pose, seed)| Network::new(pose, Fidelity::Fast, seed))
        .collect();
    for net in &mut nets {
        assert!(session.localize_in(&mut ctx, net).fix.is_some());
    }
    telemetry::reset();
    for k in 0..8 {
        let payload = vec![k as u8; 16];
        let packet = if (k + k / 4) % 2 == 0 {
            Packet::uplink(payload)
        } else {
            Packet::downlink(payload)
        };
        let report = session.run_in(&mut ctx, &mut nets[k % 4], &packet, false);
        assert!(report.is_ok(), "session {k} ({:?}) failed", packet.mode);
    }
    let snap = telemetry::snapshot();
    telemetry::set_enabled(was);

    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let misses = (
        count("rf.ray.cache.miss.local"),
        count("rf.scene.cache.miss.local"),
    );
    assert_eq!(misses, (0, 0), "(ray, static) misses after warm-up");
    // Five chirps × two antennas per session, every one a hit.
    assert_eq!(count("rf.ray.cache.hit.local"), 8 * 10, "ray hits");
}

/// The Field-2 work ledger: a session renders one Field-2 burst and
/// reads both the fix and the AP orientation from it, then plans its
/// carriers once; a shed session renders none. Per clean session that
/// is one `core.network.field2.render` and `dsp.fft.size` summing
/// 180,224 points: 10 range transforms of 16,384 (5 chirps × 2
/// antennas) plus one 16,384-point orientation gate. A session that
/// rendered Field 2 again for the orientation and once more per payload
/// attempt would count 3 renders and 524,288 points here.
#[test]
fn field2_renders_once_per_session() {
    let _gate = registry_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
    let mut net = Network::new(pose, Fidelity::Fast, 0xF2F2);
    let session = Session::new(SessionConfig::milback());
    let mut ctx = SessionCtx::new();
    let mut work = |net: &mut Network, packet: &Packet, shed: bool| {
        telemetry::reset();
        let report = session.run_in(&mut ctx, net, packet, shed);
        assert!(
            report.is_ok(),
            "{:?} exchange (shed {shed}) failed",
            packet.mode
        );
        let snap = telemetry::snapshot();
        let renders = snap.counters.get("core.network.field2.render").copied();
        let points = snap.histograms.get("dsp.fft.size").map(|h| h.sum);
        (renders.unwrap_or(0), points.unwrap_or(0))
    };
    let downlink = Packet::downlink((0..16).collect());
    let uplink = Packet::uplink(vec![0x3C; 16]);
    let clean = [
        work(&mut net, &downlink, false),
        work(&mut net, &uplink, false),
    ];
    let shed = work(&mut net, &downlink, true);
    telemetry::set_enabled(was);

    for (mode, counts) in ["downlink", "uplink"].iter().zip(clean) {
        assert_eq!(counts, (1, 180_224), "clean {mode} session");
    }
    assert_eq!(shed, (0, 0), "shed session rendered Field 2");
}

/// The noise ledger: `dsp.noise.variates` counts every normal variate
/// computed, so these literals fail on any host if a path starts
/// noising samples nobody reads.
///
/// - A warmed localization fix: 10 captures (5 chirps × 2 antennas) ×
///   6400 samples × 2 components, plus one trigger-jitter draw per
///   chirp.
/// - A Field-1 reception (both ports): 2 ports × 45 ADC instants over
///   the 45 µs chirp, each one evaluation of the detector law
///   (`node.adc.reads`) and one variate, and nothing at the chirp's
///   RF-span rate.
#[test]
fn noise_variates_are_pinned_per_fix_and_per_field1_reception() {
    let _gate = registry_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    let pose = Pose::facing_ap(2.5, 0.0, deg_to_rad(8.0));
    let mut net = Network::new(pose, Fidelity::Fast, 0x1ED6);
    let work = |net: &mut Network, run: fn(&mut Network) -> bool| {
        assert!(run(net), "warm-up failed");
        telemetry::reset();
        assert!(run(net), "counted run failed");
        let snap = telemetry::snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (count("dsp.noise.variates"), count("node.adc.reads"))
    };
    let (fix, _) = work(&mut net, |net| net.localize().is_some());
    let (field1, reads) = work(&mut net, |net| net.field1_node_captures().is_some());
    telemetry::set_enabled(was);

    let capture = Fidelity::Fast.sawtooth().n_samples() as u64;
    assert_eq!(capture, 6400);
    assert_eq!(fix, 10 * capture * 2 + 5, "variates per warmed fix");
    assert_eq!(fix, 128_005);

    let chirp = Fidelity::Fast.packet().field1_chirp;
    let instants = (chirp.duration * net.node.adc.sample_rate).floor() as u64;
    assert_eq!(instants, 45);
    assert_eq!(
        reads,
        2 * instants,
        "detector-law reads per Field-1 reception"
    );
    assert_eq!(field1, reads, "variates per Field-1 reception");
    assert_eq!(field1, 90);
}

/// The link's work ledger: a 16-byte transfer at 1 Msym/s renders its
/// payload at the receivers' detection bandwidth, so these literals fail
/// on any host if a transfer goes back to RF-span samples or noises
/// samples nobody reads (`core.link.{downlink,uplink}.samples`,
/// `dsp.noise.variates`).
///
/// - Downlink (dual-tone): 4 pilot + 72 frame symbols (16 bytes + CRC,
///   2 bits each) at the 72 MS/s video rate (2 × 36 MHz), two ports,
///   one real variate per video sample.
/// - Uplink (dual-tone): the same 76 symbols plus 2 × 6 guard symbols
///   at 8 samples per symbol, two branches, one complex variate (2
///   components) per branch sample.
#[test]
fn link_work_is_pinned_per_transfer() {
    let _gate = registry_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
    let mut net = Network::new(pose, Fidelity::Fast, 0x1ED7);
    let work = |net: &mut Network, run: fn(&mut Network) -> bool, samples: &str| {
        assert!(run(net), "warm-up failed");
        telemetry::reset();
        assert!(run(net), "counted run failed");
        let snap = telemetry::snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (count(samples), count("dsp.noise.variates"))
    };
    let downlink = work(
        &mut net,
        |net| net.downlink(&[0xA5; 16], 1e6, true).is_some(),
        "core.link.downlink.samples",
    );
    let uplink = work(
        &mut net,
        |net| net.uplink(&[0xA5; 16], 1e6, true).is_some(),
        "core.link.uplink.samples",
    );
    telemetry::set_enabled(was);

    let symbols = 4 + 72;
    assert_eq!(
        downlink,
        (2 * symbols * 72, 2 * symbols * 72),
        "downlink work"
    );
    assert_eq!(downlink, (10_944, 10_944));
    let branch = (symbols + 12) * 8;
    assert_eq!(uplink, (2 * branch, 2 * 2 * branch), "uplink work");
    assert_eq!(uplink, (1_408, 2_816));
}

/// A silent Field-1 slot is a reception of a zero port power: it counts
/// what a lit reception over the same window counts, one detector-law
/// read and one variate per ADC instant, at any window length.
#[test]
fn silence_counts_the_variates_of_sampling_a_zero_video() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let _gate = registry_lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    let node = milback_node::BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0));
    let work = |p: f64, duration: f64| {
        telemetry::reset();
        node.receive(duration, |_| p, &mut StdRng::seed_from_u64(1));
        let snap = telemetry::snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (count("dsp.noise.variates"), count("node.adc.reads"))
    };
    for (duration, instants) in [(45e-6, 45), (7.5e-6, 7), (0.5e-6, 0)] {
        assert_eq!(
            work(0.0, duration),
            (instants, instants),
            "silence over {duration} s"
        );
        assert_eq!(
            work(1e-6, duration),
            (instants, instants),
            "a lit port over {duration} s"
        );
    }
    telemetry::set_enabled(was);
}
