//! The workspace's check-and-gate harness: bitwise checks, determinism
//! legs and the CI kernel gate. A full run writes the next free
//! `BENCH_N.json` (or `--out path`), in run order:
//!
//! 1. bitwise checks, each panicking with the index of the first
//!    differing sample: the uplink receiver's decimating FIR on a real
//!    uplink capture against the full-rate filter plus stride; a cold
//!    fabric-style Field-2 burst (target plus three parked neighbours)
//!    against the uncached per-point-gain render; the gated localization
//!    burst with the two antennas' chains at once (the two-core helper
//!    claimed) against the same burst with every core occupied; the
//!    cached-plan FFT against an unplanned one; the waveform template
//!    against fresh synthesis; and the cached channel render (DESIGN.md
//!    §13) against the uncached reference at both RX antennas;
//! 2. three determinism legs, each run at one worker and at the host's
//!    thread count with identical outcomes and byte-identical telemetry
//!    deterministic views asserted: `chaos` (sessions under sampled fault
//!    plans, DESIGN.md §14), `serve` (a Poisson schedule past the virtual
//!    server's capacity, §15) and `net` (the 2-AP fabric density sweep
//!    with drift, handoffs and interference, §16);
//! 3. the two gated kernels on one core (DESIGN.md §17.3): the range FFT
//!    and the five-chirp localization burst, next to a calibration
//!    workload.
//!
//! `--smoke` shrinks every rep count (the asserts still run). Session
//! throughput and latency are measured end to end by the session
//! benchmark (`sessbench/`), not here.
//!
//! `--kernels-only` runs the gated kernels alone. With `--check-against
//! BENCH_N.json` it is the CI kernel gate: one warmed, untimed burst must
//! run the recorded number and total size of FFTs (a host-independent
//! work count), then the range FFT and the burst must be within 10% of
//! the baseline's timings, with up to two re-measures (DESIGN.md §17.3).
//!
//! `--leg <name>` runs one determinism leg; `--view <path>` writes its
//! deterministic view, which ci.sh compares across `MILBACK_THREADS=1`
//! and `=4`.
//!
//! With `MILBACK_TELEMETRY=1` (README §Observability) the registry is
//! reset before the gated kernels and their snapshot is embedded under
//! the report's `"telemetry"` key; otherwise it is `null`.
//!
//! Usage: `cargo run --release -p milback-bench --bin bench_engine
//! [-- --smoke] [-- --out path.json] [-- --leg <chaos|serve|net>
//! [--view path]] [-- --kernels-only [--check-against BENCH_N.json]]`.

use milback::batch;
use milback::chaos::{chaos_sweep_with_threads, default_points};
use milback::net::{density_sweep, DensityPoint, NetConfig};
use milback::serve::roster;
use milback::{Fidelity, Network, ServeConfig, ServeEngine, TrafficConfig, TrafficSchedule};
use milback_ap::uplink::{anti_alias_fir, UplinkReceiver};
use milback_ap::waveform::TxConfig;
use milback_ap::workspace::DspWorkspace;
use milback_ap::Localizer;
use milback_dsp::num::Cpx;
use milback_dsp::par;
use milback_dsp::plan::{with_plan, FftPlan};
use milback_dsp::signal::Signal;
use milback_dsp::template;
use milback_hw::switch::{SwitchSchedule, SwitchState};
use milback_node::node::fill_gamma_runs;
use milback_rf::channel::{FreqProfile, GammaRun, NodeInterface, TxComponent};
use milback_rf::geometry::{deg_to_rad, Pose};
use milback_rf::{wave_fingerprint, ChannelWorkspace};
use milback_telemetry as telemetry;
use std::fmt::Debug;
use std::path::Path;
use std::time::Instant;

/// Master seed of the checks and the gated kernels.
const SEED: u64 = 0xB16B_00B5;

/// Timing passes per gated kernel; the fastest pass is reported. Min-of-N
/// is the standard estimator for true kernel cost on a shared host —
/// external interference only ever adds time — and it is what keeps the
/// CI regression gate (`--check-against`) from flaking on scheduler
/// noise.
const TIMING_PASSES: usize = 3;

/// Runs `f` `reps` times per pass for `passes` passes and returns the
/// fastest pass's seconds per call.
fn time_calls(passes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// Asserts that `got` and `want` hold the same samples bit for bit
/// (`0.0` and `-0.0` differ) and panics with `what` and the index of
/// the first sample that differs.
fn assert_bitwise(what: &str, got: &[Cpx], want: &[Cpx]) {
    assert_eq!(got.len(), want.len(), "{what}: length differs");
    let bits = |c: &Cpx| (c.re.to_bits(), c.im.to_bits());
    if let Some(i) = got.iter().zip(want).position(|(a, b)| bits(a) != bits(b)) {
        let (got, want) = (got[i], want[i]);
        panic!("{what} diverged at sample {i}: {got:?} vs {want:?}");
    }
}

/// A finite float as 6-decimal JSON, `null` otherwise (bare `inf` or
/// `NaN` is not valid JSON).
fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Runs `run` at one worker and at `threads`, each after a telemetry
/// reset, and asserts that the two runs agree through `project` and
/// that their telemetry deterministic views are byte-identical. Returns
/// the one-worker outcome and the (shared) view. Resets telemetry;
/// callers run it outside the gated-kernel region.
fn serial_vs_parallel<T, K: PartialEq + Debug>(
    leg: &str,
    threads: usize,
    run: impl Fn(usize) -> T,
    project: impl Fn(&T) -> K,
) -> (T, String) {
    let side = |t| {
        telemetry::reset();
        let out = run(t);
        (out, telemetry::snapshot().deterministic_view().to_json(2))
    };
    let (serial, view) = side(1);
    let (parallel, parallel_view) = side(threads);
    assert_eq!(
        project(&serial),
        project(&parallel),
        "{leg} leg lost determinism across thread counts"
    );
    assert_eq!(
        view, parallel_view,
        "{leg} telemetry deterministic views diverged"
    );
    (serial, view)
}

/// Writes a leg's deterministic view to `path`, when one was given.
fn write_view(leg: &str, path: Option<&str>, view: &str) {
    if let Some(path) = path {
        std::fs::write(path, view)
            .unwrap_or_else(|e| panic!("failed to write {leg} deterministic view: {e}"));
        println!("{leg} leg: wrote deterministic view to {path}");
    }
}

/// The chaos leg (DESIGN.md §14): a small chaos sweep run serially and
/// in parallel, with per-trial outcomes and telemetry views compared.
/// Returns the JSON fragment for the report.
fn chaos_leg(smoke: bool, threads: usize, view_path: Option<&str>) -> String {
    let points = default_points();
    let trials = if smoke { 3 } else { 12 };
    let seed = 0xC4A0_5EED;

    let (outcomes, view) = serial_vs_parallel(
        "chaos",
        threads,
        |t| chaos_sweep_with_threads(&points, trials, seed, t),
        Clone::clone,
    );
    write_view("chaos", view_path, &view);

    let flat: Vec<_> = outcomes.iter().flatten().collect();
    let delivered = flat.iter().filter(|o| o.delivered).count();
    let fallbacks = flat.iter().filter(|o| o.fell_back).count();
    let failures = flat.iter().filter(|o| o.failure.is_some()).count();
    println!(
        "chaos leg: {} sessions ({} points x {trials} trials), {delivered} delivered, \
         {fallbacks} reduced-chirp fallbacks, {failures} typed failures",
        flat.len(),
        points.len(),
    );
    println!(
        "  deterministic at 1 and {threads} threads: outcomes identical, views byte-identical"
    );

    format!(
        "{{\n    \"workload\": \"supervised sessions under sampled fault plans, intensities 0.0/0.5/0.9\",\n    \"sessions\": {},\n    \"trials_per_point\": {trials},\n    \"delivered\": {delivered},\n    \"reduced_chirp_fallbacks\": {fallbacks},\n    \"typed_failures\": {failures},\n    \"outcomes_identical\": true,\n    \"views_byte_identical\": true\n  }}",
        flat.len(),
    )
}

/// The serving leg (DESIGN.md §15): a seeded Poisson schedule of mixed
/// sessions — offered load past the virtual server's capacity, so the
/// shedding policy engages — served by the work-stealing pool serially
/// and at `threads` workers, with resolution sequences, outcome digests
/// and telemetry views compared. Returns the JSON fragment for the
/// report.
fn serve_leg(smoke: bool, threads: usize, view_path: Option<&str>) -> String {
    let traffic = TrafficConfig {
        nodes: 4,
        sessions: if smoke { 24 } else { 160 },
        rate_hz: 60.0, // 1.8x the virtual service rate: shedding engages
        fault_intensity: 0.25,
        ..TrafficConfig::milback()
    };
    let seed = 0x5E12_F00D;
    let schedule = TrafficSchedule::generate(&traffic, seed);
    let poses = roster(traffic.nodes, seed);
    let cfg = ServeConfig::milback();

    let ((_, report), view) = serial_vs_parallel(
        "serve",
        threads,
        |t| {
            let mut engine = ServeEngine::new(&poses, cfg);
            let report = engine.serve_schedule(&schedule, t);
            (engine, report)
        },
        |(engine, report)| (engine.resolutions().to_vec(), report.outcome_digest),
    );
    write_view("serve", view_path, &view);

    println!(
        "serve leg: {} sessions, {} nodes, {:.0} Hz offered (load past capacity)",
        traffic.sessions, traffic.nodes, traffic.rate_hz
    );
    println!(
        "  outcomes: {} completed, {} failed, {} shed, {} field2-shed, {} rejected, depth peak {}",
        report.completed,
        report.failed,
        report.shed,
        report.field2_shed,
        report.rejected,
        report.max_depth
    );
    println!(
        "  deterministic at 1 and {threads} threads: resolutions identical, views byte-identical"
    );

    format!(
        "{{\n    \"workload\": \"mixed Poisson sessions through the work-stealing serving pool, offered load 1.8x virtual capacity, fault intensity 0.25\",\n    \"sessions\": {},\n    \"nodes\": {},\n    \"rate_hz\": {},\n    \"completed\": {},\n    \"failed\": {},\n    \"shed\": {},\n    \"field2_shed\": {},\n    \"rejected\": {},\n    \"depth_peak\": {},\n    \"outcome_digest\": \"{:#018x}\",\n    \"resolutions_identical\": true,\n    \"views_byte_identical\": true\n  }}",
        traffic.sessions,
        traffic.nodes,
        json_f(traffic.rate_hz),
        report.completed,
        report.failed,
        report.shed,
        report.field2_shed,
        report.rejected,
        report.max_depth,
        report.outcome_digest,
    )
}

/// The net leg (DESIGN.md §16): the dense-network fabric swept across
/// node densities — two APs, two slotted polling rounds per density,
/// per-round drift, handoffs and parked-neighbor interference — run
/// serially and at `threads` workers, with every deterministic
/// per-density field and the telemetry views compared. Its view is a
/// per-density table followed by the telemetry view. Reports aggregate
/// goodput per density.
fn net_leg(smoke: bool, threads: usize, view_path: Option<&str>) -> String {
    let densities: &[usize] = if smoke { &[4, 8, 16] } else { &[10, 100, 1000] };
    let (n_aps, spacing_m, rounds) = (2, 4.0, 2);
    let cfg = NetConfig {
        drift_step_m: 0.15,
        ..NetConfig::milback(Fidelity::Fast)
    };
    let seed = 0xDE4E_5EED;

    // One deterministic-view row per density; with the goodput's bits it
    // is what the serial and parallel sweeps must agree on.
    let row = |p: &DensityPoint| {
        format!(
            "nodes={} aps={} rounds={} sessions={} completed={} delivered={} fixes={} \
             handoffs={} overruns={} bits={} goodput_bps={} digest={:#018x}\n",
            p.nodes,
            p.aps,
            p.rounds,
            p.sessions,
            p.completed,
            p.delivered,
            p.fixes,
            p.handoffs,
            p.overruns,
            p.delivered_bits,
            json_f(p.goodput_bps),
            p.digest,
        )
    };
    let witness = |p: &DensityPoint| (row(p), p.goodput_bps.to_bits());
    let (sweep, view) = serial_vs_parallel(
        "net",
        threads,
        |t| density_sweep(densities, n_aps, spacing_m, rounds, cfg, seed, t),
        |points| points.iter().map(witness).collect::<Vec<_>>(),
    );

    let mut table = String::from("dense-network density sweep (deterministic view)\n");
    table.extend(sweep.iter().map(row));
    table.push_str(&view);
    write_view("net", view_path, &table);

    println!("net leg: {n_aps} APs, {rounds} rounds/density, densities {densities:?}");
    let mut points = Vec::new();
    for p in &sweep {
        println!(
            "  {} nodes: {:.0} bit/s goodput, {}/{} delivered, {} fixes, {} handoffs, \
             {} overruns",
            p.nodes, p.goodput_bps, p.delivered, p.sessions, p.fixes, p.handoffs, p.overruns
        );
        points.push(format!(
            "      {{\n        \"nodes\": {},\n        \"aps\": {},\n        \"rounds\": {},\n        \"sessions\": {},\n        \"completed\": {},\n        \"delivered\": {},\n        \"fixes\": {},\n        \"handoffs\": {},\n        \"overruns\": {},\n        \"delivered_bits\": {},\n        \"goodput_bps\": {},\n        \"digest\": \"{:#018x}\"\n      }}",
            p.nodes,
            p.aps,
            p.rounds,
            p.sessions,
            p.completed,
            p.delivered,
            p.fixes,
            p.handoffs,
            p.overruns,
            p.delivered_bits,
            json_f(p.goodput_bps),
            p.digest,
        ));
    }
    println!("  deterministic at 1 and {threads} threads: digests identical, views byte-identical");

    format!(
        "{{\n    \"workload\": \"dense-network fabric: slotted polling rounds across 2 APs with drift, handoffs and 3-neighbor interference\",\n    \"densities\": {densities:?},\n    \"rounds_per_density\": {rounds},\n    \"points\": [\n{}\n    ],\n    \"digests_identical\": true,\n    \"views_byte_identical\": true\n  }}",
        points.join(",\n"),
    )
}

/// The next free `BENCH_<n>.json` name in the working directory: one
/// past the highest existing index (starting at 1).
fn next_bench_path() -> String {
    let index = |name: &str| {
        name.strip_prefix("BENCH_")?
            .strip_suffix(".json")?
            .parse()
            .ok()
    };
    let entries = std::fs::read_dir(".").into_iter().flatten().flatten();
    let max: u64 = entries
        .filter_map(|e| index(e.file_name().to_str()?))
        .max()
        .unwrap_or(0);
    format!("BENCH_{}.json", max + 1)
}

/// Fixed pure-FP calibration workload, min-of-5 µs: a recurrence swept
/// over a 64 Ki buffer, independent of every library kernel. Its wall
/// time tracks host load and frequency scaling exactly like the gated
/// kernels do, so the CI regression gate compares kernel-to-calibration
/// *ratios* instead of absolute microseconds — shared-host interference
/// inflates both sides of the ratio and cancels, leaving only genuine
/// code slowdowns to trip the limit.
fn calibration_us() -> f64 {
    const N: usize = 1 << 16;
    const SWEEPS: usize = 16;
    let mut buf: Vec<f64> = (0..N).map(|i| (i as f64 * 0.001).sin()).collect();
    let best_s = time_calls(5, 1, || {
        for _ in 0..SWEEPS {
            let mut acc = 0.0f64;
            for v in buf.iter_mut() {
                *v = *v * 0.999 + 0.0007;
                acc += *v * *v;
            }
            std::hint::black_box(acc);
        }
        std::hint::black_box(&mut buf);
    });
    best_s * 1e6
}

/// A report section: `"name": {` its workload, then each `(key, JSON
/// value)` field in order `}`.
fn section_json(name: &str, workload: &str, fields: &[(&str, String)]) -> String {
    let mut out = format!("  \"{name}\": {{\n    \"workload\": \"{workload}\"");
    for (key, value) in fields {
        out.push_str(&format!(",\n    \"{key}\": {value}"));
    }
    out.push_str("\n  }");
    out
}

/// The two gated kernels' timings — the region that `--kernels-only`
/// runs on its own and that `--check-against` gates on.
struct CoreLegs {
    /// Calls per timing pass, in `GATED` order.
    reps: [usize; 2],
    /// The gated timings, in `GATED` order: range-FFT µs per call and
    /// burst ms per burst.
    gated: [f64; 2],
    /// Host-speed reference measured in the same invocation (min of a
    /// pass before the range FFT and one after the burst), µs.
    calib_us: f64,
}

/// The full run's report: the run's shape, the gated kernels with their
/// calibration, the determinism legs' JSON fragments (in `LEGS` order)
/// and the telemetry snapshot of the gated region (`null` when telemetry
/// is off). [`read_baseline`] reads the gated part back, so any report
/// can serve as a `--check-against` baseline.
fn report_json(
    bench: &str,
    threads: usize,
    smoke: bool,
    legs: &CoreLegs,
    leg_json: &[String; 3],
    telemetry_json: &str,
) -> String {
    let mut sections = vec![
        section_json(
            "timing_calibration",
            "fixed pure-FP recurrence; host-speed reference for the CI ratio gate",
            &[("calib_us", json_f(legs.calib_us))],
        ),
        section_json(
            "range_fft",
            "16384-point cached-plan FFT, forward_into a reused buffer",
            &[
                ("reps", legs.reps[0].to_string()),
                ("fast_us", json_f(legs.gated[0])),
            ],
        ),
        section_json(
            "localization_burst",
            "five-chirp Field-2 burst, 2 RX antennas, Fidelity::Fast",
            &[
                ("reps", legs.reps[1].to_string()),
                ("workspace_ms_per_burst", json_f(legs.gated[1])),
                ("deterministic", "true".to_string()),
            ],
        ),
    ];
    for ((name, _), json) in LEGS.iter().zip(leg_json) {
        sections.push(format!("  \"{name}\": {json}"));
    }
    sections.push(format!("  \"telemetry\": {telemetry_json}"));
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"description\": \"Range-FFT and five-chirp localization-burst kernel timings (the CI kernel gate) and the chaos, serve and net determinism legs\",\n  \"host_threads\": {threads},\n  \"smoke\": {smoke},\n{}\n}}\n",
        sections.join(",\n")
    )
}

/// Asserts, on a real [`Network::uplink`] capture, that every stage of
/// the uplink receiver's decimation cascade computed by
/// `Fir::decimate_into` is bitwise the full-rate anti-alias filter
/// followed by the stride. Returns the number of stages checked.
fn check_uplink_decimation(seed: u64) -> usize {
    let symbol_rate = 1e6;
    let pose = Pose::facing_ap(2.5, deg_to_rad(3.0), deg_to_rad(8.0));
    let mut net = Network::new(pose, Fidelity::Fast, seed);
    net.uplink(b"decimation check", symbol_rate, true)
        .expect("uplink tones");
    let [capture, _] = net.uplink_captures();
    let receiver = UplinkReceiver::milback(symbol_rate);
    let (mut fs, mut stream) = (capture.fs, capture.samples.clone());
    let (mut full, mut decimated) = (Vec::new(), Vec::new());
    let mut stages = 0;
    while let Some(factor) = receiver.decimation_factor(fs) {
        let new_fs = fs / factor as f64;
        let fir = anti_alias_fir(new_fs, fs);
        fir.apply_into(&stream, &mut full);
        fir.decimate_into(&stream, factor, &mut decimated);
        let strided: Vec<Cpx> = full.iter().step_by(factor).copied().collect();
        assert_bitwise(
            &format!(
                "uplink decimation stage {stages} (x{factor} from {fs} S/s) vs filter + stride"
            ),
            &decimated,
            &strided,
        );
        (fs, stream) = (new_fs, strided);
        stages += 1;
    }
    assert!(stages > 0, "uplink capture at {fs} S/s needs no decimation");
    stages
}

/// Asserts that a cold fabric-style Field-2 burst is bitwise the
/// uncached reference, and panics at the first sample that differs.
///
/// The burst is what a dense-network slot renders: five chirps × two
/// RX antennas of the target's localization return, with three parked
/// neighbours layered in per capture, through a fresh
/// [`ChannelWorkspace`]. Each capture is checked twice: the target's
/// own cached render (DESIGN.md §13), then the capture with the
/// neighbours added. Ray tables and gain curves are built cold and then
/// shared across chirps, antennas and nodes; the reference evaluates
/// every gain point per point. Returns the captures checked.
fn check_fabric_burst(seed: u64) -> usize {
    let poses = [
        Pose::facing_ap(3.2, deg_to_rad(-6.0), deg_to_rad(9.0)),
        Pose::facing_ap(2.6, deg_to_rad(4.0), deg_to_rad(-7.0)),
        Pose::facing_ap(4.1, deg_to_rad(-14.0), deg_to_rad(3.0)),
        Pose::facing_ap(3.6, deg_to_rad(11.0), deg_to_rad(15.0)),
    ];
    let net = Network::new(poses[0], Fidelity::Fast, seed);
    let mut cfg = net.fidelity.sawtooth();
    cfg.amplitude = net.ap.tx.amplitude();
    let comp = TxComponent {
        signal: cfg.sawtooth(),
        profile: FreqProfile::Sawtooth(cfg),
    };
    let fp = wave_fingerprint(&comp);
    let (fs, n) = (comp.signal.fs, comp.signal.len());
    // The target runs its localization modulation (port A square wave,
    // port B absorptive); the cache never keys on Γ, so its runs are
    // replayed on every render, hit or miss. The neighbours sit parked.
    let sched_a = SwitchSchedule::SquareWave {
        freq_hz: net.fidelity.localization_mod_freq(),
        first: SwitchState::Reflective,
    };
    let sched_b = SwitchSchedule::Constant(SwitchState::Absorptive);
    let gamma = |state| net.node.switch.gamma(state);
    let parked = [GammaRun {
        end: n,
        gamma: net.node.parked_gamma(),
    }];
    let mut cw = ChannelWorkspace::default();
    let mut out = Signal::zeros(fs, comp.signal.fc, 0);
    let mut runs = Vec::new();
    let mut captures = 0;
    for chirp in 0..5 {
        let t_off = chirp as f64 * cfg.duration;
        fill_gamma_runs(&sched_a, &sched_b, gamma, t_off, fs, n, &mut runs);
        let all: [NodeInterface; 4] = std::array::from_fn(|i| NodeInterface {
            pose: poses[i],
            fsa: &net.node.fsa,
            gamma: if i == 0 { &runs } else { &parked },
        });
        let (target, neighbours) = all.split_at(1);
        for ant in 0..2 {
            let what = |nodes| {
                format!("cold fabric burst chirp {chirp} antenna {ant}, {nodes} vs uncached")
            };
            net.scene
                .monostatic_rx_multi_into(&mut cw, &comp, fp, target, ant, &mut out);
            let reference = net.scene.monostatic_rx_multi_uncached(&comp, target, ant);
            assert_bitwise(&what("target alone"), &out.samples, &reference.samples);
            for nb in neighbours {
                net.scene
                    .accumulate_backscatter_into(&mut cw, &comp, fp, nb, ant, &mut out);
            }
            let reference = net.scene.monostatic_rx_multi_uncached(&comp, &all, ant);
            assert_bitwise(&what("all 4 nodes"), &out.samples, &reference.samples);
            captures += 1;
        }
    }
    captures
}

/// Asserts that an 8192-point FFT through the per-thread plan cache, on
/// the call that builds the plan and on one that reuses it, is bitwise
/// the same transform as a plan built for the call alone (the twiddle
/// and bit-reversal tables rebuilt, as before the cache).
fn check_fft_plan() {
    let n = 8192;
    let input: Vec<Cpx> = (0..n)
        .map(|i| Cpx::cis(i as f64 * 0.37) * (1.0 + (i as f64 * 0.01).sin()))
        .collect();
    let unplanned = FftPlan::new(n).forward(&input);
    for call in 0..2 {
        let planned = with_plan(n, |p| p.forward(&input));
        assert_bitwise(&format!("planned FFT (call {call})"), &planned, &unplanned);
    }
}

/// Asserts that the waveform template cache returns the Field-2 chirp
/// bitwise as fresh synthesis makes it, on the fetch that fills the
/// cache and on one that hits it.
fn check_waveform_template() {
    let tx_cfg = TxConfig::milback();
    let mut cfg = Fidelity::Fast.sawtooth();
    cfg.fs = tx_cfg.fs;
    cfg.amplitude = tx_cfg.amplitude();
    let fresh = cfg.sawtooth();
    for fetch in 0..2 {
        let cached = template::sawtooth(&cfg);
        assert_bitwise(
            &format!("waveform template (fetch {fetch})"),
            &cached.samples,
            &fresh.samples,
        );
    }
}

/// The gated localization burst's inputs: five chirps × two antennas
/// rendered once for a node at 3 m, and the localizer that processes
/// them.
fn burst_fixture(seed: u64) -> (Localizer, Signal, Vec<[Signal; 2]>) {
    let pose = Pose::facing_ap(3.0, deg_to_rad(5.0), 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, seed ^ 0xBEEF);
    let (tx, captures) = net.field2_captures(5);
    (net.localizer(), tx, captures)
}

/// `dsp.fft.size` (count, sum) of one gated localization burst: one
/// 16384-point range FFT per chirp and antenna.
const BURST_FFT_WORK: (u64, u128) = (10, 163_840);

/// The kernel gate's host-independent half: one warmed, untimed gated
/// burst with telemetry switched on must run exactly the recorded
/// number and total size of FFTs. Wall clocks swing with host load;
/// this count does not.
fn check_burst_fft_work(seed: u64) {
    let (localizer, tx, captures) = burst_fixture(seed);
    let mut ws = DspWorkspace::new();
    localizer.process_with(&mut ws, &tx, &captures);
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::reset();
    localizer.process_with(&mut ws, &tx, &captures);
    let snap = telemetry::snapshot();
    telemetry::set_enabled(was);
    let fft = snap.histograms.get("dsp.fft.size");
    let work = fft.map(|h| (h.count, h.sum));
    assert_eq!(
        work,
        Some(BURST_FFT_WORK),
        "gated burst's dsp.fft.size (count, sum) moved"
    );
    println!("burst fft work: (transforms, points) = {BURST_FFT_WORK:?}, as recorded");
}

/// Asserts that the gated localization burst with the two antennas'
/// chains at once (the `par` helper claimed when a core is idle,
/// DESIGN.md §17.4) is bitwise the same burst with every core counted
/// busy, which runs them in turn: every banded difference of both
/// antennas, at the first differing sample, then the fix. Returns
/// whether a core was idle for the helper (never on a 1-core host).
fn check_two_core_burst(seed: u64) -> bool {
    let (localizer, tx, captures) = burst_fixture(seed);
    let idle_core = par::claim().is_some();
    let mut at_once = DspWorkspace::new();
    let fix_at_once = localizer.process_with(&mut at_once, &tx, &captures);
    let mut in_turn = DspWorkspace::new();
    let fix_in_turn = {
        let _busy = par::occupy(par::cores());
        localizer.process_with(&mut in_turn, &tx, &captures)
    };
    for (ant, (a, b)) in at_once.antennas.iter().zip(&in_turn.antennas).enumerate() {
        assert_eq!(
            a.diffs.len(),
            b.diffs.len(),
            "antenna {ant}: diff count differs"
        );
        for (pair, (got, want)) in a.diffs.iter().zip(&b.diffs).enumerate() {
            assert_bitwise(
                &format!("two-core burst antenna {ant} diff {pair} vs one core"),
                got,
                want,
            );
        }
    }
    assert_eq!(fix_at_once, fix_in_turn, "two-core burst fix differs");
    idle_core
}

/// Times the two gated kernels on one core: the range FFT and the
/// five-chirp localization burst, each min-of-`TIMING_PASSES`, between
/// two calibration samples. Asserts that the burst's fix does not move
/// across reps.
fn core_legs(smoke: bool, seed: u64) -> CoreLegs {
    // The committed baselines time one core: with every core counted
    // busy, no noise fill or receive chain claims the two-core helper
    // (DESIGN.md §17.4) while these legs run.
    let _one_core = par::occupy(par::cores());
    // Host-speed reference, sampled next to the kernel timings so both
    // sit in the same interference window (windows on the shared host
    // last seconds; a second sample after the burst takes the min).
    let mut calib_us = calibration_us();

    // Range FFT at the pipeline's true size (fft_len = pad × chirp len,
    // rounded up), into a reused buffer.
    let fft_reps = if smoke { 5 } else { 100 };
    let fft_n = milback_ap::RangeProcessor::new(Fidelity::Fast.sawtooth(), 2).fft_len;
    let fft_input: Vec<Cpx> = (0..fft_n)
        .map(|i| Cpx::cis(i as f64 * 0.11) * (i as f64 * 0.003).cos())
        .collect();
    let mut fft_buf = Vec::new();
    let fft_s = time_calls(TIMING_PASSES, fft_reps, || {
        with_plan(fft_n, |p| p.forward_into(&fft_input, &mut fft_buf));
        std::hint::black_box(&fft_buf);
    });
    println!(
        "range fft ({fft_n}-point, {fft_reps} reps): {:.1} µs",
        fft_s * 1e6
    );

    // The five-chirp localization burst through the workspace pipeline,
    // with the plan cache and the workspace buffers warmed first.
    let burst_reps = if smoke { 3 } else { 40 };
    let (localizer, burst_tx, burst_caps) = burst_fixture(seed);
    let mut ws = DspWorkspace::new();
    let burst_ref = localizer.process_with(&mut ws, &burst_tx, &burst_caps);
    let mut burst_out = burst_ref;
    let burst_s = time_calls(TIMING_PASSES, burst_reps, || {
        burst_out = localizer.process_with(&mut ws, &burst_tx, &burst_caps);
    });
    assert_eq!(burst_out, burst_ref, "burst output moved across reps");
    println!(
        "localization burst (5 chirps x 2 antennas, {burst_reps} reps): {:.2} ms/burst",
        burst_s * 1e3
    );
    calib_us = calib_us.min(calibration_us());

    CoreLegs {
        reps: [fft_reps, burst_reps],
        gated: [fft_s * 1e6, burst_s * 1e3],
        calib_us,
    }
}

/// Extracts the first JSON number following `"field":` after the first
/// occurrence of `"section"` in `text`. Good enough for the baseline
/// files this binary writes itself; not a general JSON parser.
fn json_number_after(text: &str, section: &str, field: &str) -> Option<f64> {
    let sec = text.find(&format!("\"{section}\""))?;
    let rest = &text[sec..];
    let f = rest.find(&format!("\"{field}\""))?;
    let rest = &rest[f..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The CI regression gate's limit: a gated timing fails when it is more
/// than this fraction slower than the committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.10;

/// The timings the regression gate compares: (report section, field,
/// label, unit).
const GATED: [(&str, &str, &str, &str); 2] = [
    ("range_fft", "fast_us", "range_fft fast path", "us"),
    (
        "localization_burst",
        "workspace_ms_per_burst",
        "localization burst (workspace)",
        "ms",
    ),
];

/// Reads the gated timings and the calibration time (if recorded) from
/// the baseline at `path`, or says why it cannot: an unreadable file or
/// a missing field is not a regression and is not retried.
fn read_baseline(path: &str) -> Result<([f64; 2], Option<f64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut gated = [0.0; 2];
    for (value, (section, field, ..)) in gated.iter_mut().zip(GATED) {
        *value = json_number_after(&text, section, field)
            .ok_or_else(|| format!("{section}.{field} missing from {path}"))?;
    }
    Ok((
        gated,
        json_number_after(&text, "timing_calibration", "calib_us"),
    ))
}

/// Whether the gated timings of `legs` are within `REGRESSION_TOLERANCE`
/// of the baseline's, printing the mode and one verdict per timing.
fn within_limits(path: &str, (base, base_calib): ([f64; 2], Option<f64>), legs: &CoreLegs) -> bool {
    // When the baseline recorded a calibration time, gate on the kernel-
    // to-calibration ratio: absolute wall clocks on the shared CI host
    // swing 2x with neighbor load, but the fixed calibration workload
    // (see `calibration_us`) inflates right alongside the kernels, so
    // the ratio isolates genuine code slowdowns. Baselines without the
    // field fall back to absolute times.
    let (cur_div, base_div) = match base_calib {
        Some(bc) if bc > 0.0 && legs.calib_us > 0.0 => {
            println!(
                "regression check: calibration-normalized (baseline calib {bc:.1} us, \
                 current calib {:.1} us)",
                legs.calib_us
            );
            (legs.calib_us, bc)
        }
        _ => {
            println!(
                "regression check: raw wall clock ({path} has no \
                 timing_calibration.calib_us)"
            );
            (1.0, 1.0)
        }
    };
    let within = [0, 1].map(|i| {
        let ((_, _, name, unit), base, current) = (GATED[i], base[i], legs.gated[i]);
        let cur_n = current / cur_div;
        let base_n = base / base_div;
        let limit = base_n * (1.0 + REGRESSION_TOLERANCE);
        let verdict = if cur_n <= limit { "ok" } else { "REGRESSED" };
        println!(
            "regression check: {name}: {current:.3} {unit} (normalized {cur_n:.4}) vs \
             baseline {base:.3} {unit} (normalized {base_n:.4}, limit {limit:.4}) -- {verdict}"
        );
        cur_n <= limit
    });
    within == [true; 2]
}

/// The CI regression gate: reads the baseline at `path`, compares the
/// `measured` legs (or, without them, a fresh measurement) against it
/// and exits 1 if either gated timing regressed. Shared-host
/// interference windows last several seconds and can inflate a whole
/// invocation (even the normalized ratio moves when a neighbor evicts
/// the kernels' working set), so a timing over the limit is re-measured
/// up to twice: a real regression fails every time, a noisy window lands
/// clean on a retry. A baseline that cannot be read fails at once,
/// before anything is timed.
fn regression_gate(path: &str, smoke: bool, measured: Option<CoreLegs>) {
    let fail = |why: &str| -> ! {
        eprintln!("regression check FAILED against {path}{why}");
        std::process::exit(1);
    };
    let base = read_baseline(path).unwrap_or_else(|e| fail(&format!(": {e}")));
    let mut ok = within_limits(
        path,
        base,
        &measured.unwrap_or_else(|| core_legs(smoke, SEED)),
    );
    for attempt in 2..=3 {
        if ok {
            break;
        }
        println!(
            "regression check failed; re-measuring (attempt {attempt}/3) to rule out host noise"
        );
        ok = within_limits(path, base, &core_legs(smoke, SEED));
    }
    if !ok {
        fail("");
    }
    println!("regression check passed against {path}");
}

/// A determinism leg: `(smoke, threads, view path) -> JSON fragment`.
type Leg = fn(bool, usize, Option<&str>) -> String;

/// The determinism legs, in the order a full run takes them.
const LEGS: [(&str, Leg); 3] = [("chaos", chaos_leg), ("serve", serve_leg), ("net", net_leg)];

/// The parsed command line.
#[derive(Default)]
struct Args {
    out: Option<String>,
    smoke: bool,
    leg: Option<Leg>,
    view: Option<String>,
    kernels_only: bool,
    check_against: Option<String>,
}

/// Parses the arguments after the program name. A value flag without its
/// value, an unknown flag, `--view` without `--leg` and `--leg` with
/// `--kernels-only` are usage errors.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => args.out = Some(value()?),
            "--smoke" => args.smoke = true,
            "--leg" => {
                let name = value()?;
                let leg = LEGS.iter().find(|(n, _)| *n == name);
                let err = || format!("--leg takes one of chaos|serve|net, got {name:?}");
                args.leg = Some(leg.ok_or_else(err)?.1);
            }
            "--view" => args.view = Some(value()?),
            "--kernels-only" => args.kernels_only = true,
            "--check-against" => args.check_against = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (&args.leg, &args.view, args.kernels_only) {
        (None, Some(_), _) => Err("--view needs --leg".into()),
        (Some(_), _, true) => Err("--leg and --kernels-only cannot be combined".into()),
        _ => Ok(args),
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("bench_engine: {msg}");
        std::process::exit(2);
    });
    let smoke = args.smoke;

    // The gated kernels on their own: the CI regression gate runs this
    // at full rep counts (stable timings) without paying for the checks
    // and the determinism legs.
    if args.kernels_only {
        check_burst_fft_work(SEED);
        match &args.check_against {
            Some(baseline) => regression_gate(baseline, smoke, None),
            None => drop(core_legs(smoke, SEED)),
        }
        return;
    }

    let threads = batch::thread_count();

    // One leg on its own: the cross-process determinism check ci.sh
    // runs at 1 and at 4 worker threads.
    if let Some(run) = args.leg {
        run(smoke, threads, args.view.as_deref());
        return;
    }
    let out_path = args.out.unwrap_or_else(next_bench_path);
    let bench_name = Path::new(&out_path)
        .file_stem()
        .map_or("BENCH".into(), |s| s.to_string_lossy().into_owned());

    let stages = check_uplink_decimation(SEED);
    println!(
        "uplink decimation: {stages} stages of a real capture, decimate_into bitwise \
         identical to filter + stride"
    );
    let captures = check_fabric_burst(SEED);
    println!(
        "fabric burst: {captures} cold captures of a target alone and with 3 parked \
         neighbours, bitwise identical to the uncached reference"
    );
    let helper = check_two_core_burst(SEED);
    println!(
        "two-core burst: antennas at once (helper claimable: {helper}) bitwise identical \
         to antennas in turn"
    );
    check_fft_plan();
    check_waveform_template();
    println!("caches: planned FFT and waveform template bitwise identical to their references");

    // The determinism legs first: each resets telemetry for its own
    // serial/parallel view comparison, so they have to run before (not
    // inside) the gated region below.
    let leg_json = LEGS.map(|(_, run)| run(smoke, threads, None));

    // The telemetry snapshot should describe the gated region only.
    telemetry::reset();
    let legs = core_legs(smoke, SEED);
    // Indent the snapshot to sit one level deep in the output object.
    let telemetry_json = if telemetry::enabled() {
        telemetry::snapshot().to_json(2).replace('\n', "\n  ")
    } else {
        "null".to_string()
    };

    let json = report_json(
        &bench_name,
        threads,
        smoke,
        &legs,
        &leg_json,
        &telemetry_json,
    );
    std::fs::write(&out_path, &json).expect("failed to write benchmark JSON");
    println!("wrote {out_path}");

    if let Some(baseline) = &args.check_against {
        regression_gate(baseline, smoke, Some(legs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline the CI kernel gate reads.
    const BENCH_6: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    #[should_panic(expected = "probe diverged at sample 1: ")]
    fn bitwise_check_names_the_first_differing_sample_and_splits_signed_zeros() {
        let want = [Cpx::new(1.0, 2.0), Cpx::new(0.0, 0.0), Cpx::new(3.0, 4.0)];
        let mut got = want;
        got[1].im = -0.0;
        got[2].re = 3.5;
        assert_bitwise("probe", &got, &want);
    }

    #[test]
    fn bitwise_check_passes_identical_samples() {
        let samples = [Cpx::new(-0.0, f64::NAN), Cpx::new(1e-300, -7.0)];
        assert_bitwise("probe", &samples, &samples);
    }

    #[test]
    #[should_panic(expected = "probe: length differs")]
    fn bitwise_check_rejects_a_length_mismatch() {
        assert_bitwise("probe", &[Cpx::new(1.0, 0.0)], &[]);
    }

    #[test]
    fn json_f_prints_null_for_non_finite_values() {
        assert_eq!(json_f(f64::NAN), "null");
        assert_eq!(json_f(f64::INFINITY), "null");
        assert_eq!(json_f(f64::NEG_INFINITY), "null");
        assert_eq!(json_f(-1.25), "-1.250000");
    }

    #[test]
    fn json_number_after_reads_the_gated_fields_of_the_committed_baseline() {
        let text = std::fs::read_to_string(BENCH_6).expect("BENCH_6.json");
        assert_eq!(
            json_number_after(&text, "range_fft", "fast_us"),
            Some(93.01574)
        );
        let burst = json_number_after(&text, "localization_burst", "workspace_ms_per_burst");
        assert_eq!(burst, Some(2.13585));
        assert_eq!(
            json_number_after(&text, "timing_calibration", "calib_us"),
            None
        );
        assert_eq!(read_baseline(BENCH_6), Ok(([93.01574, 2.13585], None)));
    }

    #[test]
    fn a_full_run_report_reads_back_as_a_baseline() {
        let legs = CoreLegs {
            reps: [100, 40],
            gated: [97.015625, 2.4375],
            calib_us: 812.5,
        };
        let leg_json = LEGS.map(|(name, _)| format!("{{\"leg\": \"{name}\"}}"));
        let report = report_json("BENCH_0", 2, false, &legs, &leg_json, "null");
        let name = format!("bench_engine_report_{}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, &report).expect("write the report");
        let back = read_baseline(path.to_str().expect("UTF-8 temp path"));
        std::fs::remove_file(&path).expect("remove the report");
        assert_eq!(back, Ok((legs.gated, Some(legs.calib_us))), "{report}");
        assert_eq!(json_number_after(&report, "range_fft", "reps"), Some(100.0));
    }

    #[test]
    fn unreadable_or_incomplete_baselines_are_reported_not_retried() {
        let missing = read_baseline("no/such/BENCH_0.json").unwrap_err();
        assert!(
            missing.starts_with("cannot read no/such/BENCH_0.json"),
            "{missing}"
        );
        let bench_1 = BENCH_6.replace("BENCH_6", "BENCH_1");
        let incomplete = read_baseline(&bench_1).unwrap_err();
        assert!(
            incomplete.starts_with("range_fft.fast_us missing from"),
            "{incomplete}"
        );
    }

    #[test]
    fn a_value_flag_without_its_value_is_a_usage_error() {
        for flag in ["--out", "--view", "--check-against", "--leg"] {
            let err = parse(&["--smoke", flag]).err();
            assert_eq!(err, Some(format!("{flag} needs a value")));
        }
        let err = parse(&["--kernels-only", "--check-against"]).err();
        assert_eq!(err.as_deref(), Some("--check-against needs a value"));
    }

    #[test]
    fn leg_and_kernels_only_cannot_be_combined() {
        let err = parse(&["--kernels-only", "--leg", "chaos"]).err();
        assert_eq!(
            err.as_deref(),
            Some("--leg and --kernels-only cannot be combined")
        );
    }

    #[test]
    fn unknown_flags_legs_and_a_view_without_a_leg_are_usage_errors() {
        assert!(parse(&["--fast"]).is_err());
        assert!(parse(&["--leg", "cfar"]).is_err());
        assert!(parse(&["--leg", "adaptive"]).is_err());
        assert!(parse(&["--view", "v.txt"]).is_err());
    }

    #[test]
    fn the_ci_invocations_parse() {
        let gate = parse(&["--kernels-only", "--check-against", "BENCH_6.json"]).unwrap();
        assert!(gate.kernels_only && gate.leg.is_none());
        assert_eq!(gate.check_against.as_deref(), Some("BENCH_6.json"));
        let smoke = parse(&["--smoke", "--out", "target/b.json"]).unwrap();
        assert!(smoke.smoke && !smoke.kernels_only);
        assert_eq!(smoke.out.as_deref(), Some("target/b.json"));
        for (name, _) in LEGS {
            let leg = parse(&["--smoke", "--leg", name, "--view", "v.txt"]).unwrap();
            assert!(leg.leg.is_some());
            assert_eq!(leg.view.as_deref(), Some("v.txt"));
        }
    }
}
