//! The workspace's timing harness. Writes the next free `BENCH_N.json`
//! (or `--out path`), in run order:
//!
//! 1. bitwise checks, each panicking with the index of the first
//!    differing sample: the uplink receiver's decimating FIR on a real
//!    uplink capture against the full-rate filter plus stride, and a cold
//!    fabric-style Field-2 burst (target plus three parked neighbours)
//!    against the uncached per-point-gain render, and the gated
//!    localization burst with the two antennas' chains at once (the
//!    two-core helper claimed) against the same burst with every core
//!    occupied;
//! 2. four determinism legs, each run at one worker and at the host's
//!    thread count with identical outcomes and byte-identical telemetry
//!    deterministic views asserted: `chaos` (sessions under sampled fault
//!    plans, DESIGN.md §14), `serve` (a Poisson schedule past the virtual
//!    server's capacity, §15, plus a steady-state epoch whose heap
//!    allocations are counted), `net` (the 2-AP fabric density sweep with
//!    drift, handoffs and interference, §16) and `adaptive` (the
//!    adaptive-vs-fixed scenario sweep, §18; full runs require adaptive to
//!    win under at least three scenarios and write
//!    `results/adaptive_chaos.{csv,txt}`);
//! 3. the batch engine at one worker against the host's thread count on
//!    the Fig. 12a localization trial;
//! 4. the transform core: the cached-plan FFT against an unplanned one,
//!    `dechirp_into` and `forward_into` at the range-FFT size, waveform
//!    synthesis against a template fetch, and the five-chirp localization
//!    burst with its heap allocations (DESIGN.md §12);
//! 5. channel synthesis: the cached workspace render against the uncached
//!    reference (DESIGN.md §13), as one render and as a Field-2 burst,
//!    then the warm end-to-end localization trial;
//! 6. a short downlink + uplink link leg.
//!
//! The planned FFT, the waveform template and the cached channel renders
//! are asserted bitwise equal to their references before they are timed.
//! `--smoke` shrinks every rep count (the asserts still run).
//!
//! `--kernels-only` runs the transform core alone. With `--check-against
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
//! reset after warm-up and the snapshot of the measured region is
//! embedded under the report's `"telemetry"` key; otherwise it is `null`.
//!
//! Usage: `cargo run --release -p milback-bench --bin bench_engine
//! [-- --smoke] [-- --out path.json] [-- --leg <chaos|serve|net|adaptive>
//! [--view path]] [-- --kernels-only [--check-against BENCH_N.json]]`.

use milback::adaptation::adaptive_sweep_with_threads;
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
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts heap acquisitions, so the timed
/// legs can report allocations per call alongside the timings. Matches
/// the accounting in `tests/zero_alloc.rs`: `alloc`, `alloc_zeroed` and
/// `realloc` each count one; `dealloc` is free.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Master seed of the engine, kernel and channel legs.
const SEED: u64 = 0xB16B_00B5;

/// Timing passes per gated kernel; the fastest pass is reported. Min-of-N
/// is the standard estimator for true kernel cost on a shared host —
/// external interference only ever adds time — and it is what keeps the
/// CI regression gate (`--check-against`) from flaking on scheduler
/// noise.
const TIMING_PASSES: usize = 3;

/// Runs `f` `reps` times per pass for `passes` passes. Returns the
/// fastest pass's seconds per call and the heap allocations per call,
/// counted across all passes (they are deterministic per call, so the
/// division is exact).
fn time_calls(passes: usize, reps: usize, mut f: impl FnMut()) -> (f64, u64) {
    let a0 = alloc_count();
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    (best, (alloc_count() - a0) / (passes * reps) as u64)
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

/// One Fig.-12a-style trial: localize a node at 3 m with per-trial noise.
fn trial(t: batch::Trial) -> Option<u64> {
    let phi = deg_to_rad((t.index as f64 % 19.0) - 9.0);
    let pose = Pose::facing_ap(3.0, phi, 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, t.seed);
    net.localize().map(|fix| fix.range.to_bits())
}

/// One link-leg trial: a downlink and an uplink transfer end to end
/// (OAQFM waveforms, envelope demod, CRC framing). Returns the total bit
/// errors, which doubles as a determinism witness.
fn link_trial(t: batch::Trial) -> u64 {
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
    let mut net = Network::new(pose, Fidelity::Fast, t.seed);
    let payload: Vec<u8> = (0..8u8).map(|i| i * 31 + t.index as u8).collect();
    let dl = net.downlink(&payload, 1e6, true);
    let ul = net.uplink(&payload, 5e6, true);
    dl.map(|r| r.bit_errors as u64).unwrap_or(u64::MAX / 2)
        + ul.map(|r| r.bit_errors as u64).unwrap_or(u64::MAX / 2)
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
/// both outcomes, their wall times and the (shared) view. Resets
/// telemetry; callers run it outside their own measured region.
fn serial_vs_parallel<T, K: PartialEq + Debug>(
    leg: &str,
    threads: usize,
    run: impl Fn(usize) -> T,
    project: impl Fn(&T) -> K,
) -> (T, T, [f64; 2], String) {
    let side = |t| {
        telemetry::reset();
        let t0 = Instant::now();
        let out = run(t);
        let wall_s = t0.elapsed().as_secs_f64();
        let view = telemetry::snapshot().deterministic_view().to_json(2);
        (out, wall_s, view)
    };
    let (serial, serial_s, view) = side(1);
    let (parallel, parallel_s, parallel_view) = side(threads);
    assert_eq!(
        project(&serial),
        project(&parallel),
        "{leg} leg lost determinism across thread counts"
    );
    assert_eq!(
        view, parallel_view,
        "{leg} telemetry deterministic views diverged"
    );
    (serial, parallel, [serial_s, parallel_s], view)
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

    let (serial, _, [serial_s, parallel_s], view) = serial_vs_parallel(
        "chaos",
        threads,
        |t| chaos_sweep_with_threads(&points, trials, seed, t),
        Clone::clone,
    );
    write_view("chaos", view_path, &view);

    let flat: Vec<_> = serial.iter().flatten().collect();
    let delivered = flat.iter().filter(|o| o.delivered).count();
    let fallbacks = flat.iter().filter(|o| o.fell_back).count();
    let failures = flat.iter().filter(|o| o.failure.is_some()).count();
    println!(
        "chaos leg: {} sessions ({} points x {trials} trials), {delivered} delivered, \
         {fallbacks} reduced-chirp fallbacks, {failures} typed failures",
        flat.len(),
        points.len(),
    );
    println!("  serial: {serial_s:.3} s, parallel ({threads} threads): {parallel_s:.3} s");
    println!("  deterministic: outcomes identical, views byte-identical");

    format!(
        "{{\n    \"workload\": \"supervised sessions under sampled fault plans, intensities 0.0/0.5/0.9\",\n    \"sessions\": {},\n    \"trials_per_point\": {trials},\n    \"serial_s\": {},\n    \"parallel_s\": {},\n    \"delivered\": {delivered},\n    \"reduced_chirp_fallbacks\": {fallbacks},\n    \"typed_failures\": {failures},\n    \"outcomes_identical\": true,\n    \"views_byte_identical\": true\n  }}",
        flat.len(),
        json_f(serial_s),
        json_f(parallel_s),
    )
}

/// The serving soak (DESIGN.md §15): a seeded Poisson schedule of mixed
/// sessions — offered load past the virtual server's capacity, so the
/// shedding policy engages — served by the work-stealing pool serially
/// and at `threads` workers, with resolution sequences, outcome digests
/// and telemetry views compared; then p50/p99 session latency and
/// sessions/sec from the parallel epoch. A second, localize-only soak
/// measures steady-state heap allocations on a repeat epoch (expected:
/// zero). Returns the JSON fragment for the report.
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

    let ((_, serial), (_, parallel), _, view) = serial_vs_parallel(
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
        "  serial: {:.3} s, parallel ({threads} threads): {:.3} s, {:.1} sessions/s",
        serial.wall_s, parallel.wall_s, parallel.sessions_per_s
    );
    println!(
        "  latency: p50 {:.0} µs, p99 {:.0} µs, mean {:.0} µs",
        parallel.p50_latency_us, parallel.p99_latency_us, parallel.mean_latency_us
    );
    println!(
        "  outcomes: {} completed, {} failed, {} shed, {} field2-shed, {} rejected, depth peak {}",
        parallel.completed,
        parallel.failed,
        parallel.shed,
        parallel.field2_shed,
        parallel.rejected,
        parallel.max_depth
    );
    println!("  deterministic: resolutions identical, views byte-identical");

    // Steady-state allocation count: a light localize-only schedule on a
    // warmed engine. The first epoch grows every pool; a repeat of the
    // same seeded schedule through the same engine should then touch the
    // heap zero times (pinned hard by tests/zero_alloc.rs — here we
    // measure and report).
    let soak_traffic = TrafficConfig {
        nodes: 3,
        sessions: 12,
        rate_hz: 5.0,
        localize_fraction: 1.0,
        ..TrafficConfig::milback()
    };
    let soak_schedule = TrafficSchedule::generate(&soak_traffic, seed ^ 0xA110C);
    let mut soak_engine = ServeEngine::new(&roster(soak_traffic.nodes, seed ^ 0xA110C), cfg);
    let warm = soak_engine.serve_schedule(&soak_schedule, 1);
    let (_, steady_allocs) = time_calls(1, 1, || {
        let steady = soak_engine.serve_schedule(&soak_schedule, 1);
        assert_eq!(
            warm.outcome_digest, steady.outcome_digest,
            "serving soak epochs diverged"
        );
    });
    println!(
        "  steady-state epoch ({} localize sessions): {steady_allocs} heap allocations",
        soak_traffic.sessions
    );

    format!(
        "{{\n    \"workload\": \"mixed Poisson sessions through the work-stealing serving pool, offered load 1.8x virtual capacity, fault intensity 0.25\",\n    \"sessions\": {},\n    \"nodes\": {},\n    \"rate_hz\": {},\n    \"serial_s\": {},\n    \"parallel_s\": {},\n    \"speedup\": {},\n    \"sessions_per_s\": {},\n    \"p50_latency_us\": {},\n    \"p99_latency_us\": {},\n    \"mean_latency_us\": {},\n    \"completed\": {},\n    \"failed\": {},\n    \"shed\": {},\n    \"field2_shed\": {},\n    \"rejected\": {},\n    \"depth_peak\": {},\n    \"outcome_digest\": \"{:#018x}\",\n    \"steady_state_allocs\": {steady_allocs},\n    \"resolutions_identical\": true,\n    \"views_byte_identical\": true\n  }}",
        traffic.sessions,
        traffic.nodes,
        json_f(traffic.rate_hz),
        json_f(serial.wall_s),
        json_f(parallel.wall_s),
        json_f(serial.wall_s / parallel.wall_s),
        json_f(parallel.sessions_per_s),
        json_f(parallel.p50_latency_us),
        json_f(parallel.p99_latency_us),
        json_f(parallel.mean_latency_us),
        parallel.completed,
        parallel.failed,
        parallel.shed,
        parallel.field2_shed,
        parallel.rejected,
        parallel.max_depth,
        parallel.outcome_digest,
    )
}

/// The net leg (DESIGN.md §16): the dense-network fabric swept across
/// node densities — two APs, two slotted polling rounds per density,
/// per-round drift, handoffs and parked-neighbor interference — run
/// serially and at `threads` workers, with every deterministic
/// per-density field and the telemetry views compared. Its view is a
/// per-density table followed by the telemetry view. Reports
/// sessions/sec and aggregate goodput per density.
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
    let (serial, parallel, _, view) = serial_vs_parallel(
        "net",
        threads,
        |t| density_sweep(densities, n_aps, spacing_m, rounds, cfg, seed, t),
        |points| points.iter().map(witness).collect::<Vec<_>>(),
    );

    let mut table = String::from("dense-network density sweep (deterministic view)\n");
    table.extend(serial.iter().map(row));
    table.push_str(&view);
    write_view("net", view_path, &table);

    println!("net leg: {n_aps} APs, {rounds} rounds/density, densities {densities:?}");
    let mut points = Vec::new();
    for p in &parallel {
        println!(
            "  {} nodes: {:.1} sessions/s, {:.0} bit/s goodput, {}/{} delivered, \
             {} fixes, {} handoffs, {} overruns",
            p.nodes,
            p.sessions_per_s,
            p.goodput_bps,
            p.delivered,
            p.sessions,
            p.fixes,
            p.handoffs,
            p.overruns
        );
        points.push(format!(
            "      {{\n        \"nodes\": {},\n        \"aps\": {},\n        \"rounds\": {},\n        \"sessions\": {},\n        \"completed\": {},\n        \"delivered\": {},\n        \"fixes\": {},\n        \"handoffs\": {},\n        \"overruns\": {},\n        \"delivered_bits\": {},\n        \"goodput_bps\": {},\n        \"sessions_per_s\": {},\n        \"wall_s\": {},\n        \"digest\": \"{:#018x}\"\n      }}",
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
            json_f(p.sessions_per_s),
            json_f(p.wall_s),
            p.digest,
        ));
    }
    println!("  deterministic: digests identical, views byte-identical");

    format!(
        "{{\n    \"workload\": \"dense-network fabric: slotted polling rounds across 2 APs with drift, handoffs and 3-neighbor interference\",\n    \"densities\": {densities:?},\n    \"rounds_per_density\": {rounds},\n    \"points\": [\n{}\n    ],\n    \"digests_identical\": true,\n    \"views_byte_identical\": true\n  }}",
        points.join(",\n"),
    )
}

const ADAPTIVE_CSV_HEADER: &str = "scenario,variant,sessions,delivered_bytes,offered_bytes,\
     sessions_failed,elapsed_s,energy_uj,goodput_kbps,energy_per_byte_uj,ook_sessions,\
     trimmed_sessions,slowed_sessions\n";

/// Adaptive-link leg: the closed-loop [`milback::LinkPolicy`] controller
/// against the fixed configuration across the §14 fault menagerie
/// (DESIGN.md §18). Runs the paired sweep serially and at `threads`
/// workers, asserts the comparisons and telemetry views are identical
/// (thread invariance), and in full (non-smoke) runs writes
/// `results/adaptive_chaos.{csv,txt}` and requires adaptive to win on
/// both metrics under >= 3 scenarios.
fn adaptive_leg(smoke: bool, threads: usize, view_path: Option<&str>) -> String {
    let (n_sessions, trials) = if smoke { (6, 1) } else { (20, 2) };
    let seed = 0xADA9_7001;

    let (serial, _, [serial_s, parallel_s], _) = serial_vs_parallel(
        "adaptive",
        threads,
        |t| adaptive_sweep_with_threads(n_sessions, trials, seed, t),
        Clone::clone,
    );

    let mut csv = String::from(ADAPTIVE_CSV_HEADER);
    let mut table = String::from(
        "adaptive-vs-fixed chaos sweep (closed-loop LinkPolicy, DESIGN.md s18)\n\
         scenario          variant   deliv/offer  goodput_kbps  energy_uj/B  ook trim slow\n",
    );
    let mut wins = 0usize;
    for c in &serial {
        let name = c.scenario.name();
        for (variant, o) in [("fixed", &c.fixed), ("adaptive", &c.adaptive)] {
            // An arm that delivered nothing has infinite energy per byte.
            let epb = o.energy_per_byte_uj();
            let epb = if epb.is_finite() {
                json_f(epb)
            } else {
                "inf".to_string()
            };
            let goodput = json_f(o.goodput_kbps());
            csv.push_str(&format!(
                "{name},{variant},{},{},{},{},{},{},{goodput},{epb},{},{},{}\n",
                o.sessions_ok + o.sessions_failed,
                o.delivered_bytes,
                o.offered_bytes,
                o.sessions_failed,
                json_f(o.elapsed_s),
                json_f(o.energy_uj),
                o.ook_sessions,
                o.trimmed_sessions,
                o.slowed_sessions,
            ));
            table.push_str(&format!(
                "{name:<17} {variant:<9} {:>5}/{:<5}  {goodput:>12}  {epb:>11}  {:>3} {:>4} {:>4}\n",
                o.delivered_bytes,
                o.offered_bytes,
                o.ook_sessions,
                o.trimmed_sessions,
                o.slowed_sessions,
            ));
        }
        if c.adaptive_wins() {
            wins += 1;
            table.push_str(&format!("{name:<17} -> adaptive wins on both metrics\n"));
        }
    }
    table.push_str(&format!(
        "adaptive strictly better on goodput AND energy/byte under {wins}/{} scenarios\n",
        serial.len(),
    ));
    println!("adaptive leg: {n_sessions} sessions x {trials} trials per scenario x variant");
    print!("{table}");
    println!(
        "  serial {serial_s:.2} s, parallel({threads}) {parallel_s:.2} s, comparisons identical"
    );

    if !smoke {
        assert!(
            wins >= 3,
            "adaptive controller won only {wins} scenarios (need >= 3)"
        );
        std::fs::create_dir_all("results").expect("failed to create results/");
        std::fs::write("results/adaptive_chaos.csv", &csv)
            .expect("failed to write results/adaptive_chaos.csv");
        std::fs::write("results/adaptive_chaos.txt", &table)
            .expect("failed to write results/adaptive_chaos.txt");
        println!("  wrote results/adaptive_chaos.csv, results/adaptive_chaos.txt");
    }

    // Deterministic view: CSV + table only (no wall timings), so two
    // runs at any thread counts must produce identical bytes.
    write_view("adaptive", view_path, &format!("{csv}\n{table}"));

    let scenario_json: Vec<String> = serial
        .iter()
        .map(|c| {
            let fixed = &c.fixed;
            let adaptive = &c.adaptive;
            format!(
                "      {{\n        \"scenario\": \"{}\",\n        \"fixed\": {{\n          \"delivered_bytes\": {},\n          \"offered_bytes\": {},\n          \"sessions_failed\": {},\n          \"goodput_kbps\": {},\n          \"energy_per_byte_uj\": {}\n        }},\n        \"adaptive\": {{\n          \"delivered_bytes\": {},\n          \"offered_bytes\": {},\n          \"sessions_failed\": {},\n          \"goodput_kbps\": {},\n          \"energy_per_byte_uj\": {},\n          \"ook_sessions\": {},\n          \"trimmed_sessions\": {},\n          \"slowed_sessions\": {}\n        }},\n        \"adaptive_wins\": {}\n      }}",
                c.scenario.name(),
                fixed.delivered_bytes,
                fixed.offered_bytes,
                fixed.sessions_failed,
                json_f(fixed.goodput_kbps()),
                json_f(fixed.energy_per_byte_uj()),
                adaptive.delivered_bytes,
                adaptive.offered_bytes,
                adaptive.sessions_failed,
                json_f(adaptive.goodput_kbps()),
                json_f(adaptive.energy_per_byte_uj()),
                adaptive.ook_sessions,
                adaptive.trimmed_sessions,
                adaptive.slowed_sessions,
                c.adaptive_wins(),
            )
        })
        .collect();

    format!(
        "{{\n    \"workload\": \"closed-loop LinkPolicy vs fixed configuration, paired seeds, s14 fault menagerie\",\n    \"sessions_per_trial\": {n_sessions},\n    \"trials\": {trials},\n    \"scenarios\": [\n{}\n    ],\n    \"adaptive_wins\": {wins},\n    \"thread_invariant\": true\n  }}",
        scenario_json.join(",\n"),
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
    let (best_s, _) = time_calls(5, 1, || {
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

/// A kernel's JSON entry: its workload and rep count, then each
/// `(key, JSON value)` field in order.
fn kernel_json(name: &str, desc: &str, reps: usize, fields: &[(&str, String)]) -> String {
    let mut out =
        format!("    \"{name}\": {{\n      \"workload\": \"{desc}\",\n      \"reps\": {reps}");
    for (key, value) in fields {
        out.push_str(&format!(",\n      \"{key}\": {value}"));
    }
    out.push_str("\n    }");
    out
}

/// Results of the FFT-plan, per-kernel and five-chirp-burst legs — the
/// transform-core region that `--kernels-only` runs on its own (and that
/// `--check-against` gates on).
struct CoreLegs {
    /// The `fft_plan`, `kernels` and `localization_burst` report entries.
    json: String,
    /// The gated timings, in `GATED` order: range-FFT µs per call and
    /// burst ms per burst.
    gated: [f64; 2],
    /// Host-speed reference measured in the same invocation (min of a
    /// pass before the kernel legs and one after the burst leg), µs.
    calib_us: f64,
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

/// One node's five-chirp Field-2 localization burst as the channel
/// renders it: the AP's sawtooth chirp and, per chirp, the node's Γ runs
/// (port A square-wave modulated, port B absorptive). The cache never
/// keys on Γ: the runs are replayed on every render, hit or miss.
struct LocBurst<'a> {
    net: &'a Network,
    comp: TxComponent,
    chirp_s: f64,
}

impl<'a> LocBurst<'a> {
    fn new(net: &'a Network) -> Self {
        let mut cfg = net.fidelity.sawtooth();
        cfg.amplitude = net.ap.tx.amplitude();
        let comp = TxComponent {
            signal: cfg.sawtooth(),
            profile: FreqProfile::Sawtooth(cfg),
        };
        Self {
            net,
            comp,
            chirp_s: cfg.duration,
        }
    }

    /// Fills `runs` with the node's Γ over chirp `chirp` of the burst.
    fn fill_runs(&self, chirp: usize, runs: &mut Vec<GammaRun>) {
        let sched_a = SwitchSchedule::SquareWave {
            freq_hz: self.net.fidelity.localization_mod_freq(),
            first: SwitchState::Reflective,
        };
        let sched_b = SwitchSchedule::Constant(SwitchState::Absorptive);
        let gamma = |state| self.net.node.switch.gamma(state);
        let t_off = chirp as f64 * self.chirp_s;
        let (fs, n) = (self.comp.signal.fs, self.comp.signal.len());
        fill_gamma_runs(&sched_a, &sched_b, gamma, t_off, fs, n, runs);
    }

    /// A node carrying this network's FSA at `pose`, with Γ `runs`.
    fn node<'b>(&'b self, pose: Pose, runs: &'b [GammaRun]) -> NodeInterface<'b> {
        NodeInterface {
            pose,
            fsa: &self.net.node.fsa,
            gamma: runs,
        }
    }

    /// Every capture of the burst: per chirp, fills `runs` and calls
    /// `render(chirp, antenna, runs)` for both RX antennas.
    fn for_each_capture(
        &self,
        runs: &mut Vec<GammaRun>,
        mut render: impl FnMut(usize, usize, &[GammaRun]),
    ) {
        for chirp in 0..5 {
            self.fill_runs(chirp, runs);
            for ant in 0..2 {
                render(chirp, ant, runs);
            }
        }
    }
}

/// Asserts that a cold fabric-style Field-2 burst is bitwise the
/// uncached reference, and panics at the first sample that differs.
///
/// The burst is what a dense-network slot renders: five chirps × two
/// RX antennas of the target's localization return, with three parked
/// neighbours layered in per capture, through a fresh
/// [`ChannelWorkspace`]. Ray tables and gain curves are built cold and
/// then shared across chirps, antennas and nodes; the reference
/// evaluates every gain point per point. Returns the captures checked.
fn check_fabric_burst(seed: u64) -> usize {
    let poses = [
        Pose::facing_ap(3.2, deg_to_rad(-6.0), deg_to_rad(9.0)),
        Pose::facing_ap(2.6, deg_to_rad(4.0), deg_to_rad(-7.0)),
        Pose::facing_ap(4.1, deg_to_rad(-14.0), deg_to_rad(3.0)),
        Pose::facing_ap(3.6, deg_to_rad(11.0), deg_to_rad(15.0)),
    ];
    let net = Network::new(poses[0], Fidelity::Fast, seed);
    let burst = LocBurst::new(&net);
    let (comp, fp) = (&burst.comp, wave_fingerprint(&burst.comp));
    let parked = [GammaRun {
        end: comp.signal.len(),
        gamma: net.node.parked_gamma(),
    }];
    let mut cw = ChannelWorkspace::default();
    let mut out = Signal::zeros(comp.signal.fs, comp.signal.fc, 0);
    let mut captures = 0;
    burst.for_each_capture(&mut Vec::new(), |chirp, ant, runs| {
        // The target carries the burst's Γ; its neighbours sit parked.
        let all: [NodeInterface; 4] =
            std::array::from_fn(|i| burst.node(poses[i], if i == 0 { runs } else { &parked }));
        let (target, neighbours) = all.split_at(1);
        net.scene
            .monostatic_rx_multi_into(&mut cw, comp, fp, target, ant, &mut out);
        for nb in neighbours {
            net.scene
                .accumulate_backscatter_into(&mut cw, comp, fp, nb, ant, &mut out);
        }
        let reference = net.scene.monostatic_rx_multi_uncached(comp, &all, ant);
        assert_bitwise(
            &format!("cold fabric burst chirp {chirp} antenna {ant} vs the uncached reference"),
            &out.samples,
            &reference.samples,
        );
        captures += 1;
    });
    captures
}

/// The gated localization burst's inputs: five chirps × two antennas
/// rendered once for a node at 3 m, and the localizer that processes
/// them.
fn burst_fixture(seed: u64) -> (Localizer, Signal, Vec<[Signal; 2]>) {
    let pose = Pose::facing_ap(3.0, deg_to_rad(5.0), 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, seed ^ 0xBEEF);
    let (tx, captures) = net.field2_captures();
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

/// Runs the FFT-plan comparison, the per-kernel legs and the five-chirp
/// localization burst. The planned FFT and the waveform template are
/// asserted bitwise identical to their references before timing.
fn core_legs(smoke: bool, seed: u64) -> CoreLegs {
    // The committed baselines time one core: with every core counted
    // busy, no noise fill or receive chain claims the two-core helper
    // (DESIGN.md §17.4) while these legs run.
    let _one_core = par::occupy(par::cores());
    // FFT-plan comparison: the 8192-point range FFT. "Unplanned" rebuilds
    // the twiddle/bit-reversal tables per call — exactly what the
    // pre-plan-cache implementation did on every transform.
    let n = 8192;
    let reps = if smoke { 10 } else { 200 };
    let input: Vec<Cpx> = (0..n)
        .map(|i| Cpx::cis(i as f64 * 0.37) * (1.0 + (i as f64 * 0.01).sin()))
        .collect();

    let reference = FftPlan::new(n).forward(&input);
    let mut unplanned_out = Vec::new();
    let (unplanned_s, _) = time_calls(1, reps, || {
        unplanned_out = FftPlan::new(n).forward(&input);
    });
    let mut planned_out = Vec::new();
    let (planned_s, _) = time_calls(1, reps, || {
        planned_out = with_plan(n, |p| p.forward(&input));
    });
    assert_bitwise("unplanned FFT", &unplanned_out, &reference);
    assert_bitwise("planned FFT", &planned_out, &reference);
    let fft_speedup = unplanned_s / planned_s;
    println!("fft plan ({n}-point, {reps} reps):");
    println!("  unplanned: {:.1} µs/fft", unplanned_s * 1e6);
    println!("  planned:   {:.1} µs/fft", planned_s * 1e6);
    println!("  speedup: {fft_speedup:.2}x (bitwise identical: true)");

    // ------------------------------------------------------------------
    // Per-kernel legs: the form of each DSP hot-path kernel a session
    // runs, into reused buffers.
    // ------------------------------------------------------------------
    let kernel_reps = if smoke { 5 } else { 100 };
    let kernel_us = |f: &mut dyn FnMut()| time_calls(TIMING_PASSES, kernel_reps, f).0 * 1e6;
    // Host-speed reference, sampled next to the kernel timings so both
    // sit in the same interference window (windows on the shared host
    // last seconds; a second sample after the burst leg takes the min).
    let mut calib_us = calibration_us();
    let chirp_cfg = Fidelity::Fast.sawtooth();
    let proc = milback_ap::RangeProcessor::new(chirp_cfg, 2);
    let tx_ref = chirp_cfg.sawtooth();
    let rx = tx_ref.delayed(20e-9);
    println!("kernels ({kernel_reps} reps each):");

    let mut dechirp_buf = Vec::new();
    let dechirp_us = kernel_us(&mut || {
        proc.dechirp_into(&rx, &tx_ref, &mut dechirp_buf);
        std::hint::black_box(&dechirp_buf);
    });
    println!("  dechirp:    {dechirp_us:.1} µs");

    // Range FFT at the pipeline's true size (fft_len = pad × chirp len,
    // rounded up), into a reused buffer.
    let fft_n = proc.fft_len;
    let fft_input: Vec<Cpx> = (0..fft_n)
        .map(|i| Cpx::cis(i as f64 * 0.11) * (i as f64 * 0.003).cos())
        .collect();
    let mut fft_buf = Vec::new();
    let fft_us = kernel_us(&mut || {
        with_plan(fft_n, |p| p.forward_into(&fft_input, &mut fft_buf));
        std::hint::black_box(&fft_buf);
    });
    println!("  range fft:  {fft_us:.1} µs ({fft_n}-point)");

    // Waveform synthesis: fresh Field-2 chirp synthesis vs a template-
    // cache fetch.
    let tx_cfg = TxConfig::milback();
    let mut synth_cfg = chirp_cfg;
    synth_cfg.fs = tx_cfg.fs;
    synth_cfg.amplitude = tx_cfg.amplitude();
    let wave_ref = synth_cfg.sawtooth();
    let wave_tmpl = template::sawtooth(&synth_cfg);
    assert_bitwise("waveform template", &wave_tmpl.samples, &wave_ref.samples);
    let synth_us = kernel_us(&mut || {
        std::hint::black_box(synth_cfg.sawtooth());
    });
    let template_us = kernel_us(&mut || {
        std::hint::black_box(template::sawtooth(&synth_cfg));
    });
    let wave_speedup = synth_us / template_us;
    println!("  waveform:   {synth_us:.1} µs -> {template_us:.1} µs ({wave_speedup:.2}x)");

    // ------------------------------------------------------------------
    // The five-chirp localization burst through the workspace pipeline,
    // with heap allocations per burst from this binary's counting
    // allocator.
    // ------------------------------------------------------------------
    let burst_reps = if smoke { 3 } else { 40 };
    let (localizer, burst_tx, burst_caps) = burst_fixture(seed);
    let mut ws = DspWorkspace::new();

    // Warm the plan cache and the workspace buffers before counting.
    let burst_ref = localizer.process_with(&mut ws, &burst_tx, &burst_caps);
    let mut burst_out = burst_ref;
    let (burst_ws_s, burst_ws_allocs) = time_calls(TIMING_PASSES, burst_reps, || {
        burst_out = localizer.process_with(&mut ws, &burst_tx, &burst_caps);
    });
    assert_eq!(burst_out, burst_ref, "burst output moved across reps");
    println!("localization burst (5 chirps x 2 antennas, {burst_reps} reps):");
    println!(
        "  workspace:  {:.2} ms/burst, {burst_ws_allocs} allocs/burst",
        burst_ws_s * 1e3
    );
    calib_us = calib_us.min(calibration_us());

    let kernels = [
        kernel_json(
            "dechirp",
            "6400-sample dechirp_into a reused buffer",
            kernel_reps,
            &[("fast_us", json_f(dechirp_us))],
        ),
        kernel_json(
            "range_fft",
            "16384-point cached-plan FFT, forward_into a reused buffer",
            kernel_reps,
            &[("fast_us", json_f(fft_us))],
        ),
        kernel_json(
            "waveform",
            "Field-2 chirp, fresh synthesis vs template-cache fetch",
            kernel_reps,
            &[
                ("synthesis_us", json_f(synth_us)),
                ("fast_us", json_f(template_us)),
                ("speedup", json_f(wave_speedup)),
                ("bitwise_identical", "true".to_string()),
            ],
        ),
    ]
    .join(",\n");

    let json = format!(
        "  \"fft_plan\": {{\n    \"size\": {n},\n    \"reps\": {reps},\n    \"unplanned_us_per_fft\": {},\n    \"planned_us_per_fft\": {},\n    \"speedup\": {},\n    \"bitwise_identical\": true\n  }},\n  \"kernels\": {{\n{kernels}\n  }},\n  \"localization_burst\": {{\n    \"workload\": \"five-chirp Field-2 burst, 2 RX antennas, Fidelity::Fast\",\n    \"reps\": {burst_reps},\n    \"workspace_ms_per_burst\": {},\n    \"workspace_allocs_per_burst\": {burst_ws_allocs},\n    \"deterministic\": true\n  }}",
        json_f(unplanned_s * 1e6),
        json_f(planned_s * 1e6),
        json_f(fft_speedup),
        json_f(burst_ws_s * 1e3),
    );
    CoreLegs {
        json,
        gated: [fft_us, burst_ws_s * 1e3],
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
const LEGS: [(&str, Leg); 4] = [
    ("chaos", chaos_leg),
    ("serve", serve_leg),
    ("net", net_leg),
    ("adaptive", adaptive_leg),
];

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
                let err = || format!("--leg takes one of chaos|serve|net|adaptive, got {name:?}");
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

    // The transform-core region on its own: the CI regression gate runs
    // this at full rep counts (stable timings) without paying for the
    // determinism legs.
    if args.kernels_only {
        check_burst_fft_work(SEED);
        match &args.check_against {
            Some(baseline) => regression_gate(baseline, smoke, None),
            None => drop(core_legs(smoke, SEED)),
        }
        return;
    }

    let trials = if smoke { 4 } else { 24 };
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
        "fabric burst: {captures} cold captures of a target plus 3 parked neighbours, \
         bitwise identical to the uncached reference"
    );
    let helper = check_two_core_burst(SEED);
    println!(
        "two-core burst: antennas at once (helper claimable: {helper}) bitwise identical \
         to antennas in turn"
    );

    // The determinism legs first: each resets telemetry for its own
    // serial/parallel view comparison, so they have to run before (not
    // inside) the measured region below.
    let [chaos_json, serve_json, net_json, adaptive_json] =
        LEGS.map(|(_, run)| run(smoke, threads, None));

    // Warm each thread's plan cache so the engine comparison measures
    // scheduling, not first-use table construction.
    let _ = batch::run_trials_with_threads(threads.max(2), SEED, threads, trial);

    // The telemetry snapshot should describe the measured region only.
    telemetry::reset();

    println!("batch engine: {trials} localization trials, {threads} worker thread(s)");
    let t0 = Instant::now();
    let serial = batch::run_trials_with_threads(trials, SEED, 1, trial);
    let serial_s = t0.elapsed().as_secs_f64();
    println!("  serial   (1 thread): {serial_s:.3} s");

    let t0 = Instant::now();
    let parallel = batch::run_trials_with_threads(trials, SEED, threads, trial);
    let parallel_s = t0.elapsed().as_secs_f64();
    println!("  parallel ({threads} threads): {parallel_s:.3} s");

    assert_eq!(serial, parallel, "batch engine lost determinism");
    let engine_speedup = serial_s / parallel_s;
    println!("  speedup: {engine_speedup:.2}x (deterministic: outputs identical)");

    // FFT-plan comparison, per-kernel legs and the five-chirp burst.
    let legs = core_legs(smoke, SEED);

    // ------------------------------------------------------------------
    // Channel synthesis: the cached workspace render (DESIGN.md §13)
    // against the uncached reference on the Fig. 12a scene — a single
    // monostatic render, then the burst-shaped workload (five chirps ×
    // two RX antennas, per-chirp Γ schedules), then the warm end-to-end
    // localization trial (render + process through every cache).
    // ------------------------------------------------------------------
    let chan_reps = if smoke { 3 } else { 40 };
    let chan_pose = Pose::facing_ap(3.0, deg_to_rad(5.0), 0.0);
    let chan_net = Network::new(chan_pose, Fidelity::Fast, SEED ^ 0xC0FFEE);
    let burst = LocBurst::new(&chan_net);
    let (scene, comp) = (&chan_net.scene, &burst.comp);
    let fp = wave_fingerprint(comp);
    let mut cw = ChannelWorkspace::default();
    let mut chan_out = Signal::zeros(comp.signal.fs, comp.signal.fc, 0);

    // Bitwise check + warm-up for both antennas.
    let mut chan_runs = Vec::new();
    burst.fill_runs(0, &mut chan_runs);
    let node_if = burst.node(chan_pose, &chan_runs);
    let only = std::slice::from_ref(&node_if);
    for ant in 0..2 {
        let reference = scene.monostatic_rx_multi_uncached(comp, only, ant);
        scene.monostatic_rx_multi_into(&mut cw, comp, fp, only, ant, &mut chan_out);
        assert_bitwise(
            &format!("cached channel render (antenna {ant}) vs uncached"),
            &chan_out.samples,
            &reference.samples,
        );
    }

    // Single render (antenna 0) A/B with allocation counts.
    let (chan_uncached_s, chan_uncached_allocs) = time_calls(1, chan_reps, || {
        std::hint::black_box(scene.monostatic_rx_multi_uncached(comp, only, 0));
    });
    let (chan_cached_s, chan_cached_allocs) = time_calls(1, chan_reps, || {
        scene.monostatic_rx_multi_into(&mut cw, comp, fp, only, 0, &mut chan_out);
        std::hint::black_box(&chan_out);
    });
    let chan_speedup = chan_uncached_s / chan_cached_s;
    println!("channel render (1 chirp, milback_indoor scene, {chan_reps} reps):");
    println!(
        "  uncached: {:.2} ms, {chan_uncached_allocs} allocs/render",
        chan_uncached_s * 1e3
    );
    println!(
        "  cached:   {:.2} ms, {chan_cached_allocs} allocs/render",
        chan_cached_s * 1e3
    );
    println!("  speedup: {chan_speedup:.2}x (bitwise identical: true)");

    // Burst-shaped workload: the ten renders behind one Field-2 capture,
    // through one capture loop on both sides.
    let mut uncached_runs = Vec::new();
    let (chan_burst_uncached_s, _) = time_calls(1, chan_reps, || {
        burst.for_each_capture(&mut uncached_runs, |_, ant, runs| {
            let node = [burst.node(chan_pose, runs)];
            std::hint::black_box(scene.monostatic_rx_multi_uncached(comp, &node, ant));
        });
    });
    let (chan_burst_cached_s, chan_burst_allocs) = time_calls(1, chan_reps, || {
        burst.for_each_capture(&mut chan_runs, |_, ant, runs| {
            let node = [burst.node(chan_pose, runs)];
            scene.monostatic_rx_multi_into(&mut cw, comp, fp, &node, ant, &mut chan_out);
            std::hint::black_box(&chan_out);
        });
    });
    let chan_burst_speedup = chan_burst_uncached_s / chan_burst_cached_s;
    println!("channel burst (5 chirps x 2 antennas, {chan_reps} reps):");
    println!("  uncached: {:.2} ms/burst", chan_burst_uncached_s * 1e3);
    println!(
        "  cached:   {:.2} ms/burst, {chan_burst_allocs} allocs/burst",
        chan_burst_cached_s * 1e3
    );
    println!("  speedup: {chan_burst_speedup:.2}x");

    // Warm end-to-end trial: render + dechirp + FFT + subtraction + peak
    // search through every cache (the quantity a batch worker pays per
    // Fig. 12a trial once its thread-locals are warm).
    let e2e_reps = if smoke { 3 } else { 40 };
    let mut e2e_net = Network::new(chan_pose, Fidelity::Fast, SEED ^ 0xE2E);
    assert!(
        e2e_net.localize().is_some(),
        "end-to-end trial found no node"
    );
    let (e2e_s, e2e_allocs) = time_calls(1, e2e_reps, || {
        std::hint::black_box(e2e_net.localize());
    });
    println!("end-to-end trial (render + process, warm, {e2e_reps} reps):");
    println!("  {:.2} ms/trial, {e2e_allocs} allocs/trial", e2e_s * 1e3);

    // Link leg: a handful of end-to-end transfers so the snapshot carries
    // node/proto/link counters alongside the localization stages.
    let link_trials = if smoke { 1 } else { 4 };
    let t0 = Instant::now();
    let link_errors = batch::run_trials(link_trials, SEED ^ 0x1111, link_trial);
    let link_s = t0.elapsed().as_secs_f64();
    let total_errors: u64 = link_errors.iter().sum();
    println!("link leg: {link_trials} downlink+uplink transfers in {link_s:.3} s ({total_errors} bit errors)");

    // Indent the snapshot to sit two levels deep in the output object.
    let telemetry_json = if telemetry::enabled() {
        telemetry::snapshot().to_json(2).replace('\n', "\n  ")
    } else {
        "null".to_string()
    };

    let calib_us_str = json_f(legs.calib_us);
    let json = format!(
        "{{\n  \"bench\": \"{bench_name}\",\n  \"description\": \"Batch-engine, FFT-plan, per-kernel and five-chirp-burst timings on a Fig. 12a localization workload, plus a short end-to-end link leg and the chaos and serving-soak determinism legs\",\n  \"host_threads\": {threads},\n  \"smoke\": {smoke},\n  \"timing_calibration\": {{\n    \"workload\": \"fixed pure-FP recurrence; host-speed reference for the CI ratio gate\",\n    \"calib_us\": {calib_us_str}\n  }},\n  \"engine\": {{\n    \"workload\": \"localization trial, node at 3 m, Fidelity::Fast\",\n    \"trials\": {trials},\n    \"serial_s\": {},\n    \"parallel_s\": {},\n    \"speedup\": {},\n    \"deterministic\": true\n  }},\n{},\n  \"channel_render\": {{\n    \"workload\": \"single monostatic render, milback_indoor scene, node at 3 m\",\n    \"reps\": {chan_reps},\n    \"uncached_ms_per_render\": {},\n    \"cached_ms_per_render\": {},\n    \"speedup\": {},\n    \"uncached_allocs_per_render\": {chan_uncached_allocs},\n    \"cached_allocs_per_render\": {chan_cached_allocs},\n    \"bitwise_identical\": true\n  }},\n  \"channel_burst\": {{\n    \"workload\": \"five-chirp x two-antenna Field-2 channel render, per-chirp gamma runs\",\n    \"reps\": {chan_reps},\n    \"uncached_ms_per_burst\": {},\n    \"cached_ms_per_burst\": {},\n    \"speedup\": {},\n    \"cached_allocs_per_burst\": {chan_burst_allocs}\n  }},\n  \"end_to_end_trial\": {{\n    \"workload\": \"warm Fig. 12a localization trial: channel render + DSP pipeline through every cache\",\n    \"reps\": {e2e_reps},\n    \"ms_per_trial\": {},\n    \"allocs_per_trial\": {e2e_allocs}\n  }},\n  \"link_leg\": {{\n    \"trials\": {link_trials},\n    \"elapsed_s\": {},\n    \"total_bit_errors\": {total_errors}\n  }},\n  \"adaptive\": {adaptive_json},\n  \"net\": {net_json},\n  \"serve\": {serve_json},\n  \"chaos\": {chaos_json},\n  \"telemetry\": {telemetry_json}\n}}\n",
        json_f(serial_s),
        json_f(parallel_s),
        json_f(engine_speedup),
        legs.json,
        json_f(chan_uncached_s * 1e3),
        json_f(chan_cached_s * 1e3),
        json_f(chan_speedup),
        json_f(chan_burst_uncached_s * 1e3),
        json_f(chan_burst_cached_s * 1e3),
        json_f(chan_burst_speedup),
        json_f(e2e_s * 1e3),
        json_f(link_s),
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
    fn json_number_after_reads_back_kernel_json() {
        let entry = kernel_json("range_fft", "probe", 7, &[("fast_us", json_f(12.5))]);
        let text = format!("{{\n{entry}\n}}");
        assert_eq!(json_number_after(&text, "range_fft", "fast_us"), Some(12.5));
        assert_eq!(json_number_after(&text, "range_fft", "reps"), Some(7.0));
        assert_eq!(json_number_after(&text, "range_fft", "slow_us"), None);
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
