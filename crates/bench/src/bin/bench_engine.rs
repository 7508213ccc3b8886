//! Batch-engine, FFT-plan, per-kernel and allocation benchmark with an
//! optional telemetry snapshot: times the workspace's performance layers
//! and writes the result to the next free `BENCH_N.json`.
//!
//! Measurements:
//!
//! 1. `serial` vs `parallel` — the batch engine at one worker thread (the
//!    historical execution model) against the machine's thread count, on
//!    a representative localization workload (the Fig. 12a trial —
//!    dechirp, five range FFTs, background subtraction, peak search),
//! 2. planned vs unplanned FFT — the cached-plan transform against a
//!    rebuild-tables-every-call transform of the same 8192-point range
//!    FFT (the dominant kernel of the trial),
//! 3. per-kernel legs — the forms a session runs of the DSP hot-path
//!    kernels (`dechirp_into`, `forward_into` at the range-FFT size),
//!    plus Field-2 waveform synthesis against a template-cache fetch
//!    with a bitwise-equality assert,
//! 4. the five-chirp localization burst — `Localizer::process_with` on
//!    a warmed workspace, with heap allocations per burst counted by
//!    this binary's global allocator (DESIGN.md §12),
//! 5. channel synthesis — the cached workspace render (static-scene
//!    response + hoisted ray tables, DESIGN.md §13) against the uncached
//!    reference, as a single monostatic render and as the full
//!    five-chirp × two-antenna Field-2 burst, with a bitwise-equality
//!    assert and allocation counts; plus the warm end-to-end
//!    localization trial (render + process through every cache),
//! 6. a short full-stack link leg — OAQFM downlink + uplink transfers
//!    through the batch engine, so the telemetry snapshot covers the
//!    node/proto/link stages too,
//! 7. the serving soak (DESIGN.md §15) — a seeded Poisson schedule
//!    through the session-serving engine's work-stealing pool, serially
//!    and in parallel, asserting identical resolutions and
//!    byte-identical deterministic telemetry views, then reporting
//!    p50/p99 session latency and sessions/sec, plus a localize-only
//!    soak whose steady-state epoch's heap allocations are counted
//!    (expected: zero).
//!
//! The engine is deterministic by construction; this binary also asserts
//! that the parallel run's outputs equal the serial run's — and that the
//! uplink receiver's decimating FIR stages on a real uplink capture, a
//! cold fabric-style Field-2 burst (target plus three parked
//! neighbours), the planned FFT, the waveform templates and the cached
//! channel renders are bitwise identical to the full-rate filter plus
//! stride, the uncached per-point-gain render, the unplanned, freshly
//! synthesized and uncached references — before timings are reported.
//!
//! Output naming: without `--out`, the binary scans the working directory
//! for existing `BENCH_<n>.json` files and writes to the next free index,
//! so successive runs never clobber earlier results. `--smoke` shrinks
//! every rep count to a CI-friendly size (the asserts still run; the
//! timings are then only indicative).
//!
//! Telemetry: with `MILBACK_TELEMETRY=1` (see README §Observability), the
//! registry is reset after warm-up and the end-of-run snapshot is
//! embedded under the `"telemetry"` key of the output JSON — per-stage
//! counters and histograms from `dsp` (plan cache, workspace reuse), `ap`
//! (localization), `node`/`proto` (demod, CRC), and `core` (batch, link).
//! Without the variable the key is `null` and the instrumented code paths
//! take their no-op branches.
//!
//! Usage: `cargo run --release -p milback-bench --bin bench_engine
//! [-- --smoke] [-- --out path.json] [-- --leg <chaos|serve|net|adaptive>
//! [--view path]] [-- --kernels-only [--check-against BENCH_N.json]]`.
//!
//! Four determinism legs run ahead of the measured region, each serially
//! and at the host's thread count, asserting identical outcomes and
//! byte-identical telemetry deterministic views inside one process:
//!
//! * `chaos` — supervised sessions under sampled fault plans (DESIGN.md
//!   §14),
//! * `serve` — a seeded Poisson schedule past the virtual server's
//!   capacity through the serving engine (§15),
//! * `net` — the dense-network fabric swept across node densities: two
//!   APs, slotted polling rounds with drift, handoffs and
//!   parked-neighbor interference (§16),
//! * `adaptive` — the adaptive-vs-fixed scenario sweep of the closed-loop
//!   link controller (§18).
//!
//! `--leg <name>` runs just that leg and exits; `--view <path>` then
//! writes its deterministic view (no wall-clock content), so two
//! invocations can be compared byte-for-byte. ci.sh runs every leg at
//! `MILBACK_THREADS=1` and `=4` and `cmp`s the two files.

use milback::adaptation::{adaptive_sweep_with_threads, AdaptiveComparison};
use milback::batch;
use milback::chaos::{chaos_sweep_with_threads, default_points};
use milback::net::{density_sweep, NetConfig};
use milback::serve::roster;
use milback::{Fidelity, Network, ServeConfig, ServeEngine, TrafficConfig, TrafficSchedule};
use milback_ap::uplink::{anti_alias_fir, UplinkReceiver};
use milback_ap::waveform::TxConfig;
use milback_ap::workspace::DspWorkspace;
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts heap acquisitions, so the burst
/// leg can report allocations-per-burst alongside the timings. Matches
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

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// The chaos leg (DESIGN.md §14): a small chaos sweep run serially and
/// in parallel. Asserts per-trial outcome equality and byte-identical
/// telemetry deterministic views, optionally writing the serial view to
/// `view_path` for cross-process comparison. Returns the JSON fragment
/// for the report. Resets telemetry; callers run it outside their own
/// measured region.
fn chaos_leg(smoke: bool, threads: usize, view_path: Option<&str>) -> String {
    let points = default_points();
    let trials = if smoke { 3 } else { 12 };
    let seed = 0xC4A0_5EED;

    telemetry::reset();
    let t0 = Instant::now();
    let serial = chaos_sweep_with_threads(&points, trials, seed, 1);
    let serial_s = t0.elapsed().as_secs_f64();
    let serial_view = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::reset();
    let t0 = Instant::now();
    let parallel = chaos_sweep_with_threads(&points, trials, seed, threads);
    let parallel_s = t0.elapsed().as_secs_f64();
    let parallel_view = telemetry::snapshot().deterministic_view().to_json(2);

    assert_eq!(
        serial, parallel,
        "chaos sweep lost determinism across thread counts"
    );
    assert_eq!(
        serial_view, parallel_view,
        "chaos telemetry deterministic views diverged"
    );

    if let Some(path) = view_path {
        std::fs::write(path, &serial_view).expect("failed to write chaos deterministic view");
        println!("chaos leg: wrote deterministic view to {path}");
    }

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
/// and at `threads` workers. Asserts identical resolution sequences,
/// identical outcome digests and byte-identical deterministic telemetry
/// views, optionally writing the serial view to `view_path` for
/// cross-process comparison, then reports p50/p99 session latency and
/// sessions/sec from the parallel epoch. A second, localize-only soak
/// measures steady-state heap allocations on a repeat epoch (expected:
/// zero). Returns the JSON fragment for the report. Resets telemetry;
/// callers run it outside their own measured region.
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

    telemetry::reset();
    let mut serial_engine = ServeEngine::new(&poses, cfg);
    let serial = serial_engine.serve_schedule(&schedule, 1);
    let serial_view = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::reset();
    let mut parallel_engine = ServeEngine::new(&poses, cfg);
    let parallel = parallel_engine.serve_schedule(&schedule, threads);
    let parallel_view = telemetry::snapshot().deterministic_view().to_json(2);

    assert_eq!(
        serial_engine.resolutions(),
        parallel_engine.resolutions(),
        "serving soak lost determinism across thread counts"
    );
    assert_eq!(
        serial.outcome_digest, parallel.outcome_digest,
        "serving soak outcome digests diverged"
    );
    assert_eq!(
        serial_view, parallel_view,
        "serving telemetry deterministic views diverged"
    );

    if let Some(path) = view_path {
        std::fs::write(path, &serial_view).expect("failed to write serve deterministic view");
        println!("serve leg: wrote deterministic view to {path}");
    }

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
    let a0 = alloc_count();
    let steady = soak_engine.serve_schedule(&soak_schedule, 1);
    let steady_allocs = alloc_count() - a0;
    assert_eq!(
        warm.outcome_digest, steady.outcome_digest,
        "serving soak epochs diverged"
    );
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
/// serially and at `threads` workers. Asserts that every deterministic
/// per-density field (digest, delivery counts, goodput) is identical
/// across thread counts and that the telemetry deterministic views are
/// byte-identical, optionally writing a deterministic per-density table
/// plus the view to `view_path` for cross-process comparison. Reports
/// sessions/sec and aggregate goodput per density. Resets telemetry;
/// callers run it outside their own measured region.
fn net_leg(smoke: bool, threads: usize, view_path: Option<&str>) -> String {
    let densities: &[usize] = if smoke { &[4, 8, 16] } else { &[10, 100, 1000] };
    let (n_aps, spacing_m, rounds) = (2, 4.0, 2);
    let cfg = NetConfig {
        drift_step_m: 0.15,
        ..NetConfig::milback(Fidelity::Fast)
    };
    let seed = 0xDE4E_5EED;

    telemetry::reset();
    let serial = density_sweep(densities, n_aps, spacing_m, rounds, cfg, seed, 1);
    let serial_view = telemetry::snapshot().deterministic_view().to_json(2);

    telemetry::reset();
    let parallel = density_sweep(densities, n_aps, spacing_m, rounds, cfg, seed, threads);
    let parallel_view = telemetry::snapshot().deterministic_view().to_json(2);

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.digest, p.digest, "density {} digest diverged", s.nodes);
        assert_eq!(s.completed, p.completed);
        assert_eq!(s.delivered, p.delivered);
        assert_eq!(s.fixes, p.fixes);
        assert_eq!(s.handoffs, p.handoffs);
        assert_eq!(s.overruns, p.overruns);
        assert_eq!(s.delivered_bits, p.delivered_bits);
        assert_eq!(s.goodput_bps.to_bits(), p.goodput_bps.to_bits());
    }
    assert_eq!(
        serial_view, parallel_view,
        "net telemetry deterministic views diverged"
    );

    // The view file holds only deterministic content: the per-density
    // table and the telemetry view, so two runs at different thread
    // counts (or in different processes) must produce identical bytes.
    if let Some(path) = view_path {
        let mut table = String::from("dense-network density sweep (deterministic view)\n");
        for p in &serial {
            table.push_str(&format!(
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
            ));
        }
        table.push_str(&serial_view);
        std::fs::write(path, &table).expect("failed to write net deterministic view");
        println!("net leg: wrote deterministic view to {path}");
    }

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

/// A finite float as 6-decimal JSON, `null` otherwise (the fixed arm
/// of a scenario that delivers nothing has infinite energy-per-byte,
/// and bare `inf` is not valid JSON).
fn json_f_or_null(v: f64) -> String {
    if v.is_finite() {
        json_f(v)
    } else {
        "null".to_string()
    }
}

/// One adaptive-leg CSV row (also reused for the deterministic view).
fn adaptive_csv_row(scenario: &str, variant: &str, o: &milback::AdaptiveOutcome) -> String {
    let epb = o.energy_per_byte_uj();
    format!(
        "{scenario},{variant},{},{},{},{},{},{},{},{},{},{},{}\n",
        o.sessions_ok + o.sessions_failed,
        o.delivered_bytes,
        o.offered_bytes,
        o.sessions_failed,
        json_f(o.elapsed_s),
        json_f(o.energy_uj),
        json_f(o.goodput_kbps()),
        if epb.is_finite() {
            json_f(epb)
        } else {
            "inf".to_string()
        },
        o.ook_sessions,
        o.trimmed_sessions,
        o.slowed_sessions,
    )
}

const ADAPTIVE_CSV_HEADER: &str = "scenario,variant,sessions,delivered_bytes,offered_bytes,\
     sessions_failed,elapsed_s,energy_uj,goodput_kbps,energy_per_byte_uj,ook_sessions,\
     trimmed_sessions,slowed_sessions\n";

/// Adaptive-link leg: the closed-loop [`milback::LinkPolicy`] controller
/// against the fixed configuration across the §14 fault menagerie
/// (DESIGN.md §18). Runs the paired sweep serially and at `threads`
/// workers, asserts the comparisons are identical (thread invariance),
/// and in full (non-smoke) runs writes `results/adaptive_chaos.{csv,txt}`
/// and requires adaptive to win on both metrics under >= 3 scenarios.
fn adaptive_leg(smoke: bool, threads: usize, view_path: Option<&str>) -> String {
    let (n_sessions, trials) = if smoke { (6, 1) } else { (20, 2) };
    let seed = 0xADA9_7001;

    let t0 = Instant::now();
    let serial = adaptive_sweep_with_threads(n_sessions, trials, seed, 1);
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = adaptive_sweep_with_threads(n_sessions, trials, seed, threads);
    let parallel_s = t0.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "adaptive sweep lost thread invariance");

    let mut csv = String::from(ADAPTIVE_CSV_HEADER);
    let mut table = String::from(
        "adaptive-vs-fixed chaos sweep (closed-loop LinkPolicy, DESIGN.md s18)\n\
         scenario          variant   deliv/offer  goodput_kbps  energy_uj/B  ook trim slow\n",
    );
    let mut wins = 0usize;
    for c in &serial {
        let name = c.scenario.name();
        csv.push_str(&adaptive_csv_row(name, "fixed", &c.fixed));
        csv.push_str(&adaptive_csv_row(name, "adaptive", &c.adaptive));
        for (variant, o) in [("fixed", &c.fixed), ("adaptive", &c.adaptive)] {
            table.push_str(&format!(
                "{name:<17} {variant:<9} {:>5}/{:<5}  {:>12}  {:>11}  {:>3} {:>4} {:>4}\n",
                o.delivered_bytes,
                o.offered_bytes,
                json_f(o.goodput_kbps()),
                if o.energy_per_byte_uj().is_finite() {
                    json_f(o.energy_per_byte_uj())
                } else {
                    "inf".to_string()
                },
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
    if let Some(path) = view_path {
        let view = format!("{csv}\n{table}");
        std::fs::write(path, &view).expect("failed to write adaptive deterministic view");
        println!("adaptive leg: wrote deterministic view to {path}");
    }

    let scenario_json: Vec<String> = serial
        .iter()
        .map(|c: &AdaptiveComparison| {
            let fixed = &c.fixed;
            let adaptive = &c.adaptive;
            format!(
                "      {{\n        \"scenario\": \"{}\",\n        \"fixed\": {{\n          \"delivered_bytes\": {},\n          \"offered_bytes\": {},\n          \"sessions_failed\": {},\n          \"goodput_kbps\": {},\n          \"energy_per_byte_uj\": {}\n        }},\n        \"adaptive\": {{\n          \"delivered_bytes\": {},\n          \"offered_bytes\": {},\n          \"sessions_failed\": {},\n          \"goodput_kbps\": {},\n          \"energy_per_byte_uj\": {},\n          \"ook_sessions\": {},\n          \"trimmed_sessions\": {},\n          \"slowed_sessions\": {}\n        }},\n        \"adaptive_wins\": {}\n      }}",
                c.scenario.name(),
                fixed.delivered_bytes,
                fixed.offered_bytes,
                fixed.sessions_failed,
                json_f(fixed.goodput_kbps()),
                json_f_or_null(fixed.energy_per_byte_uj()),
                adaptive.delivered_bytes,
                adaptive.offered_bytes,
                adaptive.sessions_failed,
                json_f(adaptive.goodput_kbps()),
                json_f_or_null(adaptive.energy_per_byte_uj()),
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

/// The next free `BENCH_<n>.json` name in `dir`: one past the highest
/// existing index (starting at 1).
fn next_bench_path(dir: &std::path::Path) -> String {
    let mut max = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
            {
                if let Ok(n) = num.parse::<u64>() {
                    max = max.max(n);
                }
            }
        }
    }
    format!("BENCH_{}.json", max + 1)
}

/// Timing passes per timed side; the fastest pass is reported. Min-of-N
/// is the standard estimator for true kernel cost on a shared host —
/// external interference only ever adds time — and it is what keeps the
/// CI regression gate (`--check-against`) from flaking on scheduler
/// noise.
const TIMING_PASSES: usize = 3;

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
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..SWEEPS {
            let mut acc = 0.0f64;
            for v in buf.iter_mut() {
                *v = *v * 0.999 + 0.0007;
                acc += *v * *v;
            }
            std::hint::black_box(acc);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&mut buf);
    }
    best
}

/// One timed kernel: runs `f` `reps` times per pass and returns the
/// fastest pass's µs per call.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_PASSES {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64 * 1e6);
    }
    best
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
    plan_n: usize,
    plan_reps: usize,
    unplanned_s: f64,
    planned_s: f64,
    plan_bitwise: bool,
    kernels_json: String,
    fft_fast_us: f64,
    burst_reps: usize,
    burst_ws_s: f64,
    burst_ws_allocs: u64,
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
        let stage = format!("uplink decimation stage {stages} (x{factor} from {fs} S/s)");
        assert_eq!(decimated.len(), strided.len(), "{stage}: length differs");
        let same = |(a, b): (&Cpx, &Cpx)| {
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
        };
        if let Some(i) = decimated.iter().zip(&strided).position(|p| !same(p)) {
            panic!(
                "{stage} diverged from filter + stride at output {i}: {:?} vs {:?}",
                decimated[i], strided[i]
            );
        }
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
/// [`ChannelWorkspace`]. Ray tables and gain curves are built cold and
/// then shared across chirps, antennas and nodes; the reference
/// evaluates every gain point per point. Returns the captures checked.
fn check_fabric_burst(seed: u64) -> usize {
    let target = Pose::facing_ap(3.2, deg_to_rad(-6.0), deg_to_rad(9.0));
    let net = Network::new(target, Fidelity::Fast, seed);
    let mut cfg = net.fidelity.sawtooth();
    cfg.amplitude = net.ap.tx.amplitude();
    let comp = TxComponent {
        signal: cfg.sawtooth(),
        profile: FreqProfile::Sawtooth(cfg),
    };
    let (fs, n) = (comp.signal.fs, comp.signal.len());
    let fp = wave_fingerprint(&comp);
    let sched_a = SwitchSchedule::SquareWave {
        freq_hz: net.fidelity.localization_mod_freq(),
        first: SwitchState::Reflective,
    };
    let sched_b = SwitchSchedule::Constant(SwitchState::Absorptive);
    let parked = [GammaRun {
        end: n,
        gamma: net.node.parked_gamma(),
    }];
    let neighbours = [
        Pose::facing_ap(2.6, deg_to_rad(4.0), deg_to_rad(-7.0)),
        Pose::facing_ap(4.1, deg_to_rad(-14.0), deg_to_rad(3.0)),
        Pose::facing_ap(3.6, deg_to_rad(11.0), deg_to_rad(15.0)),
    ];
    let mut cw = ChannelWorkspace::default();
    let mut runs = Vec::new();
    let mut out = Signal::zeros(fs, comp.signal.fc, 0);
    let mut captures = 0;
    for chirp in 0..5 {
        let gamma = |state| net.node.switch.gamma(state);
        let t_off = chirp as f64 * cfg.duration;
        fill_gamma_runs(&sched_a, &sched_b, gamma, t_off, fs, n, &mut runs);
        let node = |pose, gamma| NodeInterface {
            pose,
            fsa: &net.node.fsa,
            gamma,
        };
        let all = [
            node(target, &runs[..]),
            node(neighbours[0], &parked),
            node(neighbours[1], &parked),
            node(neighbours[2], &parked),
        ];
        let [target_if, parked_ifs @ ..] = &all;
        for ant in 0..2 {
            let only = std::slice::from_ref(target_if);
            net.scene
                .monostatic_rx_multi_into(&mut cw, &comp, fp, only, ant, &mut out);
            for nb in parked_ifs {
                net.scene
                    .accumulate_backscatter_into(&mut cw, &comp, fp, nb, ant, &mut out);
            }
            let reference = net.scene.monostatic_rx_multi_uncached(&comp, &all, ant);
            let same = |(x, y): (&Cpx, &Cpx)| {
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
            };
            if let Some(i) = out
                .samples
                .iter()
                .zip(&reference.samples)
                .position(|p| !same(p))
            {
                panic!(
                    "cold fabric burst chirp {chirp} antenna {ant} diverged from the uncached \
                     reference at sample {i}: {:?} vs {:?}",
                    out.samples[i], reference.samples[i]
                );
            }
            captures += 1;
        }
    }
    captures
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

    let t0 = Instant::now();
    let mut unplanned_out = Vec::new();
    for _ in 0..reps {
        unplanned_out = FftPlan::new(n).forward(&input);
    }
    let unplanned_s = t0.elapsed().as_secs_f64() / reps as f64;

    let t0 = Instant::now();
    let mut planned_out = Vec::new();
    for _ in 0..reps {
        planned_out = with_plan(n, |p| p.forward(&input));
    }
    let planned_s = t0.elapsed().as_secs_f64() / reps as f64;

    let bitwise = unplanned_out == planned_out && planned_out == reference;
    assert!(bitwise, "planned and unplanned FFT disagree");
    let fft_speedup = unplanned_s / planned_s;
    println!("fft plan ({n}-point, {reps} reps):");
    println!("  unplanned: {:.1} µs/fft", unplanned_s * 1e6);
    println!("  planned:   {:.1} µs/fft", planned_s * 1e6);
    println!("  speedup: {fft_speedup:.2}x (bitwise identical: {bitwise})");

    // ------------------------------------------------------------------
    // Per-kernel legs: the form of each DSP hot-path kernel a session
    // runs, into reused buffers.
    // ------------------------------------------------------------------
    let kernel_reps = if smoke { 5 } else { 100 };
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
    let dechirp_us = time_us(kernel_reps, || {
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
    let fft_us = time_us(kernel_reps, || {
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
    assert_eq!(
        wave_ref.samples, wave_tmpl.samples,
        "waveform template diverged"
    );
    let synth_us = time_us(kernel_reps, || {
        std::hint::black_box(synth_cfg.sawtooth());
    });
    let template_us = time_us(kernel_reps, || {
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
    let pose = Pose::facing_ap(3.0, deg_to_rad(5.0), 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, seed ^ 0xBEEF);
    let (burst_tx, burst_caps) = net.field2_captures();
    let localizer = net.localizer();
    let mut ws = DspWorkspace::new();

    // Warm the plan cache and the workspace buffers before counting.
    let burst_ref = localizer.process_with(&mut ws, &burst_tx, &burst_caps);

    // Allocations are counted across all passes (they are deterministic
    // per burst, so the division is exact).
    let a0 = alloc_count();
    let mut burst_out = burst_ref;
    let burst_ws_s = time_us(burst_reps, || {
        burst_out = localizer.process_with(&mut ws, &burst_tx, &burst_caps);
    }) * 1e-6;
    let burst_ws_allocs = (alloc_count() - a0) / (TIMING_PASSES * burst_reps) as u64;
    assert_eq!(burst_out, burst_ref, "burst output moved across reps");
    println!("localization burst (5 chirps x 2 antennas, {burst_reps} reps):");
    println!(
        "  workspace:  {:.2} ms/burst, {burst_ws_allocs} allocs/burst",
        burst_ws_s * 1e3
    );
    calib_us = calib_us.min(calibration_us());

    let kernels_json = [
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

    CoreLegs {
        plan_n: n,
        plan_reps: reps,
        unplanned_s,
        planned_s,
        plan_bitwise: bitwise,
        kernels_json,
        fft_fast_us: fft_us,
        burst_reps,
        burst_ws_s,
        burst_ws_allocs,
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

/// The CI regression gate: compares the range-FFT and burst legs against
/// a committed `BENCH_N.json` baseline and fails (returns false) if
/// either regressed by more than `REGRESSION_TOLERANCE`.
const REGRESSION_TOLERANCE: f64 = 0.10;

fn check_regression(baseline_path: &str, legs: &CoreLegs) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("regression check: cannot read {baseline_path}: {e}");
            return false;
        }
    };
    // When the baseline recorded a calibration time, gate on the kernel-
    // to-calibration ratio: absolute wall clocks on the shared CI host
    // swing 2x with neighbor load, but the fixed calibration workload
    // (see `calibration_us`) inflates right alongside the kernels, so
    // the ratio isolates genuine code slowdowns. Baselines without the
    // field fall back to absolute times.
    let base_calib = json_number_after(&text, "timing_calibration", "calib_us");
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
                "regression check: raw wall clock ({baseline_path} has no \
                 timing_calibration.calib_us)"
            );
            (1.0, 1.0)
        }
    };
    let mut ok = true;
    let mut gate = |name: &str, baseline: Option<f64>, current: f64, unit: &str| {
        let Some(base) = baseline else {
            eprintln!("regression check: {name} missing from {baseline_path}");
            ok = false;
            return;
        };
        let cur_n = current / cur_div;
        let base_n = base / base_div;
        let limit = base_n * (1.0 + REGRESSION_TOLERANCE);
        let verdict = if cur_n <= limit { "ok" } else { "REGRESSED" };
        println!(
            "regression check: {name}: {current:.3} {unit} (normalized {cur_n:.4}) vs \
             baseline {base:.3} {unit} (normalized {base_n:.4}, limit {limit:.4}) -- {verdict}"
        );
        if cur_n > limit {
            ok = false;
        }
    };
    gate(
        "range_fft fast path",
        json_number_after(&text, "range_fft", "fast_us"),
        legs.fft_fast_us,
        "us",
    );
    gate(
        "localization burst (workspace)",
        json_number_after(&text, "localization_burst", "workspace_ms_per_burst"),
        legs.burst_ws_s * 1e3,
        "ms",
    );
    ok
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

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_engine: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path = None;
    let mut smoke = false;
    let mut leg = None;
    let mut view = None;
    let mut kernels_only = false;
    let mut check_against = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next(),
            "--smoke" => smoke = true,
            "--leg" => {
                let name = args.next().unwrap_or_default();
                match LEGS.iter().find(|(n, _)| *n == name) {
                    Some(&l) => leg = Some(l),
                    None => usage_error(&format!(
                        "--leg takes one of chaos|serve|net|adaptive, got {name:?}"
                    )),
                }
            }
            "--view" => view = args.next(),
            "--kernels-only" => kernels_only = true,
            "--check-against" => check_against = args.next(),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if view.is_some() && leg.is_none() {
        usage_error("--view needs --leg");
    }
    let out_path = out_path.unwrap_or_else(|| next_bench_path(std::path::Path::new(".")));

    // The transform-core region on its own: the CI regression gate runs
    // this at full rep counts (stable timings) without paying for the
    // chaos/serve/net determinism legs.
    if kernels_only {
        let legs = core_legs(smoke, 0xB16B_00B5);
        if let Some(baseline) = check_against.as_deref() {
            let mut ok = check_regression(baseline, &legs);
            // Shared-host interference windows last several seconds and
            // can inflate a whole invocation (even the normalized ratio
            // moves when a neighbor evicts the kernels' working set);
            // bounded re-measures distinguish a real regression (fails
            // every time) from a noisy window (a retry lands clean).
            for attempt in 2..=3 {
                if ok {
                    break;
                }
                println!(
                    "regression check failed; re-measuring (attempt {attempt}/3) \
                     to rule out host noise"
                );
                let legs = core_legs(smoke, 0xB16B_00B5);
                ok = check_regression(baseline, &legs);
            }
            if !ok {
                eprintln!("regression check FAILED against {baseline}");
                std::process::exit(1);
            }
            println!("regression check passed against {baseline}");
        }
        return;
    }
    let bench_name = std::path::Path::new(&out_path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "BENCH".to_string());

    let trials = if smoke { 4 } else { 24 };
    let seed = 0xB16B_00B5;
    let threads = batch::thread_count();

    // One leg on its own: the cross-process determinism check ci.sh
    // runs at 1 and at 4 worker threads.
    if let Some((_, run)) = leg {
        run(smoke, threads, view.as_deref());
        return;
    }
    let stages = check_uplink_decimation(seed);
    println!(
        "uplink decimation: {stages} stages of a real capture, decimate_into bitwise \
         identical to filter + stride"
    );
    let captures = check_fabric_burst(seed);
    println!(
        "fabric burst: {captures} cold captures of a target plus 3 parked neighbours, \
         bitwise identical to the uncached reference"
    );

    // The determinism legs first: each resets telemetry for its own
    // serial/parallel view comparison, so they have to run before (not
    // inside) the measured region below.
    let [chaos_json, serve_json, net_json, adaptive_json] =
        LEGS.map(|(_, run)| run(smoke, threads, None));

    // Warm each thread's plan cache so the engine comparison measures
    // scheduling, not first-use table construction.
    let _ = batch::run_trials_with_threads(threads.max(2), seed, threads, trial);

    // The telemetry snapshot should describe the measured region only.
    telemetry::reset();

    println!("batch engine: {trials} localization trials, {threads} worker thread(s)");
    let t0 = Instant::now();
    let serial = batch::run_trials_with_threads(trials, seed, 1, trial);
    let serial_s = t0.elapsed().as_secs_f64();
    println!("  serial   (1 thread): {serial_s:.3} s");

    let t0 = Instant::now();
    let parallel = batch::run_trials_with_threads(trials, seed, threads, trial);
    let parallel_s = t0.elapsed().as_secs_f64();
    println!("  parallel ({threads} threads): {parallel_s:.3} s");

    assert_eq!(serial, parallel, "batch engine lost determinism");
    let engine_speedup = serial_s / parallel_s;
    println!("  speedup: {engine_speedup:.2}x (deterministic: outputs identical)");

    // FFT-plan comparison, per-kernel legs and the five-chirp burst.
    let legs = core_legs(smoke, seed);

    // ------------------------------------------------------------------
    // Channel synthesis: the cached workspace render (DESIGN.md §13)
    // against the uncached reference on the Fig. 12a scene — a single
    // monostatic render, then the burst-shaped workload (five chirps ×
    // two RX antennas, per-chirp Γ schedules), then the warm end-to-end
    // localization trial (render + process through every cache).
    // ------------------------------------------------------------------
    let chan_reps = if smoke { 3 } else { 40 };
    let chan_pose = Pose::facing_ap(3.0, deg_to_rad(5.0), 0.0);
    let chan_net = Network::new(chan_pose, Fidelity::Fast, seed ^ 0xC0FFEE);
    let mut chan_cfg = chan_net.fidelity.sawtooth();
    chan_cfg.amplitude = chan_net.ap.tx.amplitude();
    let chan_comp = TxComponent {
        signal: chan_cfg.sawtooth(),
        profile: FreqProfile::Sawtooth(chan_cfg),
    };
    let chan_fp = wave_fingerprint(&chan_comp);
    // Representative localization Γ: port A square-wave modulated, port
    // B absorptive, filled into runs per chirp offset (the cache never
    // keys on Γ — the runs are replayed on every render, hit or miss).
    let sched_a = SwitchSchedule::SquareWave {
        freq_hz: chan_net.fidelity.localization_mod_freq(),
        first: SwitchState::Reflective,
    };
    let sched_b = SwitchSchedule::Constant(SwitchState::Absorptive);
    let (chan_fs, chan_n) = (chan_comp.signal.fs, chan_comp.signal.len());
    let fill_runs = |t_off: f64, runs: &mut Vec<GammaRun>| {
        let gamma = |state| chan_net.node.switch.gamma(state);
        fill_gamma_runs(&sched_a, &sched_b, gamma, t_off, chan_fs, chan_n, runs);
    };
    let scene = &chan_net.scene;
    let mut cw = ChannelWorkspace::default();
    let mut chan_out = Signal::zeros(chan_comp.signal.fs, chan_comp.signal.fc, 0);

    // Bitwise check + warm-up for both antennas.
    let mut chan_runs = Vec::new();
    fill_runs(0.0, &mut chan_runs);
    let node_if = NodeInterface {
        pose: chan_net.node.pose,
        fsa: &chan_net.node.fsa,
        gamma: &chan_runs,
    };
    for ant in 0..2 {
        let reference =
            scene.monostatic_rx_multi_uncached(&chan_comp, std::slice::from_ref(&node_if), ant);
        scene.monostatic_rx_multi_into(
            &mut cw,
            &chan_comp,
            chan_fp,
            std::slice::from_ref(&node_if),
            ant,
            &mut chan_out,
        );
        assert_eq!(
            reference.samples, chan_out.samples,
            "cached channel render diverged from uncached (antenna {ant})"
        );
    }

    // Single render (antenna 0) A/B with allocation counts.
    let a0 = alloc_count();
    let t0 = Instant::now();
    for _ in 0..chan_reps {
        std::hint::black_box(scene.monostatic_rx_multi_uncached(
            &chan_comp,
            std::slice::from_ref(&node_if),
            0,
        ));
    }
    let chan_uncached_s = t0.elapsed().as_secs_f64() / chan_reps as f64;
    let chan_uncached_allocs = (alloc_count() - a0) / chan_reps as u64;

    let a0 = alloc_count();
    let t0 = Instant::now();
    for _ in 0..chan_reps {
        scene.monostatic_rx_multi_into(
            &mut cw,
            &chan_comp,
            chan_fp,
            std::slice::from_ref(&node_if),
            0,
            &mut chan_out,
        );
        std::hint::black_box(&chan_out);
    }
    let chan_cached_s = t0.elapsed().as_secs_f64() / chan_reps as f64;
    let chan_cached_allocs = (alloc_count() - a0) / chan_reps as u64;
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

    // Burst-shaped workload: five chirps × two antennas with one Γ-run
    // fill per chirp offset, exactly the renders behind one Field-2
    // capture.
    let chirp_t = chan_cfg.duration;
    let burst_render_cached =
        |cw: &mut ChannelWorkspace, runs: &mut Vec<GammaRun>, out: &mut Signal| {
            for chirp in 0..5 {
                fill_runs(chirp as f64 * chirp_t, runs);
                let node_if = NodeInterface {
                    pose: chan_net.node.pose,
                    fsa: &chan_net.node.fsa,
                    gamma: runs,
                };
                for ant in 0..2 {
                    scene.monostatic_rx_multi_into(
                        cw,
                        &chan_comp,
                        chan_fp,
                        std::slice::from_ref(&node_if),
                        ant,
                        out,
                    );
                    std::hint::black_box(&out);
                }
            }
        };
    let burst_render_uncached = || {
        for chirp in 0..5 {
            let mut runs = Vec::new();
            fill_runs(chirp as f64 * chirp_t, &mut runs);
            let node_if = NodeInterface {
                pose: chan_net.node.pose,
                fsa: &chan_net.node.fsa,
                gamma: &runs,
            };
            for ant in 0..2 {
                std::hint::black_box(scene.monostatic_rx_multi_uncached(
                    &chan_comp,
                    std::slice::from_ref(&node_if),
                    ant,
                ));
            }
        }
    };

    let t0 = Instant::now();
    for _ in 0..chan_reps {
        burst_render_uncached();
    }
    let chan_burst_uncached_s = t0.elapsed().as_secs_f64() / chan_reps as f64;

    let a0 = alloc_count();
    let t0 = Instant::now();
    for _ in 0..chan_reps {
        burst_render_cached(&mut cw, &mut chan_runs, &mut chan_out);
    }
    let chan_burst_cached_s = t0.elapsed().as_secs_f64() / chan_reps as f64;
    let chan_burst_allocs = (alloc_count() - a0) / chan_reps as u64;
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
    let mut e2e_net = Network::new(chan_pose, Fidelity::Fast, seed ^ 0xE2E);
    assert!(
        e2e_net.localize().is_some(),
        "end-to-end trial found no node"
    );
    let a0 = alloc_count();
    let t0 = Instant::now();
    for _ in 0..e2e_reps {
        std::hint::black_box(e2e_net.localize());
    }
    let e2e_s = t0.elapsed().as_secs_f64() / e2e_reps as f64;
    let e2e_allocs = (alloc_count() - a0) / e2e_reps as u64;
    println!("end-to-end trial (render + process, warm, {e2e_reps} reps):");
    println!("  {:.2} ms/trial, {e2e_allocs} allocs/trial", e2e_s * 1e3);

    // Link leg: a handful of end-to-end transfers so the snapshot carries
    // node/proto/link counters alongside the localization stages.
    let link_trials = if smoke { 1 } else { 4 };
    let t0 = Instant::now();
    let link_errors = batch::run_trials(link_trials, seed ^ 0x1111, link_trial);
    let link_s = t0.elapsed().as_secs_f64();
    let total_errors: u64 = link_errors.iter().sum();
    println!("link leg: {link_trials} downlink+uplink transfers in {link_s:.3} s ({total_errors} bit errors)");

    let telemetry_json = if telemetry::enabled() {
        let snap = telemetry::snapshot();
        // Indent the snapshot to sit two levels deep in the output object.
        snap.to_json(2).replace('\n', "\n  ")
    } else {
        "null".to_string()
    };

    let calib_us_str = json_f(legs.calib_us);
    let json = format!(
        "{{\n  \"bench\": \"{bench_name}\",\n  \"description\": \"Batch-engine, FFT-plan, per-kernel and five-chirp-burst timings on a Fig. 12a localization workload, plus a short end-to-end link leg and the chaos and serving-soak determinism legs\",\n  \"host_threads\": {threads},\n  \"smoke\": {smoke},\n  \"timing_calibration\": {{\n    \"workload\": \"fixed pure-FP recurrence; host-speed reference for the CI ratio gate\",\n    \"calib_us\": {calib_us_str}\n  }},\n  \"engine\": {{\n    \"workload\": \"localization trial, node at 3 m, Fidelity::Fast\",\n    \"trials\": {trials},\n    \"serial_s\": {},\n    \"parallel_s\": {},\n    \"speedup\": {},\n    \"deterministic\": true\n  }},\n  \"fft_plan\": {{\n    \"size\": {},\n    \"reps\": {},\n    \"unplanned_us_per_fft\": {},\n    \"planned_us_per_fft\": {},\n    \"speedup\": {},\n    \"bitwise_identical\": {}\n  }},\n  \"kernels\": {{\n{}\n  }},\n  \"localization_burst\": {{\n    \"workload\": \"five-chirp Field-2 burst, 2 RX antennas, Fidelity::Fast\",\n    \"reps\": {},\n    \"workspace_ms_per_burst\": {},\n    \"workspace_allocs_per_burst\": {},\n    \"deterministic\": true\n  }},\n  \"channel_render\": {{\n    \"workload\": \"single monostatic render, milback_indoor scene, node at 3 m\",\n    \"reps\": {chan_reps},\n    \"uncached_ms_per_render\": {},\n    \"cached_ms_per_render\": {},\n    \"speedup\": {},\n    \"uncached_allocs_per_render\": {chan_uncached_allocs},\n    \"cached_allocs_per_render\": {chan_cached_allocs},\n    \"bitwise_identical\": true\n  }},\n  \"channel_burst\": {{\n    \"workload\": \"five-chirp x two-antenna Field-2 channel render, per-chirp gamma runs\",\n    \"reps\": {chan_reps},\n    \"uncached_ms_per_burst\": {},\n    \"cached_ms_per_burst\": {},\n    \"speedup\": {},\n    \"cached_allocs_per_burst\": {chan_burst_allocs}\n  }},\n  \"end_to_end_trial\": {{\n    \"workload\": \"warm Fig. 12a localization trial: channel render + DSP pipeline through every cache\",\n    \"reps\": {e2e_reps},\n    \"ms_per_trial\": {},\n    \"allocs_per_trial\": {e2e_allocs}\n  }},\n  \"link_leg\": {{\n    \"trials\": {link_trials},\n    \"elapsed_s\": {},\n    \"total_bit_errors\": {total_errors}\n  }},\n  \"adaptive\": {adaptive_json},\n  \"net\": {net_json},\n  \"serve\": {serve_json},\n  \"chaos\": {chaos_json},\n  \"telemetry\": {telemetry_json}\n}}\n",
        json_f(serial_s),
        json_f(parallel_s),
        json_f(engine_speedup),
        legs.plan_n,
        legs.plan_reps,
        json_f(legs.unplanned_s * 1e6),
        json_f(legs.planned_s * 1e6),
        json_f(legs.unplanned_s / legs.planned_s),
        legs.plan_bitwise,
        legs.kernels_json,
        legs.burst_reps,
        json_f(legs.burst_ws_s * 1e3),
        legs.burst_ws_allocs,
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

    if let Some(baseline) = check_against.as_deref() {
        if !check_regression(baseline, &legs) {
            eprintln!("regression check FAILED against {baseline}");
            std::process::exit(1);
        }
        println!("regression check passed against {baseline}");
    }
}
