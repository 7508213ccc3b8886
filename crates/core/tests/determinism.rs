//! Cross-process determinism of the three deterministic workloads: chaos
//! sessions under sampled fault plans (DESIGN.md §14.3), a Poisson
//! serving schedule past the virtual server's capacity (§15.3) and the
//! two-AP fabric with drift, handoffs and interference (§16.4).
//!
//! `tests/{chaos,serve,net,telemetry}.rs` compare one worker with many
//! inside one process. This test runs each workload in a fresh process
//! instead: it re-runs its own test binary once per leg at
//! `MILBACK_THREADS=1` and at `=4`, with `MILBACK_TELEMETRY=1`, and
//! asserts that the two telemetry deterministic views are byte-identical.
//! A difference that only shows between processes (hash seeds, address
//! order, lazily initialised state) fails here and nowhere else.
//!
//! Each child is one of the `#[ignore]`d `*_leg` tests below, which runs
//! its workload once at `batch::thread_count()` and prints the view
//! between two marker lines. In a release build the six children take
//! about 13 s on a 2-core host; in a debug build about 100 s, which is
//! why this test lives in the `milback` crate and not in the root
//! package's tier-1 suite. To print one leg's view by hand:
//! `MILBACK_TELEMETRY=1 MILBACK_THREADS=1 cargo test --release -p milback
//! --test determinism -- --ignored --exact chaos_leg --nocapture`.

use milback::batch::{self, derive_seed};
use milback::chaos::{chaos_sweep_with_threads, ChaosPoint};
use milback::net::{ap_line, net_roster, Fabric, NetConfig};
use milback::serve::roster;
use milback::{Fidelity, ServeConfig, ServeEngine, TrafficConfig, TrafficSchedule};
use milback_telemetry as telemetry;
use std::process::Command;

/// The line before a child's view on its stdout.
const BEGIN: &str = "=== deterministic view begin ===";
/// The line after it.
const END: &str = "=== deterministic view end ===";

/// The legs, by the name of the child test that runs each.
const LEGS: [&str; 3] = ["chaos_leg", "serve_leg", "net_leg"];

/// The registry's deterministic view of `run` at this process's thread
/// count, after a reset.
fn view_of(run: impl FnOnce(usize)) -> String {
    assert!(
        telemetry::enabled(),
        "a leg's view is empty with telemetry off: run it with MILBACK_TELEMETRY=1"
    );
    telemetry::reset();
    run(batch::thread_count());
    telemetry::snapshot().deterministic_view().to_json(2)
}

fn print_view(view: &str) {
    println!("\n{BEGIN}\n{view}\n{END}");
}

/// Supervised sessions under sampled fault plans: three trials at each
/// of three intensities.
#[test]
#[ignore = "a child process of views_are_byte_identical_across_processes_and_thread_counts"]
fn chaos_leg() {
    let points = [(0.0, 2.0), (0.5, 2.0), (0.9, 3.0)]
        .map(|(intensity, range_m)| ChaosPoint { intensity, range_m });
    print_view(&view_of(|threads| {
        chaos_sweep_with_threads(&points, 3, 0xC4A0_5EED, threads);
    }));
}

/// 24 mixed sessions for four nodes, offered at 1.8× the virtual
/// service rate so the shedding policy engages, at fault intensity 0.25.
#[test]
#[ignore = "a child process of views_are_byte_identical_across_processes_and_thread_counts"]
fn serve_leg() {
    let traffic = TrafficConfig {
        nodes: 4,
        sessions: 24,
        rate_hz: 60.0,
        fault_intensity: 0.25,
        ..TrafficConfig::milback()
    };
    let seed = 0x5E12_F00D;
    let schedule = TrafficSchedule::generate(&traffic, seed);
    let poses = roster(traffic.nodes, seed);
    print_view(&view_of(|threads| {
        ServeEngine::new(&poses, ServeConfig::milback()).serve_schedule(&schedule, threads);
    }));
}

/// Two APs 4 m apart, two polling rounds at each of 4, 8 and 16 nodes,
/// with 0.15 m of drift per round. The view starts with one row per
/// density of the rounds' deterministic totals and their folded digest.
#[test]
#[ignore = "a child process of views_are_byte_identical_across_processes_and_thread_counts"]
fn net_leg() {
    let seed: u64 = 0xDE4E_5EED;
    let cfg = NetConfig {
        drift_step_m: 0.15,
        ..NetConfig::milback(Fidelity::Fast)
    };
    let aps = ap_line(2, 4.0);
    let mut table = String::from("dense-network density sweep (deterministic view)\n");
    let view = view_of(|threads| {
        for nodes in [4, 8, 16] {
            let poses = net_roster(nodes, &aps, derive_seed(seed, nodes as u64));
            let mut fabric = Fabric::new(&aps, &poses, cfg);
            // The rounds' master seed, salted apart from the roster's.
            fabric.reseed(derive_seed(seed ^ 0x0E75_0E75, nodes as u64));
            let rounds: Vec<_> = (0..2).map(|_| fabric.run_round(threads)).collect();
            let sum = |f: fn(&milback::RoundReport) -> usize| rounds.iter().map(f).sum::<usize>();
            let bits: u64 = rounds.iter().map(|r| r.delivered_bits).sum();
            let airtime_s: f64 = rounds.iter().map(|r| r.round_airtime_s).sum();
            let goodput_bps = if airtime_s > 0.0 {
                bits as f64 / airtime_s
            } else {
                0.0
            };
            let digest = rounds.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, r| {
                (h ^ r.digest).wrapping_mul(0x0000_0100_0000_01b3)
            });
            table.push_str(&format!(
                "nodes={nodes} aps={} rounds={} sessions={} completed={} delivered={} \
                 fixes={} handoffs={} overruns={} bits={bits} goodput_bps={goodput_bps:.6} \
                 digest={digest:#018x}\n",
                aps.len(),
                rounds.len(),
                sum(|r| r.sessions),
                sum(|r| r.completed),
                sum(|r| r.delivered),
                sum(|r| r.fixes),
                sum(|r| r.handoffs),
                sum(|r| r.overruns),
            ));
        }
    });
    print_view(&(table + &view));
}

/// Runs the child test `leg` of this binary at `threads` workers with
/// telemetry on and returns the view it printed.
fn child_view(leg: &str, threads: usize) -> String {
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args([
            leg,
            "--exact",
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("MILBACK_THREADS", threads.to_string())
        .env("MILBACK_TELEMETRY", "1")
        .output()
        .expect("the test binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{leg} at {threads} threads failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let view = stdout
        .split_once(&format!("\n{BEGIN}\n"))
        .and_then(|(_, rest)| rest.split_once(&format!("\n{END}\n")))
        .map(|(view, _)| view.to_string());
    view.unwrap_or_else(|| panic!("{leg} at {threads} threads printed no view:\n{stdout}"))
}

#[test]
fn views_are_byte_identical_across_processes_and_thread_counts() {
    for leg in LEGS {
        let [one, four] = [1, 4].map(|threads| child_view(leg, threads));
        assert!(one.len() > 100, "{leg}: view too short to compare:\n{one}");
        if let Some((line, (a, b))) = one
            .lines()
            .zip(four.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            panic!(
                "{leg}: deterministic views diverge at line {}: {a:?} at 1 thread, {b:?} at 4",
                line + 1
            );
        }
        assert_eq!(one, four, "{leg}: deterministic views differ in length");
    }
}
