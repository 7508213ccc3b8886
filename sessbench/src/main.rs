//! Session benchmark for the milback stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path sessbench/Cargo.toml -- \
//!     --workload localize|exchange|fabric --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads, each built from `--seed` and sized from `--seconds`
//! (the same seed and seconds give the same inputs, digests and work
//! counts). `--trace 0` times the workload untraced and prints the
//! end-to-end metrics; `--trace 1` repeats it with telemetry on, replays
//! every session stage by stage under spans, and prints the per-layer
//! metrics. Informational lines (checks, digests, calibration, the
//! per-layer breakdown) come first; the last line is one JSON object.
//! See `sessbench/README.md` for what each workload and metric means.

mod fabric_wl;
mod replay;
mod report;
mod serve_wl;
mod stats;
mod trace;

use report::MetricDef;
use std::process::ExitCode;

/// Metrics of `--trace 0`, as listed under `end_to_end` in
/// `BENCHMARK.json`. Each is defined and nonzero on every workload.
pub const END_TO_END: &[MetricDef] = &[
    ("sessions_per_s", "1/s"),
    ("session_p50_ms", "ms"),
    ("setup_s", "s"),
    ("delivered_frac", "ratio"),
];

/// Metrics of `--trace 1`, as listed under `per_layer` in
/// `BENCHMARK.json`. The first four are end-to-end figures that either
/// exist on only some workloads or spread across seeds by more than any
/// bound allows; a metric a workload does not produce reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("peak_rss_mb", "MB"),
    ("session_p90_ms", "ms"),
    ("failed_frac", "ratio"),
    ("range_err_p50_cm", "cm"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed_frac", "ratio"),
    ("serve.depth_peak", "count"),
    ("session.self_ms", "ms"),
    ("session.mode_retries", "count"),
    ("session.arq_retries", "count"),
    ("session.chirp_fallbacks", "count"),
    ("protocol.field1_ms", "ms"),
    ("node.orient_ms", "ms"),
    ("rf.field2_render_ms", "ms"),
    ("rf.ray_hit_frac", "ratio"),
    ("rf.interference_rays_per_slot", "count"),
    ("ap.localize_ms", "ms"),
    ("ap.orient_ms", "ms"),
    ("ap.fft_points_per_fix", "count"),
    ("link.downlink_ms", "ms"),
    ("link.uplink_ms", "ms"),
    ("link.bit_error_rate", "ratio"),
    ("proto.crc_fail_frac", "ratio"),
    ("net.round_ms", "ms"),
    ("net.scaling_2w", "x"),
    ("net.handoffs", "count"),
    ("dsp.plan_miss_after_warm", "count"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sessbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calib_before_us = report::calibration_us();
    let mut rep = match args.workload.as_str() {
        "localize" => serve_wl::run(&serve_wl::LOCALIZE, args.seed, args.seconds, args.trace),
        "exchange" => serve_wl::run(&serve_wl::EXCHANGE, args.seed, args.seconds, args.trace),
        "fabric" => fabric_wl::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("sessbench: unknown workload {other} (localize, exchange, fabric)");
            return ExitCode::from(2);
        }
    };
    rep.set("peak_rss_mb", report::peak_rss_mb());
    let calib_after_us = report::calibration_us();
    rep.line(format!(
        "host   calibration {calib_before_us:.1} us before, {calib_after_us:.1} us after \
         (x{:.3}); threads available {}",
        calib_after_us / calib_before_us,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));

    println!(
        "sessbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for l in &rep.lines {
        println!("{l}");
    }
    for l in rep.table("end-to-end", END_TO_END) {
        println!("{l}");
    }
    if args.trace {
        for l in rep.table("per-layer", PER_LAYER) {
            println!("{l}");
        }
    }
    println!(
        "{}",
        rep.json(if args.trace { PER_LAYER } else { END_TO_END })
    );
    ExitCode::SUCCESS
}
