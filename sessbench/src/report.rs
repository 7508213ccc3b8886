//! Result assembly: named metrics with units, the human-readable report
//! and the final one-line JSON object.

use crate::replay;
use crate::stats::{ratio, Reconciliation, Tally};
use crate::trace::{self, Tracer};
use milback_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, as listed in `BENCHMARK.json`.
pub type MetricDef = (&'static str, &'static str);

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    /// Output checks passed.
    pub correct: bool,
    /// Outcome counts; `attempted` and `refused()` go on the JSON line.
    pub tally: Tally,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Informational lines printed before the JSON (digests, checks,
    /// calibration, breakdown tables).
    pub lines: Vec<String>,
}

impl Report {
    /// A report whose checks have all passed so far.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds an informational line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Records an output check; any failure makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.line(format!(
            "check  {:<48} {}",
            what,
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    /// Human-readable table of `defs`, one metric per line with its unit.
    pub fn table(&self, title: &str, defs: &[MetricDef]) -> Vec<String> {
        let mut out = vec![format!("{title}:")];
        for &(name, unit) in defs {
            match self.values.get(name) {
                Some(v) => out.push(format!("  {name:<32} {v:>14.4} {unit}")),
                None => out.push(format!("  {name:<32} {:>14} {unit}", "n/a")),
            }
        }
        out
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`
    /// with exactly the metrics in `defs`. A metric this workload does
    /// not produce reads 0.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.tally.attempted,
            self.tally.refused()
        );
        for (i, &(name, unit)) in defs.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// Counter value, 0 when never recorded.
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Histogram sum, 0 when never recorded.
pub fn hist_sum(snap: &Snapshot, name: &str) -> u128 {
    snap.histograms.get(name).map_or(0, |h| h.sum)
}

/// FNV-1a over the deterministic telemetry view (every counter and
/// histogram that is neither wall-clock nor per-thread), so two runs'
/// work counts compare with one number.
pub fn counts_digest(snap: &Snapshot) -> u64 {
    let view = snap.deterministic_view();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, v) in &view.counters {
        eat(name.as_bytes());
        eat(&v.to_le_bytes());
    }
    for (name, hs) in &view.histograms {
        eat(name.as_bytes());
        eat(&hs.count.to_le_bytes());
        eat(&hs.sum.to_le_bytes());
    }
    h
}

/// Maps the telemetry snapshot of a timed pass onto the per-layer work
/// counts. `sessions` is the per-slot denominator (executed sessions or
/// fabric slots). Counts are deterministic per seed and size; the
/// `.local` ones (ray cache, FFT plans) only at a fixed worker count.
pub fn layer_counts(rep: &mut Report, snap: &Snapshot, sessions: u64) {
    let c = |name: &str| counter(snap, name);
    rep.set("session.mode_retries", c("core.session.mode_retry") as f64);
    rep.set("session.arq_retries", c("core.session.arq_retry") as f64);
    rep.set("session.chirp_fallbacks", c("core.session.fallback") as f64);
    let (hit, miss) = (c("rf.ray.cache.hit.local"), c("rf.ray.cache.miss.local"));
    rep.set("rf.ray_hit_frac", ratio(hit, hit + miss));
    rep.set(
        "rf.interference_rays_per_slot",
        ratio(c("net.interference.rays"), sessions),
    );
    // `ap.cfar.cells` is printed below but not a metric: the localizer's
    // peak search never reaches `CfarDetector`, so it reads 0 on every
    // session path.
    let fixes = c("ap.localize.fixes");
    let fft_points = u64::try_from(hist_sum(snap, "dsp.fft.size")).unwrap_or(u64::MAX);
    rep.set("ap.fft_points_per_fix", ratio(fft_points, fixes));
    let bits = c("core.link.downlink.bits") + c("core.link.uplink.bits");
    let errors = c("core.link.downlink.bit_errors") + c("core.link.uplink.bit_errors");
    rep.set("link.bit_error_rate", ratio(errors, bits));
    let (crc_ok, crc_fail) = (c("proto.crc.ok"), c("proto.crc.fail"));
    rep.set("proto.crc_fail_frac", ratio(crc_fail, crc_ok + crc_fail));
    rep.set(
        "dsp.plan_miss_after_warm",
        c("dsp.plan_cache.miss.local") as f64,
    );
    rep.line(format!(
        "counts deterministic-view digest {:#018x}; fixes {fixes}, cfar cells {}, fft points \
         {fft_points}, ray hits {hit}/{}, interference rays {}, link bits {bits} ({errors} \
         errors), crc {crc_ok} ok/{crc_fail} fail, mode retries {}, arq retries {}, plan misses {}",
        counts_digest(snap),
        c("ap.cfar.cells"),
        hit + miss,
        c("net.interference.rays"),
        c("core.session.mode_retry"),
        c("core.session.arq_retry"),
        c("dsp.plan_cache.miss.local"),
    ));
}

/// Turns a traced replay into per-layer self times, reconciles them
/// against `session_ns` (untraced host time of the same work) and writes
/// the spans out. `extra` is a stage measured outside the replay (the
/// serving overhead), counted in the reconciliation like any stage.
pub fn attribution(
    rep: &mut Report,
    tr: &Tracer,
    stem: &str,
    session_ns: f64,
    extra: Option<(&str, f64)>,
) {
    let st = tr.stage_times();
    let per_call = |name: &str| st.get(name).map_or(0.0, |t| t.self_ms_per_call());
    rep.set("session.self_ms", per_call(replay::SESSION));
    for (metric, stage) in [
        ("protocol.field1_ms", replay::FIELD1),
        ("node.orient_ms", replay::NODE_ORIENT),
        ("rf.field2_render_ms", replay::FIELD2_RENDER),
        ("ap.localize_ms", replay::AP_LOCALIZE),
        ("ap.orient_ms", replay::AP_ORIENT),
        ("link.downlink_ms", replay::DOWNLINK),
        ("link.uplink_ms", replay::UPLINK),
    ] {
        rep.set(metric, per_call(stage));
    }
    let replay_ns: f64 = st.values().map(|t| t.self_ns as f64).sum();
    let extra_ns = extra.map_or(0.0, |(_, ns)| ns);
    let recon = Reconciliation {
        session_ns,
        stage_self_ns: replay_ns + extra_ns,
    };
    rep.set("trace.residual_frac", recon.residual_frac());
    let cost_ns = trace::span_cost_ns();
    rep.set(
        "trace.overhead_frac",
        tr.spans().len() as f64 * cost_ns / replay_ns.max(1.0),
    );

    rep.line(format!(
        "breakdown  untraced session time {:.1} ms = 100%; self time per stage:",
        session_ns / 1e6
    ));
    rep.line(format!(
        "  {:<22} {:>7} {:>11} {:>9} {:>7}",
        "stage", "calls", "self ms", "ms/call", "share"
    ));
    let share = |ns: f64| 100.0 * ns / session_ns.max(1.0);
    if let Some((name, ns)) = extra {
        rep.line(format!(
            "  {name:<22} {:>7} {:>11.1} {:>9} {:>6.1}%",
            "-",
            ns / 1e6,
            "-",
            share(ns)
        ));
    }
    for (name, t) in &st {
        rep.line(format!(
            "  {name:<22} {:>7} {:>11.1} {:>9.3} {:>6.1}%",
            t.calls,
            t.self_ns as f64 / 1e6,
            t.self_ms_per_call(),
            share(t.self_ns as f64)
        ));
    }
    rep.line(format!(
        "  {:<22} {:>7} {:>11.1} {:>9} {:>6.1}%",
        "residual",
        "-",
        recon.residual_ns() / 1e6,
        "-",
        share(recon.residual_ns())
    ));
    rep.line(format!(
        "trace  {} spans at {cost_ns:.0} ns each",
        tr.spans().len()
    ));

    let dir = std::path::Path::new(
        &std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    )
    .join("sessbench");
    let path = dir.join(format!("spans-{stem}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
        Ok(()) => rep.line(format!("trace  spans written to {}", path.display())),
        Err(e) => rep.line(format!(
            "trace  spans not written ({}): {e}",
            path.display()
        )),
    }
}

/// The set-up times of one run, in the order they were taken, `reps`
/// to a group.
pub fn setup_line(setups: &[f64], reps: usize) -> String {
    let groups: Vec<String> = setups
        .chunks(reps)
        .map(|g| {
            let times: Vec<String> = g.iter().map(|s| format!("{s:.3}")).collect();
            times.join(" ")
        })
        .collect();
    format!("setup  s: {}", groups.join(" | "))
}

/// Peak resident set of this process, MB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixed pure-FP workload, min of five passes, microseconds: the same
/// recurrence `bench_engine` calibrates with. It touches no library
/// code, so a change in it between runs is the host, not the program.
pub fn calibration_us() -> f64 {
    const N: usize = 1 << 16;
    const SWEEPS: usize = 16;
    let mut buf: Vec<f64> = (0..N).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_every_listed_metric() {
        let mut r = Report::new();
        r.tally.attempted = 3;
        r.tally.shed = 1;
        r.set("session_p50_ms", 1.25);
        r.set("setup_s", f64::NAN);
        r.set("unlisted", 9.0);
        let defs = [
            ("session_p50_ms", "ms"),
            ("setup_s", "s"),
            ("absent", "count"),
        ];
        assert_eq!(
            r.json(&defs),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"session_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"absent\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_check_marks_the_run_incorrect() {
        let mut r = Report::new();
        r.check("a", true);
        assert!(r.correct);
        r.check("b", false);
        r.check("c", true);
        assert!(!r.correct);
    }
}
