//! Point-in-time snapshots of the registry and their JSON encoding.
//!
//! A [`Snapshot`] is an ordinary data structure (sorted maps, no locks)
//! produced by [`crate::snapshot()`]; [`Snapshot::to_json`] renders it as
//! a self-contained JSON object, the form in which the determinism tests
//! compare deterministic views byte for byte. The encoder is hand-rolled
//! (the workspace builds offline, without serde) and emits keys in sorted
//! order so snapshots diff cleanly.

use crate::hist::{bucket_upper_bound, Histogram};
use std::collections::BTreeMap;

/// Aggregated view of one histogram, merge of every shard's buckets,
/// keeping only the non-empty buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: u128,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation (`0` when empty).
    pub max: u64,
    /// `(inclusive upper bound, count)` for each non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]` (`None` when
    /// empty). Resolution is the power-of-two bucket width: the value
    /// returned is the inclusive upper bound of the bucket holding the
    /// rank, clamped into `[min, max]` so `quantile(0.0)` and
    /// `quantile(1.0)` are exact. (The serve report's p50/p99 session
    /// latencies are computed from the raw samples instead; this is the
    /// coarse view available from a telemetry snapshot alone.)
    ///
    /// ```
    /// use milback_telemetry::{Histogram, HistogramSnapshot};
    /// let mut h = Histogram::new();
    /// for v in [1u64, 2, 3, 1000] {
    ///     h.record(v);
    /// }
    /// let s = HistogramSnapshot::from(&h);
    /// assert_eq!(s.quantile(0.0), Some(1));
    /// assert_eq!(s.quantile(1.0), Some(1000));
    /// assert!(s.quantile(0.5).unwrap() <= 3);
    /// ```
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(ub, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(ub.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

impl From<&Histogram> for HistogramSnapshot {
    /// The snapshot of one (shard-merged) histogram.
    fn from(h: &Histogram) -> Self {
        Self {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_upper_bound(i), c))
                .collect(),
        }
    }
}

/// A consistent point-in-time aggregate of every metric.
///
/// ```
/// milback_telemetry::set_enabled(true);
/// milback_telemetry::reset();
/// milback_telemetry::counter_add("doc.snapshot.events", 1);
/// let snap = milback_telemetry::snapshot();
/// let json = snap.to_json(2);
/// assert!(json.contains("\"doc.snapshot.events\": 1"));
/// milback_telemetry::set_enabled(false);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters, summed across shards.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, merged across shards by maximum.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms, bucket-wise sums across shards.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The thread-count-invariant subset: drops all gauges, every
    /// histogram whose name ends in `.ns` (wall-clock durations) and
    /// every metric whose name ends in `.local` (per-thread cache
    /// state). For the remaining metrics, a parallel `milback::batch`
    /// run and a serial run of the same trials produce equal snapshots —
    /// the property the integration tests pin down.
    ///
    /// ```
    /// milback_telemetry::set_enabled(true);
    /// milback_telemetry::reset();
    /// milback_telemetry::counter_add("doc.det.frames", 1);
    /// milback_telemetry::counter_add("doc.det.cache_miss.local", 1);
    /// milback_telemetry::observe("doc.det.elapsed.ns", 1500);
    /// milback_telemetry::gauge_set("doc.det.threads", 8.0);
    /// let det = milback_telemetry::snapshot().deterministic_view();
    /// assert!(det.counters.contains_key("doc.det.frames"));
    /// assert!(!det.counters.contains_key("doc.det.cache_miss.local"));
    /// assert!(det.histograms.is_empty());
    /// assert!(det.gauges.is_empty());
    /// milback_telemetry::set_enabled(false);
    /// ```
    pub fn deterministic_view(&self) -> Snapshot {
        let keep = |name: &str| !name.ends_with(".ns") && !name.ends_with(".local");
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: BTreeMap::new(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Renders the snapshot as a JSON object indented by `indent`
    /// spaces per level. Histograms appear as
    /// `{"count", "sum", "min", "max", "mean", "buckets"}` with buckets
    /// keyed by their inclusive upper bound.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = |lvl: usize| " ".repeat(indent * lvl);
        let mut out = String::from("{\n");

        out.push_str(&format!("{}\"counters\": {{", pad(1)));
        push_map(&mut out, &self.counters, indent, 2, |v| v.to_string());
        out.push_str("},\n");

        out.push_str(&format!("{}\"gauges\": {{", pad(1)));
        push_map(&mut out, &self.gauges, indent, 2, json_f64);
        out.push_str("},\n");

        out.push_str(&format!("{}\"histograms\": {{", pad(1)));
        let entries: Vec<(String, String)> = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), hist_json(h, indent, 3)))
            .collect();
        push_map_raw(&mut out, &entries, indent, 2);
        out.push_str("}\n");

        out.push('}');
        out
    }
}

/// Minimal JSON string escaping (metric names are plain identifiers, but
/// correctness is cheap).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: &f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn push_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    indent: usize,
    lvl: usize,
    render: impl Fn(&V) -> String,
) {
    let entries: Vec<(String, String)> = map.iter().map(|(k, v)| (k.clone(), render(v))).collect();
    push_map_raw(out, &entries, indent, lvl);
}

fn push_map_raw(out: &mut String, entries: &[(String, String)], indent: usize, lvl: usize) {
    let pad = " ".repeat(indent * lvl);
    let pad_close = " ".repeat(indent * (lvl - 1));
    for (i, (k, v)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!("\n{pad}\"{}\": {v}{comma}", escape(k)));
    }
    if entries.is_empty() {
        // `{}` stays on one line.
    } else {
        out.push('\n');
        out.push_str(&pad_close);
    }
}

fn hist_json(h: &HistogramSnapshot, indent: usize, lvl: usize) -> String {
    let pad = " ".repeat(indent * lvl);
    let pad_close = " ".repeat(indent * (lvl - 1));
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .map(|(ub, c)| format!("\"{ub}\": {c}"))
        .collect();
    format!(
        "{{\n{pad}\"count\": {},\n{pad}\"sum\": {},\n{pad}\"min\": {},\n{pad}\"max\": {},\n{pad}\"mean\": {},\n{pad}\"buckets\": {{{}}}\n{pad_close}}}",
        h.count,
        h.sum,
        if h.count == 0 { 0 } else { h.min },
        h.max,
        h.mean().map(|m| json_f64(&m)).unwrap_or("null".into()),
        buckets.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hist(values: &[u64]) -> HistogramSnapshot {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        HistogramSnapshot::from(&h)
    }

    #[test]
    fn merged_shards_convert_to_one_snapshot() {
        let mut h = Histogram::new();
        for v in [1, 2, 3] {
            h.record(v);
        }
        let mut h2 = Histogram::new();
        h2.record(1000);
        h.merge(&h2);
        let s = HistogramSnapshot::from(&h);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.max, 1000);
        // bucket for 1000 is [512, 1023]
        assert!(s.buckets.contains(&(1023, 1)));
    }

    #[test]
    fn quantile_nearest_rank() {
        assert_eq!(
            HistogramSnapshot::from(&Histogram::new()).quantile(0.5),
            None
        );
        let s = sample_hist(&[1, 1, 1, 1]);
        assert_eq!(s.quantile(0.5), Some(1));
        assert_eq!(s.quantile(0.99), Some(1));
        // 100 small values and one huge one: p50 stays small (the upper
        // bound of the [8, 15] bucket holding the rank), p100 exact.
        let mut vals = vec![8u64; 100];
        vals.push(1 << 20);
        let s = sample_hist(&vals);
        assert_eq!(s.quantile(0.5), Some(15));
        assert_eq!(s.quantile(1.0), Some(1 << 20));
        // Monotone in q.
        let s = sample_hist(&[1, 10, 100, 1000, 10_000]);
        let mut last = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn json_shape() {
        let mut snap = Snapshot::default();
        snap.counters.insert("a.count".into(), 7);
        snap.gauges.insert("a.gauge".into(), 2.5);
        snap.histograms
            .insert("a.hist".into(), sample_hist(&[4, 5]));
        let json = snap.to_json(2);
        assert!(json.contains("\"a.count\": 7"), "{json}");
        assert!(json.contains("\"a.gauge\": 2.5"), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"sum\": 9"), "{json}");
        assert!(json.contains("\"buckets\": {\"7\": 2}"), "{json}");
        // Balanced braces — a cheap well-formedness check without a parser.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn empty_snapshot_renders() {
        let json = Snapshot::default().to_json(2);
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"histograms\": {}"), "{json}");
    }

    #[test]
    fn deterministic_view_filters_classes() {
        let mut snap = Snapshot::default();
        snap.counters.insert("keep.me".into(), 1);
        snap.counters.insert("drop.me.local".into(), 1);
        snap.gauges.insert("drop.gauge".into(), 1.0);
        snap.histograms
            .insert("keep.hist".into(), sample_hist(&[1]));
        snap.histograms
            .insert("drop.time.ns".into(), sample_hist(&[1]));
        let det = snap.deterministic_view();
        assert_eq!(det.counters.len(), 1);
        assert!(det.counters.contains_key("keep.me"));
        assert!(det.gauges.is_empty());
        assert_eq!(det.histograms.len(), 1);
        assert!(det.histograms.contains_key("keep.hist"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain.name"), "plain.name");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
