//! # milback-telemetry
//!
//! Dependency-free observability for the MilBack reproduction: counters,
//! histograms, gauges and lightweight [`Span`]s, aggregated in a
//! thread-safe registry and exported as JSON snapshots. The hot pipeline
//! (`milback-dsp` FFT plans, `milback-ap` localization stages,
//! `milback-node` demodulation, `milback-proto` CRC/FEC/ARQ and the
//! `milback::batch` parallel engine) reports into this crate; the tests
//! compare snapshots' deterministic views across thread counts and
//! processes, and the session benchmark (`sessbench/`) reads its layer
//! breakdown from them. See DESIGN.md §11 for the data model and
//! overhead budget.
//!
//! ## Enabling
//!
//! Telemetry is **off by default**. It turns on when the
//! `MILBACK_TELEMETRY` environment variable is set to `1`, `true`, `on`
//! or `yes` (case-insensitive), or programmatically via [`set_enabled`].
//! When off, every recording call is a single relaxed atomic load and a
//! branch — no locks, no allocation, no time-stamping (the when-off
//! guarantee the batch engine relies on).
//!
//! ## Recording
//!
//! ```
//! milback_telemetry::set_enabled(true);
//! milback_telemetry::reset();
//!
//! // Counters accumulate monotonically (saturating at u64::MAX).
//! milback_telemetry::counter_add("doc.frames", 3);
//! // Histograms bucket u64 values by power of two.
//! milback_telemetry::observe("doc.bit_errors", 2);
//! // Gauges hold a float; shards merge by maximum.
//! milback_telemetry::gauge_set("doc.threads", 4.0);
//!
//! let snap = milback_telemetry::snapshot();
//! assert_eq!(snap.counters["doc.frames"], 3);
//! assert_eq!(snap.histograms["doc.bit_errors"].count, 1);
//! milback_telemetry::set_enabled(false);
//! ```
//!
//! ## Aggregation model
//!
//! Each thread records into its own *shard* (a thread-local handle onto a
//! mutex-protected map registered in a global list), so recording never
//! contends across worker threads. [`snapshot()`] drains by summing every
//! shard — counters and histogram buckets add, gauges take the maximum —
//! and because every merge operator is commutative and associative over
//! integers, **parallel and serial runs of the same work produce
//! identical totals** (the `milback::batch` determinism contract extends
//! to telemetry). Wall-clock metrics are the exception; see below.
//!
//! ## Naming convention
//!
//! Metric names are dot-separated, prefixed by the crate stage they
//! instrument (`dsp.`, `ap.`, `node.`, `proto.`, `core.`). Two suffixes
//! mark metrics that are *not* thread-count-invariant:
//!
//! * `.ns` — wall-clock durations recorded by [`Span`]s; their counts are
//!   invariant but their sums depend on scheduling,
//! * `.local` — per-thread cache state (e.g. FFT plan-cache misses: each
//!   worker thread builds its own plans, so more threads → more misses).
//!
//! [`Snapshot::deterministic_view`] strips both classes (and all gauges),
//! leaving exactly the metrics for which parallel == serial equality
//! holds; the integration tests assert on that view.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use hist::{bucket_index, bucket_upper_bound, Histogram};
pub use registry::{counter_add, gauge_set, observe, reset, snapshot};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::{span, time, Span};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialized, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is currently recording.
///
/// The first call reads the `MILBACK_TELEMETRY` environment variable;
/// later calls are a single relaxed atomic load. [`set_enabled`]
/// overrides the environment either way.
///
/// ```
/// // Off unless MILBACK_TELEMETRY is set in the environment.
/// milback_telemetry::set_enabled(false);
/// assert!(!milback_telemetry::enabled());
/// ```
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("MILBACK_TELEMETRY")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "on" || v == "yes"
        })
        .unwrap_or(false);
    // Racing initializers agree: the env var does not change underneath.
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces telemetry on or off, overriding `MILBACK_TELEMETRY`. Used by
/// benches and tests; takes effect immediately on all threads.
///
/// ```
/// milback_telemetry::set_enabled(true);
/// assert!(milback_telemetry::enabled());
/// milback_telemetry::set_enabled(false);
/// assert!(!milback_telemetry::enabled());
/// ```
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Serializes unit tests that reset or assert on the process-global
/// registry (doctests run in their own processes and don't need this).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}
