//! The sharded metric registry.
//!
//! Every thread that records a metric lazily creates a *shard* — a
//! mutex-protected triple of counter/gauge/histogram maps — and registers
//! it in a global list. Recording locks only the calling thread's own
//! shard (uncontended in the batch engine's one-shard-per-worker
//! pattern); [`snapshot()`] and [`reset`] walk the global list. Shards
//! outlive their threads (the global list holds an `Arc`), so metrics
//! recorded by `milback::batch` workers remain visible after the scoped
//! threads join — which is exactly when the driver snapshots.

use crate::hist::Histogram;
use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One thread's private metric store.
#[derive(Debug, Default)]
struct Shard {
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, f64>,
    hists: HashMap<&'static str, Histogram>,
}

/// Global list of every shard ever created (shards persist after their
/// thread exits so late snapshots lose nothing).
fn all_shards() -> &'static Mutex<Vec<Arc<Mutex<Shard>>>> {
    static SHARDS: OnceLock<Mutex<Vec<Arc<Mutex<Shard>>>>> = OnceLock::new();
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<Mutex<Shard>> = {
        let shard = Arc::new(Mutex::new(Shard::default()));
        all_shards().lock().unwrap().push(shard.clone());
        shard
    };
}

#[inline]
fn with_local(f: impl FnOnce(&mut Shard)) {
    LOCAL.with(|s| f(&mut s.lock().unwrap()));
}

/// Adds `delta` to the named counter (saturating at `u64::MAX`). A no-op
/// branch when telemetry is [disabled](crate::enabled).
///
/// ```
/// milback_telemetry::set_enabled(true);
/// milback_telemetry::reset();
/// milback_telemetry::counter_add("doc.registry.hits", 2);
/// milback_telemetry::counter_add("doc.registry.hits", 1);
/// assert_eq!(milback_telemetry::snapshot().counters["doc.registry.hits"], 3);
/// milback_telemetry::set_enabled(false);
/// ```
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_local(|s| {
        let c = s.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    });
}

/// Sets the named gauge to `value` on this thread's shard. Shards merge
/// gauges by **maximum** — the only order-free combination of last-value
/// semantics — so gauges are best set from a single driver thread, and
/// [`Snapshot::deterministic_view`] excludes them.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_local(|s| {
        s.gauges.insert(name, value);
    });
}

/// Records `value` into the named histogram. A no-op branch when
/// telemetry is [disabled](crate::enabled).
///
/// ```
/// milback_telemetry::set_enabled(true);
/// milback_telemetry::reset();
/// milback_telemetry::observe("doc.registry.sizes", 4096);
/// let h = &milback_telemetry::snapshot().histograms["doc.registry.sizes"];
/// assert_eq!((h.count, h.sum), (1, 4096));
/// milback_telemetry::set_enabled(false);
/// ```
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    with_local(|s| {
        s.hists.entry(name).or_default().record(value);
    });
}

/// Merges every shard into one [`Snapshot`]: counters and histograms
/// add, gauges take the maximum. Safe to call while telemetry is off
/// (it reads whatever has been recorded so far).
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    let mut hists: HashMap<&'static str, Histogram> = HashMap::new();
    let shards = all_shards().lock().unwrap();
    for shard in shards.iter() {
        let shard = shard.lock().unwrap();
        for (&name, &v) in &shard.counters {
            let c = snap.counters.entry(name.to_string()).or_insert(0);
            *c = c.saturating_add(v);
        }
        for (&name, &v) in &shard.gauges {
            let g = snap.gauges.entry(name.to_string()).or_insert(f64::MIN);
            *g = g.max(v);
        }
        for (&name, h) in &shard.hists {
            hists.entry(name).or_default().merge(h);
        }
    }
    snap.histograms = hists
        .into_iter()
        .map(|(name, h)| (name.to_string(), HistogramSnapshot::from(&h)))
        .collect();
    snap
}

/// Clears every shard (all threads' recorded metrics). The benches call
/// this after warm-up so the exported snapshot covers only the measured
/// region.
pub fn reset() {
    let shards = all_shards().lock().unwrap();
    for shard in shards.iter() {
        let mut shard = shard.lock().unwrap();
        shard.counters.clear();
        shard.gauges.clear();
        shard.hists.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as lock_registry;

    #[test]
    fn counter_saturates_at_max() {
        let _g = lock_registry();
        crate::set_enabled(true);
        reset();
        counter_add("test.overflow", u64::MAX - 1);
        counter_add("test.overflow", 10);
        assert_eq!(snapshot().counters["test.overflow"], u64::MAX);
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock_registry();
        crate::set_enabled(true);
        reset();
        crate::set_enabled(false);
        counter_add("test.disabled", 1);
        observe("test.disabled.h", 1);
        gauge_set("test.disabled.g", 1.0);
        let snap = snapshot();
        assert!(!snap.counters.contains_key("test.disabled"));
        assert!(!snap.histograms.contains_key("test.disabled.h"));
        assert!(!snap.gauges.contains_key("test.disabled.g"));
    }

    #[test]
    fn shards_merge_across_threads() {
        let _g = lock_registry();
        crate::set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100u64 {
                        counter_add("test.threads.count", 1);
                        observe("test.threads.vals", i);
                    }
                });
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counters["test.threads.count"], 400);
        let h = &snap.histograms["test.threads.vals"];
        assert_eq!(h.count, 400);
        assert_eq!(h.sum, 4 * (0..100u128).sum::<u128>());
        crate::set_enabled(false);
    }

    #[test]
    fn gauges_merge_by_max() {
        let _g = lock_registry();
        crate::set_enabled(true);
        reset();
        gauge_set("test.gauge", 2.5);
        std::thread::scope(|s| {
            s.spawn(|| gauge_set("test.gauge", 7.0));
        });
        assert_eq!(snapshot().gauges["test.gauge"], 7.0);
        crate::set_enabled(false);
    }

    #[test]
    fn reset_clears_all_shards() {
        let _g = lock_registry();
        crate::set_enabled(true);
        reset();
        counter_add("test.reset", 5);
        std::thread::scope(|s| {
            s.spawn(|| counter_add("test.reset", 5));
        });
        reset();
        assert!(!snapshot().counters.contains_key("test.reset"));
        crate::set_enabled(false);
    }
}
