//! Parallel batch-simulation engine.
//!
//! Every evaluation driver in this workspace has the same shape: run many
//! independent Monte-Carlo trials (or grid cells, or parameter points) and
//! aggregate. This module provides the one implementation of that shape —
//! deterministic regardless of thread count — and the experiment drivers,
//! ablations, site survey and `milback-bench` binaries all route through
//! it.
//!
//! Determinism contract: every trial's RNG seed is derived *only* from the
//! master seed and the trial's index ([`derive_seed`]), results land in
//! index-addressed slots, and no trial observes another trial's state. A
//! run with 16 worker threads is therefore bit-identical to a serial run —
//! covered by `tests/end_to_end.rs` and the seed-derivation property tests.
//!
//! Threads come from one place, [`run_stealing_with_threads`]: scoped
//! workers (the workspace builds offline; no external thread-pool
//! crate) that claim index-addressed jobs by round-robin ownership and
//! work stealing. [`par_map`] and the lane pool under the serving
//! engine and the fabric (DESIGN.md §15–16) both dispatch through it.
//! The worker count defaults to the machine's available parallelism and
//! can be pinned with the `MILBACK_THREADS` environment variable
//! (`MILBACK_THREADS=1` forces serial execution, useful for
//! benchmarking the speedup itself).
//!
//! Memory: a trial that goes through a public entry point
//! (`Network::localize`, `Session::run`, ...) runs in its worker
//! thread's shared [`crate::SessionCtx`] (plus the thread-local FFT plan
//! cache), so a worker warms its buffers and channel caches on its
//! first trial and every later trial in the batch runs allocation-free
//! through the hot pipeline (DESIGN.md §12). Buffer placement never
//! changes FP values, so the determinism contract above is unaffected.
//!
//! Cores: while scoped workers run, the engine holds a
//! [`par::occupy`]`(threads)` guard, so a trial's receive chains use the
//! two-core helper of DESIGN.md §17.4 only when a core is left idle —
//! never in a full-width run. Outputs are bitwise the same either way.

use milback_dsp::noise::Mix;
use milback_dsp::par;
use milback_telemetry as telemetry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Derives the RNG seed for trial `index` of a batch keyed by `master`.
///
/// ```
/// use milback::batch::derive_seed;
/// // Depends only on (master, index) — never on thread schedule.
/// assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
/// assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
/// assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
/// ```
///
/// The first word of the SplitMix64 stream [`Mix::at`]`(master, index)`:
/// the finaliser over `(master ^ index·φ) + φ` (φ = 2⁶⁴/golden ratio,
/// odd). For a fixed master the map `index → seed` is injective:
/// `index·φ` is a bijection mod 2⁶⁴ (φ is odd) and the finaliser is a
/// bijection, so two distinct trial indices can never collide. The seed
/// depends only on `(master, index)` — never on execution order — which
/// is what makes the engine thread-count-invariant.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    Mix::at(master, index).next_u64()
}

/// The number of worker threads the engine uses: `MILBACK_THREADS` when
/// set (≥ 1), otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        if let Ok(v) = std::env::var("MILBACK_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Parallel map preserving input order: `out[i] == f(&items[i], i)` no
/// matter how many worker threads run. Items are jobs on the
/// work-stealing loop of [`run_stealing_with_threads`], so uneven
/// per-item cost does not idle workers.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I, usize) -> T + Sync,
{
    par_map_with_threads(items, thread_count(), f)
}

/// [`par_map`] with an explicit worker count (`1` runs inline on the
/// calling thread). Exists so tests can compare thread counts directly.
pub fn par_map_with_threads<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I, usize) -> T + Sync,
{
    let n = items.len();
    let batch_span = telemetry::span("core.batch.run.ns");
    telemetry::counter_add("core.batch.items", n as u64);
    telemetry::gauge_set("core.batch.threads", threads.max(1).min(n.max(1)) as f64);
    let t0 = telemetry::enabled().then(std::time::Instant::now);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let mut queue = StealQueue::new();
    queue.reset(n);
    run_stealing_with_threads(&queue, n, threads, |i| {
        // Per-item span, recorded into the worker thread's shard and
        // merged at snapshot.
        let out = telemetry::time("core.batch.item.ns", || f(&items[i], i));
        // A poisoned slot mutex just means another worker panicked;
        // take the lock anyway — the panic propagates out of the
        // dispatcher regardless.
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
    });
    let out = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("the dispatcher ran every job")
        })
        .collect();
    if let Some(t0) = t0 {
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            telemetry::gauge_set("core.batch.items_per_s", n as f64 / elapsed);
        }
    }
    batch_span.end();
    out
}

/// Pooled claim flags for [`run_stealing_with_threads`]: one atomic flag
/// per job, reused across calls so a long-lived serving engine's
/// steady-state dispatch allocates nothing once grown to its working
/// size. [`StealQueue::reset`] must be called with the job count before
/// each run.
#[derive(Debug, Default)]
pub struct StealQueue {
    flags: Vec<AtomicBool>,
}

impl StealQueue {
    /// An empty queue; grows to working size on first [`Self::reset`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the queue for `n` jobs: clears the first `n` claim flags
    /// and grows the backing store if (and only if) `n` exceeds every
    /// earlier reset.
    pub fn reset(&mut self, n: usize) {
        for f in self.flags.iter_mut().take(n) {
            *f.get_mut() = false;
        }
        while self.flags.len() < n {
            self.flags.push(AtomicBool::new(false));
        }
    }

    /// Jobs the queue can currently track without growing.
    pub fn capacity(&self) -> usize {
        self.flags.len()
    }
}

/// Runs jobs `0..n` across `threads` workers with **round-robin
/// ownership and work stealing**: worker `w` first claims its own lane
/// (jobs `w, w+threads, …`), then sweeps the whole range for jobs left
/// unclaimed by a slower worker. Claims are compare-and-swap on the
/// pooled flags in `queue`, so every job runs **exactly once** no matter
/// how workers race — and with `threads <= 1` the loop runs inline on
/// the calling thread, allocation-free.
///
/// This is the workspace's one dispatcher: [`par_map`] runs its items
/// as jobs, and the serving engine (DESIGN.md §15) and the fabric run
/// per-node session chains, so stealing moves whole chains between
/// workers and per-node FIFO order is preserved by construction. Which
/// worker runs a job never affects its result (determinism is the
/// caller's responsibility via index-derived seeds); only the
/// `core.batch.steal.local` counter is scheduling-dependent, and the
/// `.local` suffix excludes it from the deterministic telemetry view.
///
/// `queue` must have been [`StealQueue::reset`] with at least `n` jobs.
pub fn run_stealing_with_threads<F>(queue: &StealQueue, n: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    assert!(
        queue.flags.len() >= n,
        "StealQueue::reset(n) before running"
    );
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    telemetry::gauge_set("core.batch.threads", threads as f64);
    let flags = &queue.flags[..n];
    let claim = |i: usize| {
        flags[i]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    };
    let _busy = par::occupy(threads);
    std::thread::scope(|s| {
        for w in 0..threads {
            let f = &f;
            let claim = &claim;
            s.spawn(move || {
                // Own lane first: round-robin ownership keeps workers on
                // disjoint jobs while everyone is busy.
                let mut i = w;
                while i < n {
                    if claim(i) {
                        f(i);
                    }
                    i += threads;
                }
                // Lane drained: steal whatever is still unclaimed.
                for i in 0..n {
                    if claim(i) {
                        telemetry::counter_add("core.batch.steal.local", 1);
                        f(i);
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 7] {
            // Item 0 holds worker 0 until another worker has stolen
            // item `threads` from worker 0's lane, so every parallel run
            // steals; the other items cost more the later they come.
            let stolen = AtomicBool::new(false);
            let out = par_map_with_threads(&items, threads, |x, i| {
                assert_eq!(*x, i);
                if i == 0 && threads > 1 {
                    let t0 = Instant::now();
                    while !stolen.load(Ordering::Acquire) {
                        assert!(t0.elapsed() < Duration::from_secs(30), "nothing stolen");
                        std::thread::yield_now();
                    }
                }
                if i == threads {
                    stolen.store(true, Ordering::Release);
                }
                std::hint::black_box(
                    (0..i as u64 * 500).fold(0u64, |a, k| a ^ std::hint::black_box(k)),
                );
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn derived_seed_trials_are_thread_count_invariant() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let f = |s: &u64, i: usize| (i, *s, s.wrapping_mul(i as u64 + 1));
        let serial = par_map_with_threads(&seeds, 1, f);
        for threads in [2, 3, 8] {
            assert_eq!(par_map_with_threads(&seeds, threads, f), serial);
        }
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_seed(7, i)), "collision at index {i}");
        }
    }

    #[test]
    fn derived_seeds_are_pinned() {
        // Literal outputs of the finaliser over `master ^ index·φ + φ`,
        // so every recorded trial seed stays where it was.
        assert_eq!(derive_seed(42, 7), 0xCBBD_05C7_DE73_A889);
        assert_eq!(derive_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(derive_seed(u64::MAX, 123_456_789), 0x8C86_4518_B443_853A);
    }

    #[test]
    fn different_masters_diverge() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_ne!(derive_seed(1, 5), derive_seed(2, 5));
    }

    #[test]
    fn run_stealing_executes_each_job_exactly_once() {
        let n = 103;
        let mut q = StealQueue::new();
        for threads in [1, 2, 8] {
            q.reset(n);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run_stealing_with_threads(&q, n, threads, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "job {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn steal_queue_reset_reuses_allocation() {
        let mut q = StealQueue::new();
        q.reset(64);
        assert_eq!(q.capacity(), 64);
        // Shrinking and re-growing within the high-water mark never
        // reallocates (the backing store only ever grows).
        q.reset(16);
        q.reset(64);
        assert_eq!(q.capacity(), 64);
        run_stealing_with_threads(&q, 0, 4, |_| unreachable!("no jobs"));
    }

    #[test]
    fn empty_batch() {
        assert!(par_map(&[] as &[u8], |_, _| 0u8).is_empty());
        assert!(par_map_with_threads(&[] as &[u8], 4, |_, _| 0u8).is_empty());
    }
}
