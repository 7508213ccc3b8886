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
//! Threads come from [`std::thread::scope`] (the workspace builds offline;
//! no external thread-pool crate). The worker count defaults to the
//! machine's available parallelism and can be pinned with the
//! `MILBACK_THREADS` environment variable (`MILBACK_THREADS=1` forces
//! serial execution, useful for benchmarking the speedup itself).
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

use milback_dsp::noise::{splitmix64, GOLDEN_GAMMA};
use milback_dsp::par;
use milback_telemetry as telemetry;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// One trial's identity within a batch: its index in the batch and the
/// RNG seed derived for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Index of this trial within the batch, `0..n`.
    pub index: usize,
    /// Deterministic per-trial seed, [`derive_seed`]`(master, index)`.
    pub seed: u64,
}

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
/// The SplitMix64 finaliser ([`splitmix64`]) over `(master ^ index·φ) + φ`
/// (φ = 2⁶⁴/golden ratio, odd). For a fixed master the map
/// `index → seed` is injective: `index·φ` is a bijection mod 2⁶⁴ (φ is
/// odd) and the finaliser is a bijection, so two distinct trial indices can never collide. The seed
/// depends only on `(master, index)` — never on execution order — which is
/// what makes the engine thread-count-invariant.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    splitmix64((master ^ index.wrapping_mul(GOLDEN_GAMMA)).wrapping_add(GOLDEN_GAMMA))
}

/// Crate-internal SplitMix64 stream for synthetic-input generation
/// (traffic schedules, rosters, workload draws — mirrors the generator
/// in `milback_rf::faults`). NOT for channel/noise randomness: networks
/// draw from their seeded `StdRng`. Seed it with [`derive_seed`] so the
/// stream depends only on (master, index).
pub(crate) struct Mix(u64);

impl Mix {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        splitmix64(self.0)
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
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
/// matter how many worker threads run. Work is distributed by an atomic
/// cursor, so uneven per-item cost does not idle workers.
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
    let threads = threads.max(1).min(n.max(1));
    let batch_span = telemetry::span("core.batch.run.ns");
    telemetry::counter_add("core.batch.items", n as u64);
    telemetry::gauge_set("core.batch.threads", threads as f64);
    let t0 = telemetry::enabled().then(std::time::Instant::now);
    // One trial's work, with its per-item span (recorded into the worker
    // thread's shard and merged at snapshot).
    let run_one = |it: &I, i: usize| telemetry::time("core.batch.item.ns", || f(it, i));
    let out = if threads <= 1 || n <= 1 {
        items
            .iter()
            .enumerate()
            .map(|(i, it)| run_one(it, i))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // The workers hold `threads` cores: a trial's receive chains
        // claim the two-core helper only if a core is still idle.
        let _busy = par::occupy(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = run_one(&items[i], i);
                    // A poisoned slot mutex just means another worker
                    // panicked; take the lock anyway — the panic will
                    // propagate out of the scope regardless.
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("worker skipped a slot")
            })
            .collect()
    };
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
/// This is the serving engine's dispatch layer (DESIGN.md §15): jobs are
/// per-node session chains, so stealing moves whole chains between
/// workers and per-node FIFO order is preserved by construction. Which
/// worker runs a chain never affects its result (determinism is the
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
    telemetry::counter_add("core.batch.steal_jobs", n as u64);
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

/// Runs `n` independent trials in parallel. `f` receives each trial's
/// [`Trial`] (index + derived seed) and results come back in index order.
///
/// ```
/// use milback::batch::{run_trials, run_trials_with_threads};
///
/// let f = |t: milback::batch::Trial| t.seed.rotate_left(t.index as u32);
/// // The deterministic contract: any thread count, identical results.
/// let parallel = run_trials(16, 42, f);
/// let serial = run_trials_with_threads(16, 42, 1, f);
/// assert_eq!(parallel, serial);
/// ```
pub fn run_trials<T, F>(n: usize, master_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Trial) -> T + Sync,
{
    run_trials_with_threads(n, master_seed, thread_count(), f)
}

/// [`run_trials`] with an explicit worker count, for determinism tests
/// and serial baselines.
pub fn run_trials_with_threads<T, F>(n: usize, master_seed: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Trial) -> T + Sync,
{
    let trials: Vec<Trial> = (0..n)
        .map(|index| Trial {
            index,
            seed: derive_seed(master_seed, index as u64),
        })
        .collect();
    par_map_with_threads(&trials, threads, |t, _| f(*t))
}

/// Sweeps `params × trials`: for each parameter point, runs
/// `trials_per_point` trials, all scheduled on one flat parallel batch so
/// a slow parameter point does not serialize the sweep. Trial seeds are
/// derived from the *global* index (`param_idx · trials + trial`), so
/// adding parameter points does not reshuffle earlier points' seeds
/// within a run and results are again thread-count-invariant.
pub fn sweep<P, T, F>(params: &[P], trials_per_point: usize, master_seed: u64, f: F) -> Vec<Vec<T>>
where
    P: Sync,
    T: Send,
    F: Fn(&P, Trial) -> T + Sync,
{
    let jobs: Vec<(usize, Trial)> = (0..params.len() * trials_per_point)
        .map(|g| {
            (
                g / trials_per_point,
                Trial {
                    index: g % trials_per_point,
                    seed: derive_seed(master_seed, g as u64),
                },
            )
        })
        .collect();
    let flat = par_map(&jobs, |(pi, trial), _| f(&params[*pi], *trial));
    let mut out: Vec<Vec<T>> = Vec::with_capacity(params.len());
    let mut it = flat.into_iter();
    for _ in 0..params.len() {
        out.push(it.by_ref().take(trials_per_point).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 7] {
            let out = par_map_with_threads(&items, threads, |x, i| {
                assert_eq!(*x, i);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_trials_is_thread_count_invariant() {
        let f = |t: Trial| (t.index, t.seed, t.seed.wrapping_mul(t.index as u64 + 1));
        let serial = run_trials_with_threads(64, 42, 1, f);
        for threads in [2, 3, 8] {
            assert_eq!(run_trials_with_threads(64, 42, threads, f), serial);
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
    fn sweep_shape_and_seeds() {
        let params = [10.0f64, 20.0, 30.0];
        let out = sweep(&params, 4, 9, |p, t| (*p, t.index, t.seed));
        assert_eq!(out.len(), 3);
        for (pi, rows) in out.iter().enumerate() {
            assert_eq!(rows.len(), 4);
            for (j, (p, idx, seed)) in rows.iter().enumerate() {
                assert_eq!(*p, params[pi]);
                assert_eq!(*idx, j);
                assert_eq!(*seed, derive_seed(9, (pi * 4 + j) as u64));
            }
        }
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
        let out: Vec<u64> = run_trials(0, 5, |t| t.seed);
        assert!(out.is_empty());
        let out = par_map(&[] as &[u8], |_, _| 0u8);
        assert!(out.is_empty());
    }
}
