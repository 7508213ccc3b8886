//! Two-core fork/join for the receive chains (DESIGN.md §17.4).
//!
//! MilBack's receive chains come in independent pairs: two AP RX
//! antennas, two node FSA ports. On a host with an idle core, a chain
//! pair (or the two halves of one long Gaussian fill) can run at once
//! without changing a bit of output, because each half draws from its
//! own RNG positioned exactly where the serial loop would have it.
//!
//! This module is the one place that runs work on a second core:
//!
//! * one persistent helper thread, spawned lazily on the first
//!   successful [`claim`] and never on a 1-core host;
//! * [`claim`] hands out the helper only when it is free **and** a core
//!   is idle, i.e. `max(occupied, 1) < cores()`, where `occupied` counts
//!   the threads of every live [`occupy`] guard (the batch engine holds
//!   one while its scoped workers run). A failed claim means the caller
//!   runs its serial code, unchanged;
//! * [`Claim::join`] runs `b` on the helper while `a` runs on the
//!   caller, allocation-free once the helper exists. The helper spins
//!   briefly before parking, and the caller takes `b` back if the
//!   helper has not started it by the time `a` is done.
//!
//! `claim` is not re-entrant: while a claim is held every other claim
//! fails, so code running inside either side of a join stays serial.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long the helper (waiting for work) and the caller (waiting for
/// the helper) spin before parking.
const SPIN: Duration = Duration::from_micros(300);

/// A posted task: the caller's `b` wrapper with its lifetime erased.
type Task = &'static mut (dyn FnMut() + Send);

/// Handshake state shared by the callers and the helper thread.
struct Helper {
    /// Set while a [`Claim`] is held.
    claimed: AtomicBool,
    /// Hint that `task` holds a task; cleared by whoever takes it.
    posted: AtomicBool,
    /// The posted task until the helper starts it or the caller takes
    /// it back.
    task: Mutex<Option<Task>>,
    /// Set by the helper once the task it took has returned.
    done: AtomicBool,
    /// The joining caller, unparked when `done` is set.
    caller: Mutex<Option<Thread>>,
    /// The helper thread, or `None` on a 1-core host or a failed spawn.
    thread: OnceLock<Option<Thread>>,
}

static HELPER: Helper = Helper {
    claimed: AtomicBool::new(false),
    posted: AtomicBool::new(false),
    task: Mutex::new(None),
    done: AtomicBool::new(false),
    caller: Mutex::new(None),
    thread: OnceLock::new(),
};

/// Threads held by live [`Occupancy`] guards.
static OCCUPIED: AtomicUsize = AtomicUsize::new(0);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Tasks run under `catch_unwind` and no lock is held across user
    // code, so a poisoned lock can only be a stale flag.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The host's available parallelism (1 if it cannot be read).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Marks `threads` cores busy until the guard drops; [`claim`] fails
/// while the busy count leaves no core idle.
#[must_use = "the cores count as occupied only while the guard lives"]
#[derive(Debug)]
pub struct Occupancy(usize);

/// Counts `threads` cores as occupied for the guard's lifetime.
pub fn occupy(threads: usize) -> Occupancy {
    OCCUPIED.fetch_add(threads, Ordering::AcqRel);
    Occupancy(threads)
}

impl Drop for Occupancy {
    fn drop(&mut self) {
        OCCUPIED.fetch_sub(self.0, Ordering::AcqRel);
    }
}

/// Exclusive use of the helper thread, released on drop.
#[derive(Debug)]
pub struct Claim(());

/// Claims the helper thread if it is free and a core is idle; `None`
/// otherwise (always `None` on a 1-core host).
pub fn claim() -> Option<Claim> {
    if OCCUPIED.load(Ordering::Acquire).max(1) >= cores() {
        return None;
    }
    helper_thread()?;
    HELPER
        .claimed
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .ok()?;
    Some(Claim(()))
}

impl Drop for Claim {
    fn drop(&mut self) {
        HELPER.claimed.store(false, Ordering::Release);
    }
}

/// The helper thread's handle, spawning it on first use. The helper
/// lives as long as the process: its loop never returns and every task
/// catches its own panic, so its join handle is dropped, not joined.
fn helper_thread() -> Option<&'static Thread> {
    HELPER
        .thread
        .get_or_init(|| {
            (cores() > 1)
                .then(|| {
                    thread::Builder::new()
                        .name("milback-par".into())
                        .spawn(helper_loop)
                        .ok()
                })
                .flatten()
                .map(|h| h.thread().clone())
        })
        .as_ref()
}

/// Takes the posted task, if any.
fn take_task() -> Option<Task> {
    let mut slot = lock(&HELPER.task);
    HELPER.posted.store(false, Ordering::Relaxed);
    slot.take()
}

/// Spins for up to [`SPIN`], then parks, until `ready` holds.
fn wait_until(ready: impl Fn() -> bool) {
    let deadline = Instant::now() + SPIN;
    while !ready() {
        if Instant::now() < deadline {
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

/// Test hook: while set, the helper leaves posted tasks alone, so the
/// joining caller must take `b` back.
#[cfg(test)]
static PAUSED: AtomicBool = AtomicBool::new(false);

fn helper_loop() {
    loop {
        wait_until(|| HELPER.posted.load(Ordering::Acquire));
        #[cfg(test)]
        if PAUSED.load(Ordering::Acquire) {
            thread::yield_now();
            continue;
        }
        // The caller may have taken the task back in between.
        if let Some(task) = take_task() {
            task();
            HELPER.done.store(true, Ordering::Release);
            if let Some(caller) = lock(&HELPER.caller).as_ref() {
                caller.unpark();
            }
        }
    }
}

impl Claim {
    /// Runs `a` on the calling thread and `b` on the helper at the same
    /// time, returning both results. `b` runs exactly once: on the
    /// helper, or on the caller if the helper had not started it when
    /// `a` finished. A panic on either side is re-raised here only
    /// after both sides have finished (`a`'s first if both panic), and
    /// the helper stays usable.
    pub fn join<RA, RB>(self, a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB)
    where
        RB: Send,
    {
        let Some(helper) = helper_thread() else {
            unreachable!("a claim implies a helper thread");
        };
        let mut b = Some(b);
        let mut rb = None;
        let mut run_b = || {
            if let Some(b) = b.take() {
                rb = Some(panic::catch_unwind(AssertUnwindSafe(b)));
            }
        };
        *lock(&HELPER.caller) = Some(thread::current());
        HELPER.done.store(false, Ordering::Relaxed);
        let task: &mut (dyn FnMut() + Send + '_) = &mut run_b;
        // SAFETY: only the lifetime changes. `run_b` (and the `b`, `rb`
        // it borrows) lives on this frame, and this function cannot
        // return or unwind past the wait below until the task reference
        // is dead: either the caller takes it back out of the slot and
        // runs it itself, or the helper took it and this thread waits
        // for `done`, which the helper sets only after the task has
        // returned. Both `a` and `b` run under `catch_unwind`, so no
        // panic can leave this frame early either.
        let task: Task = unsafe { std::mem::transmute(task) };
        *lock(&HELPER.task) = Some(task);
        HELPER.posted.store(true, Ordering::Release);
        helper.unpark();

        let ra = panic::catch_unwind(AssertUnwindSafe(a));
        match take_task() {
            Some(task) => task(),
            None => wait_until(|| HELPER.done.load(Ordering::Acquire)),
        }
        let rb = rb.unwrap_or_else(|| unreachable!("the task ran to completion"));
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(p), _) | (_, Err(p)) => panic::resume_unwind(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Tests share the one helper; a failed claim (another test holds
    /// it, or a 1-core host) retries until it succeeds, and `None`
    /// means the host has no idle core to test with.
    fn claim_eventually() -> Option<Claim> {
        if cores() < 2 {
            return None;
        }
        loop {
            if let Some(c) = claim() {
                return Some(c);
            }
            thread::yield_now();
        }
    }

    #[test]
    fn join_runs_b_exactly_once_on_either_side() {
        if claim_eventually().is_none() {
            return;
        }
        let caller = thread::current().id();
        let run_b = |runs: &AtomicU32| {
            runs.fetch_add(1, Ordering::AcqRel);
            thread::current().id()
        };
        for _ in 0..100 {
            // `a` waits for `b`, which the caller cannot run while it is
            // inside `a`: the helper runs it.
            let runs = AtomicU32::new(0);
            let c = claim_eventually().expect("claim");
            let ((), ran_on) = c.join(
                || {
                    while runs.load(Ordering::Acquire) == 0 {
                        std::hint::spin_loop();
                    }
                },
                || run_b(&runs),
            );
            assert_ne!(ran_on, caller, "the helper did not run b");
            assert_eq!(runs.load(Ordering::Acquire), 1, "b ran twice or never");

            // A paused helper leaves `b` posted: the caller takes it back.
            let runs = AtomicU32::new(0);
            PAUSED.store(true, Ordering::Release);
            let c = claim_eventually().expect("claim");
            let ((), ran_on) = c.join(|| (), || run_b(&runs));
            PAUSED.store(false, Ordering::Release);
            assert_eq!(ran_on, caller, "the caller did not take b back");
            assert_eq!(runs.load(Ordering::Acquire), 1, "b ran twice or never");
        }
    }

    #[test]
    fn panics_surface_after_both_sides_finish() {
        if claim_eventually().is_none() {
            return;
        }
        for panic_in_a in [true, false] {
            let other_done = AtomicBool::new(false);
            let c = claim_eventually().expect("claim");
            let res = panic::catch_unwind(AssertUnwindSafe(|| {
                c.join(
                    || {
                        if panic_in_a {
                            panic!("a failed");
                        }
                        thread::sleep(Duration::from_millis(5));
                        other_done.store(true, Ordering::Release);
                    },
                    || {
                        if !panic_in_a {
                            panic!("b failed");
                        }
                        thread::sleep(Duration::from_millis(5));
                        other_done.store(true, Ordering::Release);
                    },
                )
            }));
            assert!(res.is_err(), "the panic was swallowed");
            assert!(
                other_done.load(Ordering::Acquire),
                "panic surfaced before the other side finished"
            );
            // The helper survives and the claim was released.
            let c = claim_eventually().expect("claim after panic");
            assert_eq!(c.join(|| 1, || 2), (1, 2));
        }
    }

    #[test]
    fn concurrent_joins_finish_without_deadlock() {
        let total = AtomicU32::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        match claim() {
                            Some(c) => {
                                let (x, y) = c.join(|| 1, || 1);
                                total.fetch_add(x + y, Ordering::Relaxed);
                            }
                            None => {
                                total.fetch_add(2, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn claims_fail_while_every_core_is_occupied() {
        let _all = occupy(cores());
        assert!(claim().is_none());
    }
}
