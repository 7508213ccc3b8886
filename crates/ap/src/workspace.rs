//! Reusable DSP workspaces for the AP's hot loops (DESIGN.md §12).
//!
//! A five-chirp localization burst runs dechirp → windowed, zero-padded
//! range FFT → banded profile → background subtraction ten times over
//! (five chirps × two antennas), then detection and the noise floor.
//! Rather than a fresh set of `Vec` buffers per stage per chirp, a
//! [`DspWorkspace`] owns one set of buffers that every stage writes
//! into through the `_into` variants, so a warmed burst performs zero
//! heap allocations (pinned by `tests/zero_alloc.rs`). Each antenna
//! has its own chain buffers ([`AntennaBuffers`]), so the two chains
//! can run on two cores at once.
//!
//! ## Ownership rules
//!
//! * A workspace is plain mutable state — callers may own one directly
//!   ([`DspWorkspace::new`]) and thread it through
//!   [`crate::ranging::Localizer::process_with`] and friends.
//! * [`with_workspace`] lends the thread-local workspace instead, which
//!   is what `milback::batch` workers use: each worker thread warms its
//!   own workspace on the first trial and reuses it for the rest of the
//!   batch. Re-entrant use (a closure calling [`with_workspace`] again)
//!   falls back to a fresh temporary workspace rather than panicking.
//! * Buffers only ever grow (to the largest capture processed on that
//!   thread); nothing shrinks or frees until the thread exits.
//!
//! ## Telemetry
//!
//! * `dsp.workspace.reuse` — one count per [`with_workspace`] checkout.
//!   Checkout counts depend only on the work submitted, so the counter
//!   is thread-invariant and survives the deterministic telemetry view.
//! * `dsp.workspace.grow.local` — one count per buffer reallocation
//!   (reported by the fill sites via `milback_dsp::buffer`). Growth
//!   depends on per-thread warm-up order, hence `.local`.

use crate::ranging::NodeDetection;
use milback_dsp::num::Cpx;
use milback_telemetry as telemetry;
use std::cell::RefCell;

/// One RX antenna's chain buffers: dechirp → range FFT → profiles →
/// consecutive-chirp differences. Each antenna owns its own set, so the
/// two chains can run at once (DESIGN.md §17.4).
#[derive(Debug, Default)]
pub struct AntennaBuffers {
    /// Dechirped samples of the chirp currently being processed.
    pub dechirp: Vec<Cpx>,
    /// Full-length FFT buffer (the range spectrum).
    pub fft: Vec<Cpx>,
    /// Banded complex range profiles, one inner buffer per chirp: bins
    /// `[0, Localizer::profile_bins)` only.
    pub profiles: Vec<Vec<Cpx>>,
    /// Background-subtraction differences of consecutive profiles, as
    /// long as the profiles.
    pub diffs: Vec<Vec<Cpx>>,
}

/// Caller-owned buffer set for the dechirp → FFT → background →
/// detection chain. Index `[0]`/`[1]` of the per-antenna arrays is the
/// RX antenna.
#[derive(Debug, Default)]
pub struct DspWorkspace {
    /// Per-antenna chain buffers.
    pub antennas: [AntennaBuffers; 2],
    /// Per-antenna detection spectra (range-profile magnitudes).
    pub det: [Vec<f64>; 2],
    /// Antenna-summed detection spectrum.
    pub det_sum: Vec<f64>,
    /// Sort scratch for the noise-floor estimate.
    pub floor_scratch: Vec<f64>,
    /// The last [`crate::ranging::Localizer::detect_with`] result here:
    /// the bin and pair AP orientation sensing gates after localization.
    pub detection: Option<NodeDetection>,
}

impl DspWorkspace {
    /// An empty workspace; buffers grow to working size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes a buffer pool (outer vector of per-chirp buffers) to `n`
    /// entries, keeping the already-grown inner buffers.
    pub fn ensure_pool(pool: &mut Vec<Vec<Cpx>>, n: usize) {
        milback_dsp::buffer::track_growth(pool, n);
        pool.truncate(n);
        while pool.len() < n {
            pool.push(Vec::new());
        }
    }
}

thread_local! {
    static WORKSPACE: RefCell<DspWorkspace> = RefCell::new(DspWorkspace::new());
}

/// Runs `f` with this thread's shared [`DspWorkspace`].
///
/// Counts one `dsp.workspace.reuse` per checkout. If the workspace is
/// already checked out further up the stack (re-entrant use), `f` runs
/// on a fresh temporary workspace instead — correctness never depends
/// on which buffer set a call lands on.
pub fn with_workspace<R>(f: impl FnOnce(&mut DspWorkspace) -> R) -> R {
    telemetry::counter_add("dsp.workspace.reuse", 1);
    WORKSPACE.with(|w| match w.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut DspWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_keeps_inner_buffers() {
        let mut pool = vec![vec![Cpx::new(1.0, 0.0); 64], vec![Cpx::new(2.0, 0.0); 64]];
        let caps: Vec<usize> = pool.iter().map(Vec::capacity).collect();
        DspWorkspace::ensure_pool(&mut pool, 5);
        assert_eq!(pool.len(), 5);
        assert_eq!(pool[0].capacity(), caps[0]);
        assert_eq!(pool[1].capacity(), caps[1]);
        DspWorkspace::ensure_pool(&mut pool, 1);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn with_workspace_reuses_buffers_and_tolerates_nesting() {
        std::thread::spawn(|| {
            with_workspace(|ws| {
                ws.antennas[1].dechirp.resize(100, Cpx::new(0.0, 0.0));
            });
            with_workspace(|ws| {
                let cap = ws.antennas[1].dechirp.capacity();
                assert!(cap >= 100, "workspace was not reused");
                // Nested checkout must not panic; it sees a fresh set.
                with_workspace(|inner| {
                    assert_eq!(inner.antennas[1].dechirp.capacity(), 0);
                });
            });
        })
        .join()
        .unwrap();
    }
}
