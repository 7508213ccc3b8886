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
//! * A workspace is plain mutable state owned by its caller
//!   ([`DspWorkspace::new`]) and threaded through
//!   [`crate::ranging::Localizer::process_with`] and friends. This crate
//!   keeps no workspace of its own: the `milback` core's `SessionCtx`
//!   holds the one a session runs in.
//! * Buffers only ever grow (to the largest capture processed in that
//!   workspace); nothing shrinks or frees until the owner drops it.
//!
//! ## Telemetry
//!
//! * `dsp.workspace.grow.local` — one count per buffer reallocation
//!   (reported by the fill sites via `milback_dsp::buffer`). Growth
//!   depends on per-thread warm-up order, hence `.local`.

use crate::ranging::NodeDetection;
use milback_dsp::num::Cpx;

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
}
