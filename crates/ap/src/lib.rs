//! # milback-ap
//!
//! The MilBack access point:
//!
//! * [`waveform`] — the VXG's role: the transmit configuration (the
//!   chirps are synthesized by `milback_dsp::chirp`),
//! * [`dechirp`] — FMCW dechirp and range-FFT processing,
//! * [`background`] — five-chirp background subtraction,
//! * [`ranging`] — the full localization pipeline (range + AoA),
//! * [`aoa`] — two-antenna phase-difference angle estimation,
//! * [`orientation`] — AP-side node-orientation sensing,
//! * [`uplink`] — the Figure-7 uplink receive chain,
//! * [`tone_select`] — orientation-driven OAQFM carrier selection,
//! * [`workspace`] — reusable buffer sets ([`workspace::DspWorkspace`])
//!   that make the localization hot loop allocation-free (DESIGN.md §12).
//!   Callers own them; the crate keeps no thread-local scratch.
//!
//! ## Place in the paper's architecture
//!
//! The AP owns every active radio in MilBack (the node is passive), so
//! this crate reproduces the paper's infrastructure side end to end:
//! §5.1 localization is [`dechirp`] → [`background`] → peak search in
//! [`ranging`] with [`aoa`] phase-difference angles; §5.2(b) AP-side
//! orientation sensing is [`orientation`]; the §6.3 uplink receive chain
//! of Figure 7 is [`uplink`]; and the §6.1 carrier choice that makes
//! OAQFM work at an oblique node is [`tone_select`].
//!
//! ## Telemetry
//!
//! With `MILBACK_TELEMETRY=1` the pipeline reports
//! `ap.localize.attempts`/`fixes`/`misses`, an `ap.localize.ns` span,
//! `ap.dechirp.spectra` and `ap.aoa.*` counters through
//! `milback-telemetry`.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod aoa;
pub mod background;
pub mod coverage;
pub mod dechirp;
pub mod orientation;
pub mod ranging;
pub mod tone_select;
pub mod uplink;
pub mod waveform;
pub mod workspace;

pub use aoa::AoaEstimator;
pub use dechirp::RangeProcessor;
pub use orientation::ApOrientationEstimator;
pub use ranging::{LocalizationResult, Localizer};
pub use tone_select::{select_tones, ToneSelection};
pub use uplink::{ook_ber, UplinkReceiver, UplinkScratch, UplinkStats, UPLINK_PILOT};
pub use waveform::TxConfig;
pub use workspace::DspWorkspace;
