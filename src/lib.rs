//! # milback-repro
//!
//! Workspace facade for the MilBack reproduction: re-exports the
//! individual crates so the top-level `examples/` and `tests/` can reach
//! everything through one dependency.
//!
//! The crates, bottom-up:
//!
//! * [`milback_dsp`] — FFTs, chirps, filters, noise, statistics,
//! * [`milback_rf`] — antennas, the dual-port FSA, propagation, the scene,
//! * [`milback_hw`] — switches, envelope detectors, ADC, power model,
//! * [`milback_proto`] — OAQFM symbols, CRC framing, packet structure,
//! * [`milback_node`] — the backscatter node,
//! * [`milback_ap`] — the access point,
//! * [`milback_baseline`] — Table 1's rows (mmTag, Millimetro, OmniScatter, MilBack),
//! * [`milback_telemetry`] — counters/histograms/spans over the whole
//!   pipeline (`MILBACK_TELEMETRY=1` to enable),
//! * [`milback`] — the end-to-end `Network` simulator and experiment
//!   drivers.

#![deny(rustdoc::broken_intra_doc_links)]

pub use milback;
pub use milback_ap;
pub use milback_baseline;
pub use milback_dsp;
pub use milback_hw;
pub use milback_node;
pub use milback_proto;
pub use milback_rf;
pub use milback_telemetry;
