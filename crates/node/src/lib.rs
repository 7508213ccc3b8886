//! # milback-node
//!
//! The MilBack backscatter node:
//!
//! * [`node`] — the node itself: dual-port FSA + switches + envelope
//!   detectors + ADC, its channel-facing Γ (one per Field-2 chirp, one
//!   per uplink OAQFM symbol, paper §5.1, §6.3) and the uplink's
//!   per-symbol switch edges,
//! * [`orientation`] — node-side orientation sensing from triangular-chirp
//!   peak separation (paper §5.2(b)),
//! * [`demod`] — downlink OAQFM / fallback-OOK demodulation (§6.1–6.2),
//! * [`mode_detect`] — Field-1 chirp counting → uplink/downlink (§7).
//!
//! ## Place in the paper's architecture
//!
//! The node is the paper's central contribution: a passive dual-port FSA
//! tag that localizes (§5), receives (§6.1–6.2) and transmits (§6.3)
//! without generating a carrier. This crate is everything that runs on
//! the tag: [`node`] wires the `milback-hw` components to the
//! `milback-rf` FSA model and transmits the uplink, one switch throw per
//! port per symbol; [`demod`] receives the downlink; [`mode_detect`]
//! implements the §7 Field-1 protocol handshake; and [`orientation`]
//! reproduces §5.2(a).
//!
//! ## Telemetry
//!
//! With `MILBACK_TELEMETRY=1` the node reports
//! `node.demod.oaqfm.symbols`, `node.demod.ook.bits` and
//! `node.mode_detect.*` counters; the energy its `milback-hw` power
//! model draws per transfer is recorded by `milback::link` as
//! `node.energy.*_nj` histograms.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod demod;
pub mod mode_detect;
pub mod node;
pub mod orientation;

pub use demod::EnvelopeSlicer;
pub use mode_detect::ModeDetector;
pub use node::BackscatterNode;
pub use orientation::NodeOrientationEstimator;
