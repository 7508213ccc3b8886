//! # milback-rf
//!
//! RF substrate for the MilBack reproduction: everything between the AP's
//! waveform generator and the node's envelope detectors.
//!
//! * [`geometry`] — the 2-D evaluation plane, poses and time-of-flight,
//! * [`antenna`] — horn / patch / isotropic gain patterns,
//! * [`fsa`] — the dual-port Frequency Scanning Antenna (the paper's core
//!   passive structure),
//! * [`propagation`] — Friis / radar-equation link budgets,
//! * [`channel`] — the discrete-ray scene: node backscatter, clutter,
//!   mirror reflection and self-interference,
//! * [`frontend`] — the AP front end's LNA,
//! * [`room`] — parametric indoor-room clutter scenes,
//! * [`faults`] — deterministic scheduled impairments (blockage,
//!   interference, clock drift, saturation, chirp loss) for chaos
//!   testing.
//!
//! ## Place in the paper's architecture
//!
//! §4 of the paper is the dual-port FSA design this crate models in
//! [`fsa`]: a leaky-wave antenna whose beam angle is a function of
//! frequency, terminated at both ports by switches so the node can
//! either retro-reflect or modulate. [`propagation`] carries the §9.1
//! link budget (the 1/R⁴ backscatter radar equation), [`channel`]
//! injects the clutter and self-interference that §5.1's background
//! subtraction exists to remove, and [`geometry`]/[`room`] define the
//! evaluation scenes behind Figures 12–15.
//!
//! This crate is pure physics with one observability exception: the
//! [`workspace`] channel-synthesis caches report their hit/miss/grow
//! counters (all `.local`-suffixed, per workspace) so the static-scene
//! response cache of DESIGN.md §13 can be audited. Stage counters for
//! the processing pipeline live in the layers that call this crate
//! (`milback-ap`, `milback-node`, `milback` core).

#![deny(rustdoc::broken_intra_doc_links)]

pub mod antenna;
pub mod channel;
pub mod faults;
pub mod frontend;
pub mod fsa;
pub mod geometry;
pub mod propagation;
pub mod room;
pub mod workspace;

pub use channel::{Scene, TxComponent};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use fsa::{DualPortFsa, FsaConfig, Port};
pub use geometry::{Point, Pose};
pub use room::Room;
pub use workspace::{wave_fingerprint, ChannelWorkspace};
