//! # milback-hw
//!
//! Hardware-component models for the MilBack node:
//!
//! * [`switch`] — SPDT RF switch (reflective/absorptive throw, toggle-rate
//!   limit, switching energy) and time-stamped switch schedules,
//! * [`envelope`] — the ADL6010-class envelope detector (slope, video
//!   bandwidth, output noise),
//! * [`adc`] — the MCU's SAR ADC (rate conversion, quantization),
//! * [`power`] — node power/energy accounting reproducing the paper's
//!   18 mW / 32 mW / nJ-per-bit numbers.
//!
//! ## Place in the paper's architecture
//!
//! §8 ("Implementation") builds the node from exactly these parts — two
//! SPDT switches on the FSA ports, an envelope detector per port, and an
//! MCU ADC — and §9.5 reports what they cost: 18 mW in
//! downlink/localization, 32 mW transmitting at 40 Mbps, under a
//! nanojoule per bit. [`power::PowerModel`] encodes those numbers; the
//! link layer (`milback::link`) multiplies them by measured transfer
//! durations and records the result as the `node.energy.*_nj` telemetry
//! histograms, so simulated energy draw shows up in bench snapshots.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod adc;
pub mod envelope;
pub mod power;
pub mod switch;

pub use adc::Adc;
pub use envelope::EnvelopeDetector;
pub use power::{NodeMode, PowerModel};
pub use switch::{SpdtSwitch, SwitchSchedule, SwitchState};
