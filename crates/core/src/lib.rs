//! # milback
//!
//! End-to-end simulation of the MilBack mmWave backscatter network —
//! the paper's primary contribution, assembled from the substrate crates
//! (`milback-dsp`, `milback-rf`, `milback-hw`, `milback-node`,
//! `milback-ap`, `milback-proto`):
//!
//! * [`network`] — the single-node [`Network`]: localization (§5.1) and
//!   orientation sensing at both ends (§5.2),
//! * [`link`] — OAQFM downlink and backscatter uplink (§6),
//! * [`protocol`] — Field-1 mode signalling (§7),
//! * [`session`] — the self-healing session supervisor running the full
//!   packet exchange (§7): bounded retry, backoff, reduced-chirp
//!   fallback, ARQ payload delivery, typed degradation reports,
//! * [`serve`] — the session-serving engine: work-stealing pool over
//!   per-node FIFO chains, bounded submission queues with backpressure,
//!   telemetry-driven load shedding,
//! * [`net`] — the dense-network fabric (one or more APs serving many
//!   nodes by SDM): slotted polling MAC across coverage cells, inter-node interference through the
//!   cached ray tables, deterministic handoffs,
//! * [`chaos`] — deterministic chaos sweeps over sampled fault plans,
//! * [`survey`] — analytic coverage maps for deployment planning,
//! * [`experiments`] — drivers regenerating the paper's figures and tables,
//! * [`ablations`] — what breaks when each design choice is removed,
//! * [`batch`] — the deterministic parallel batch engine the drivers
//!   above run on,
//! * [`config`] — fidelity presets and calibrated AP parameters.
//!
//! ```no_run
//! use milback::{Fidelity, Network};
//! use milback_rf::geometry::{deg_to_rad, Pose};
//!
//! let pose = Pose::facing_ap(3.0, 0.0, deg_to_rad(12.0));
//! let mut net = Network::new(pose, Fidelity::Fast, 42);
//! let fix = net.localize().expect("node not found");
//! assert!((fix.range - 3.0).abs() < 0.2);
//! ```
//!
//! ## Observability
//!
//! The whole pipeline is instrumented with `milback-telemetry`: set
//! `MILBACK_TELEMETRY=1` (or call `milback_telemetry::set_enabled(true)`)
//! and every [`link`] transfer, [`session`] exchange, [`experiments`]
//! driver and [`batch`] run records counters, histograms and spans into
//! a process-wide registry. `milback_telemetry::snapshot()` drains it.
//! Aggregation is sharded per worker thread and merged with
//! order-independent integer arithmetic, so batch totals are identical
//! whether `MILBACK_THREADS=1` or 16 (DESIGN.md §11); the workspace test
//! `crates/core/tests/determinism.rs` compares the deterministic views
//! of fresh processes at one and four threads.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod ablations;
pub mod batch;
pub mod chaos;
pub mod config;
pub mod experiments;
mod lanes;
pub mod link;
pub mod net;
pub mod network;
pub mod protocol;
pub mod serve;
pub mod session;
pub mod survey;

pub use batch::derive_seed;
pub use chaos::{chaos_sweep, ChaosOutcome, ChaosPoint};
pub use config::{ApParams, Fidelity};
pub use link::{DownlinkReport, UplinkReport};
pub use net::{
    ap_line, net_roster, Fabric, NetConfig, RoundReport, RoundSchedule, Slot, SlotOutcome,
};
pub use network::{Interferer, Network};
pub use serve::{
    Outcome, Resolution, ServeConfig, ServeEngine, ServeReport, SessionRequest, TrafficConfig,
    TrafficSchedule, Workload,
};
pub use session::{
    Degradation, LocalizeSummary, Session, SessionConfig, SessionCtx, SessionError, SessionReport,
};
pub use survey::{coverage_map, CoverageCell};
