//! # milback-proto
//!
//! Link-layer protocol for MilBack (paper §7):
//!
//! * [`arq`] — stop-and-wait reliable delivery over the CRC frames,
//! * [`bits`] — bit utilities and the OAQFM symbol alphabet,
//! * [`crc`] — CRC-16/CCITT-FALSE frame protection,
//! * [`frame`] — payload ↔ symbol-stream framing,
//! * [`packet`] — packet structure and preamble timing (Field 1 mode
//!   signalling, Field 2 localization chirps, payload).
//!
//! ## Place in the paper's architecture
//!
//! §7 specifies MilBack's packet: Field 1 signals direction by chirp
//! count, Field 2 carries the localization chirps, then the payload
//! flows whichever way Field 1 announced. [`packet`] encodes exactly
//! that structure and [`bits`] the 2-bit OAQFM alphabet of §6. The rest
//! is the link-layer machinery a deployment needs where the paper stops:
//! [`crc`] integrity, [`frame`] payload framing and [`arq`]
//! retransmission.
//!
//! ## Telemetry
//!
//! With `MILBACK_TELEMETRY=1` this crate reports `proto.crc.ok`/`fail` and
//! `proto.arq.sent`/`delivered`/`retries`/`giveups` counters through
//! `milback-telemetry`.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod arq;
pub mod bits;
pub mod crc;
pub mod frame;
pub mod packet;

pub use arq::{ArqReceiver, ArqSender, SenderAction, SeqBit};
pub use bits::OaqfmSymbol;
pub use frame::{decode_frame, encode_frame, FrameError};
pub use packet::{LinkMode, Packet, PacketConfig};
