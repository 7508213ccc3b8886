//! MilBack packet structure and preamble timing (paper §7, Figure 8).
//!
//! A packet is: **Field 1** (triangular chirps — lets the node sense its
//! orientation and tells it whether the payload is uplink or downlink),
//! **Field 2** (five sawtooth chirps — lets the AP localize the node and
//! sense its orientation), then the **payload**.
//!
//! Mode signalling in Field 1: *three* back-to-back chirps mean uplink;
//! *two* chirps with a one-chirp gap between them mean downlink. Both
//! variants occupy the same three chirp slots, so Field 1 has a fixed
//! duration.

use milback_dsp::chirp::ChirpConfig;

/// Direction of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkMode {
    /// Node → AP (backscatter).
    Uplink,
    /// AP → node.
    Downlink,
}

/// What occupies one Field-1 chirp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A triangular chirp is transmitted.
    Chirp,
    /// Silence.
    Gap,
}

/// Static timing/shape parameters of a MilBack packet, shared by the AP
/// and all nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketConfig {
    /// Field-1 triangular chirp (45 µs in the paper — slow enough for the
    /// node's 1 MHz ADC).
    pub field1_chirp: ChirpConfig,
    /// Field-2 sawtooth chirp (18 µs in the paper).
    pub field2_chirp: ChirpConfig,
    /// Number of Field-2 chirps (5 in the paper: four pairwise
    /// subtractions).
    pub field2_count: usize,
    /// Payload symbol rate, symbols/s (OAQFM: 2 bits/symbol).
    pub symbol_rate: f64,
    /// Payload length in bytes (pre-agreed between AP and nodes, §7).
    pub payload_bytes: usize,
}

impl PacketConfig {
    /// The paper's configuration: 45 µs triangular Field-1 chirps, five
    /// 18 µs sawtooth Field-2 chirps, 1 Msym/s payload, 32-byte payloads.
    pub fn milback() -> Self {
        Self {
            field1_chirp: ChirpConfig::milback_triangular(),
            field2_chirp: ChirpConfig::milback_sawtooth(),
            field2_count: 5,
            symbol_rate: 1e6,
            payload_bytes: 32,
        }
    }

    /// The three Field-1 slots for a mode: uplink = chirp/chirp/chirp,
    /// downlink = chirp/gap/chirp.
    pub fn field1_slots(mode: LinkMode) -> [Slot; 3] {
        match mode {
            LinkMode::Uplink => [Slot::Chirp, Slot::Chirp, Slot::Chirp],
            LinkMode::Downlink => [Slot::Chirp, Slot::Gap, Slot::Chirp],
        }
    }

    /// Duration of Field 1 (three chirp slots), seconds.
    pub fn field1_duration(&self) -> f64 {
        3.0 * self.field1_chirp.duration
    }

    /// Duration of Field 2, seconds.
    pub fn field2_duration(&self) -> f64 {
        self.field2_count as f64 * self.field2_chirp.duration
    }

    /// Time offset of the start of the payload within the packet.
    pub fn payload_start(&self) -> f64 {
        self.field1_duration() + self.field2_duration()
    }

    /// Number of OAQFM symbols in the payload, including the CRC trailer
    /// (2 bytes) added by framing.
    pub fn payload_symbols(&self) -> usize {
        (self.payload_bytes + 2) * 8 / 2
    }

    /// Duration of the payload, seconds.
    pub fn payload_duration(&self) -> f64 {
        self.payload_symbols() as f64 / self.symbol_rate
    }

    /// Total packet duration, seconds.
    pub fn total_duration(&self) -> f64 {
        self.payload_start() + self.payload_duration()
    }
}

/// A packet to be exchanged: direction plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Payload direction.
    pub mode: LinkMode,
    /// Application payload (must equal `PacketConfig::payload_bytes`).
    pub payload: Vec<u8>,
}

impl Packet {
    /// Creates an uplink packet.
    pub fn uplink(payload: Vec<u8>) -> Self {
        Self {
            mode: LinkMode::Uplink,
            payload,
        }
    }

    /// Creates a downlink packet.
    pub fn downlink(payload: Vec<u8>) -> Self {
        Self {
            mode: LinkMode::Downlink,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field1_slot_patterns() {
        assert_eq!(
            PacketConfig::field1_slots(LinkMode::Uplink),
            [Slot::Chirp, Slot::Chirp, Slot::Chirp]
        );
        assert_eq!(
            PacketConfig::field1_slots(LinkMode::Downlink),
            [Slot::Chirp, Slot::Gap, Slot::Chirp]
        );
    }

    #[test]
    fn milback_timing() {
        let cfg = PacketConfig::milback();
        assert!((cfg.field1_duration() - 135e-6).abs() < 1e-12);
        assert!((cfg.field2_duration() - 90e-6).abs() < 1e-12);
        assert!((cfg.payload_start() - 225e-6).abs() < 1e-12);
    }

    #[test]
    fn payload_symbol_count() {
        let cfg = PacketConfig::milback();
        // 32 bytes payload + 2 CRC = 34 bytes = 272 bits = 136 symbols.
        assert_eq!(cfg.payload_symbols(), 136);
        assert!((cfg.payload_duration() - 136e-6).abs() < 1e-12);
    }

    #[test]
    fn total_duration_is_sum_of_parts() {
        let cfg = PacketConfig::milback();
        let total = cfg.total_duration();
        assert!(
            (total - (cfg.field1_duration() + cfg.field2_duration() + cfg.payload_duration()))
                .abs()
                < 1e-15
        );
    }

    #[test]
    fn packet_constructors() {
        let p = Packet::uplink(vec![1, 2, 3]);
        assert_eq!(p.mode, LinkMode::Uplink);
        let p = Packet::downlink(vec![]);
        assert_eq!(p.mode, LinkMode::Downlink);
    }
}
