//! Payload framing: bytes → CRC-protected OAQFM symbol stream and back.
//!
//! The frame layout is `payload ‖ CRC-16`; the payload length is
//! pre-agreed between AP and node (paper §7: "the length of the payload is
//! predefined for both AP and the nodes"), so no length field is needed.

use crate::bits::OaqfmSymbol;
use crate::crc::check_crc;

/// Errors produced when decoding a received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The symbol count does not match the pre-agreed payload length.
    LengthMismatch {
        /// Symbols expected for the agreed payload length.
        expected: usize,
        /// Symbols actually received.
        got: usize,
    },
    /// The CRC check failed — the payload was corrupted in flight.
    CrcMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "frame length mismatch: expected {expected} symbols, got {got}"
                )
            }
            FrameError::CrcMismatch => write!(f, "frame CRC mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Number of OAQFM symbols a frame of `payload_bytes` occupies
/// (payload + 2 CRC bytes, 2 bits per symbol).
pub fn frame_symbols(payload_bytes: usize) -> usize {
    (payload_bytes + 2) * 4
}

/// Reusable intermediate buffers for the frame codec, so repeated
/// transfers (the link layer's steady state) encode and decode without
/// heap allocation beyond the decoded payload itself.
#[derive(Debug, Default, Clone)]
pub struct FrameScratch {
    bytes: Vec<u8>,
    bits: Vec<bool>,
}

/// Encodes payload bytes into an OAQFM symbol stream with a CRC-16
/// trailer. The CRC trailer and bit expansion run in `scratch`, symbols
/// land in `out`; allocation-free in steady state.
pub fn encode_frame_into(payload: &[u8], scratch: &mut FrameScratch, out: &mut Vec<OaqfmSymbol>) {
    scratch.bytes.clear();
    scratch.bytes.reserve(payload.len() + 2);
    scratch.bytes.extend_from_slice(payload);
    let crc = crate::crc::crc16_ccitt(payload);
    scratch.bytes.push((crc >> 8) as u8);
    scratch.bytes.push((crc & 0xFF) as u8);
    crate::bits::bytes_to_bits_into(&scratch.bytes, &mut scratch.bits);
    crate::bits::bits_to_symbols_into(&scratch.bits, out);
}

/// Decodes an OAQFM symbol stream back into payload bytes, verifying
/// length and CRC, against caller-owned intermediate buffers. The only
/// allocation on success is the returned payload `Vec` itself — an
/// owned deliverable the caller keeps.
pub fn decode_frame_with(
    scratch: &mut FrameScratch,
    symbols: &[OaqfmSymbol],
    payload_bytes: usize,
) -> Result<Vec<u8>, FrameError> {
    let expected = frame_symbols(payload_bytes);
    if symbols.len() != expected {
        return Err(FrameError::LengthMismatch {
            expected,
            got: symbols.len(),
        });
    }
    crate::bits::symbols_to_bits_into(symbols, &mut scratch.bits);
    crate::bits::bits_to_bytes_into(&scratch.bits, &mut scratch.bytes);
    check_crc(&scratch.bytes)
        .map(|p| p.to_vec())
        .ok_or(FrameError::CrcMismatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(payload: &[u8]) -> Vec<OaqfmSymbol> {
        let mut symbols = Vec::new();
        encode_frame_into(payload, &mut FrameScratch::default(), &mut symbols);
        symbols
    }

    fn decode(symbols: &[OaqfmSymbol], payload_bytes: usize) -> Result<Vec<u8>, FrameError> {
        decode_frame_with(&mut FrameScratch::default(), symbols, payload_bytes)
    }

    #[test]
    fn round_trip() {
        let payload: Vec<u8> = (0..32).collect();
        let symbols = encode(&payload);
        assert_eq!(symbols.len(), frame_symbols(32));
        let decoded = decode(&symbols, 32).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn empty_payload_round_trip() {
        let symbols = encode(&[]);
        assert_eq!(symbols.len(), 8); // 2 CRC bytes = 16 bits = 8 symbols
        assert_eq!(decode(&symbols, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corrupted_symbol_fails_crc() {
        let payload = vec![0xAA; 16];
        let mut symbols = encode(&payload);
        symbols[5] = OaqfmSymbol::from_bits(!symbols[5].a_on, symbols[5].b_on);
        assert_eq!(decode(&symbols, 16), Err(FrameError::CrcMismatch));
    }

    #[test]
    fn wrong_length_detected() {
        let symbols = encode(&[1, 2, 3]);
        let err = decode(&symbols, 8).unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch { .. }));
    }

    #[test]
    fn error_display() {
        let e = FrameError::CrcMismatch;
        assert!(e.to_string().contains("CRC"));
        let e = FrameError::LengthMismatch {
            expected: 10,
            got: 4,
        };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn symbol_count_formula() {
        assert_eq!(frame_symbols(0), 8);
        assert_eq!(frame_symbols(32), 136);
    }
}
