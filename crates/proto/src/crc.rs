//! CRC-16/CCITT-FALSE error detection for payload frames.
//!
//! The paper's payload format is not specified beyond "a payload which is
//! used either for uplink or downlink" (§7); a 16-bit CRC is the standard
//! choice at these frame sizes and lets the integration tests verify
//! end-to-end integrity.

/// CRC-16/CCITT-FALSE: polynomial 0x1021, initial value 0xFFFF, no
/// reflection, no final XOR. Check value for `"123456789"` is `0x29B1`.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// Verifies and strips a trailing CRC. Returns the payload on success.
pub fn check_crc(framed: &[u8]) -> Option<&[u8]> {
    if framed.len() < 2 {
        return None;
    }
    let (payload, tail) = framed.split_at(framed.len() - 2);
    let expect = ((tail[0] as u16) << 8) | tail[1] as u16;
    if crc16_ccitt(payload) == expect {
        milback_telemetry::counter_add("proto.crc.ok", 1);
        Some(payload)
    } else {
        milback_telemetry::counter_add("proto.crc.fail", 1);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `data` with its big-endian CRC appended, as the frame encoder
    /// lays it out.
    fn append_crc(data: &[u8]) -> Vec<u8> {
        let crc = crc16_ccitt(data);
        let mut out = data.to_vec();
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    #[test]
    fn known_check_value() {
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc16_ccitt(&[]), 0xFFFF);
    }

    #[test]
    fn single_byte_vectors() {
        // Independently computed vectors for CRC-16/CCITT-FALSE.
        assert_eq!(crc16_ccitt(&[0x00]), 0xE1F0);
        assert_eq!(crc16_ccitt(&[0xFF]), 0xFF00);
    }

    #[test]
    fn append_and_check_round_trip() {
        let data = b"milback payload";
        let framed = append_crc(data);
        assert_eq!(framed.len(), data.len() + 2);
        assert_eq!(check_crc(&framed), Some(&data[..]));
    }

    #[test]
    fn detects_single_bit_flip() {
        let framed = append_crc(b"hello world");
        for i in 0..framed.len() {
            for bit in 0..8 {
                let mut corrupted = framed.clone();
                corrupted[i] ^= 1 << bit;
                assert_eq!(check_crc(&corrupted), None, "missed flip at {i}:{bit}");
            }
        }
    }

    #[test]
    fn detects_all_double_bit_flips_in_short_frame() {
        let framed = append_crc(&[0x42, 0x17]);
        let nbits = framed.len() * 8;
        for i in 0..nbits {
            for j in i + 1..nbits {
                let mut c = framed.clone();
                c[i / 8] ^= 1 << (i % 8);
                c[j / 8] ^= 1 << (j % 8);
                assert_eq!(check_crc(&c), None, "missed double flip {i},{j}");
            }
        }
    }

    #[test]
    fn too_short_frame_rejected() {
        assert_eq!(check_crc(&[0x01]), None);
        assert_eq!(check_crc(&[]), None);
    }

    #[test]
    fn empty_payload_frame() {
        let framed = append_crc(&[]);
        assert_eq!(check_crc(&framed), Some(&[][..]));
    }
}
