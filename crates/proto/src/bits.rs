//! Bit-level utilities and the OAQFM symbol alphabet.
//!
//! OAQFM (paper §6.2, Figure 6) encodes two bits per symbol in the
//! presence or absence of two tones: the tone at `f_A` (received by FSA
//! port A) carries the first bit, the tone at `f_B` (port B) the second:
//!
//! | bits | tone at f_A | tone at f_B |
//! |------|-------------|-------------|
//! | 00   | off         | off         |
//! | 01   | off         | on          |
//! | 10   | on          | off         |
//! | 11   | on          | on          |

/// One OAQFM symbol: the on/off state of each tone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OaqfmSymbol {
    /// Tone at `f_A` (port A) present.
    pub a_on: bool,
    /// Tone at `f_B` (port B) present.
    pub b_on: bool,
}

impl OaqfmSymbol {
    /// All four symbols in bit order 00, 01, 10, 11.
    pub const ALL: [OaqfmSymbol; 4] = [
        OaqfmSymbol {
            a_on: false,
            b_on: false,
        },
        OaqfmSymbol {
            a_on: false,
            b_on: true,
        },
        OaqfmSymbol {
            a_on: true,
            b_on: false,
        },
        OaqfmSymbol {
            a_on: true,
            b_on: true,
        },
    ];

    /// Maps a bit pair `(first, second)` to a symbol.
    pub fn from_bits(first: bool, second: bool) -> Self {
        Self {
            a_on: first,
            b_on: second,
        }
    }

    /// Recovers the bit pair `(first, second)`.
    pub fn to_bits(self) -> (bool, bool) {
        (self.a_on, self.b_on)
    }

    /// The symbol index 0–3 (`first·2 + second`).
    pub fn index(self) -> usize {
        (self.a_on as usize) * 2 + self.b_on as usize
    }
}

/// Expands bytes to bits, most-significant bit first: clears and
/// refills `out`.
pub fn bytes_to_bits_into(bytes: &[u8], out: &mut Vec<bool>) {
    out.clear();
    out.reserve(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            out.push((b >> i) & 1 == 1);
        }
    }
}

/// Packs bits back to bytes (MSB first): clears and refills `out`.
///
/// # Panics
/// Panics if the bit count is not a multiple of 8.
pub fn bits_to_bytes_into(bits: &[bool], out: &mut Vec<u8>) {
    assert!(
        bits.len().is_multiple_of(8),
        "bit count must be a multiple of 8"
    );
    out.clear();
    out.reserve(bits.len() / 8);
    out.extend(bits.chunks(8).map(|chunk| {
        chunk
            .iter()
            .fold(0u8, |acc, &bit| (acc << 1) | u8::from(bit))
    }));
}

/// Maps a bit stream to OAQFM symbols, two bits per symbol (an odd
/// trailing bit is padded with 0): clears and refills `out`, reusing its
/// capacity (the link layer's pooled symbol buffers).
pub fn bits_to_symbols_into(bits: &[bool], out: &mut Vec<OaqfmSymbol>) {
    out.clear();
    out.reserve(bits.len().div_ceil(2));
    let mut it = bits.iter();
    while let Some(&first) = it.next() {
        let second = it.next().copied().unwrap_or(false);
        out.push(OaqfmSymbol::from_bits(first, second));
    }
}

/// Recovers the bit stream from OAQFM symbols (always an even count):
/// clears and refills `out`, reusing its capacity.
pub fn symbols_to_bits_into(symbols: &[OaqfmSymbol], out: &mut Vec<bool>) {
    out.clear();
    out.reserve(symbols.len() * 2);
    for s in symbols {
        let (a, b) = s.to_bits();
        out.push(a);
        out.push(b);
    }
}

/// Counts bit errors between two equal-length bit slices.
pub fn bit_errors(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "length mismatch in bit_errors");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
        let mut out = Vec::new();
        bytes_to_bits_into(bytes, &mut out);
        out
    }

    fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
        let mut out = Vec::new();
        bits_to_bytes_into(bits, &mut out);
        out
    }

    fn bits_to_symbols(bits: &[bool]) -> Vec<OaqfmSymbol> {
        let mut out = Vec::new();
        bits_to_symbols_into(bits, &mut out);
        out
    }

    fn symbols_to_bits(symbols: &[OaqfmSymbol]) -> Vec<bool> {
        let mut out = Vec::new();
        symbols_to_bits_into(symbols, &mut out);
        out
    }

    #[test]
    fn symbol_table_matches_paper() {
        // "01" → tone at f_B only; "10" → tone at f_A only (paper Fig. 6).
        let s01 = OaqfmSymbol::from_bits(false, true);
        assert!(!s01.a_on && s01.b_on);
        let s10 = OaqfmSymbol::from_bits(true, false);
        assert!(s10.a_on && !s10.b_on);
        let s11 = OaqfmSymbol::from_bits(true, true);
        assert!(s11.a_on && s11.b_on);
        let s00 = OaqfmSymbol::from_bits(false, false);
        assert!(!s00.a_on && !s00.b_on);
    }

    #[test]
    fn symbol_index_ordering() {
        for (i, s) in OaqfmSymbol::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn byte_bit_round_trip() {
        let bytes = vec![0x00, 0xFF, 0xA5, 0x3C, 0x01];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 40);
        assert_eq!(bits_to_bytes(&bits), bytes);
    }

    #[test]
    fn msb_first_order() {
        let bits = bytes_to_bits(&[0b1000_0001]);
        assert!(bits[0]);
        assert!(!bits[1]);
        assert!(bits[7]);
    }

    #[test]
    fn bits_symbols_round_trip() {
        let bits = bytes_to_bits(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let symbols = bits_to_symbols(&bits);
        assert_eq!(symbols.len(), 16);
        assert_eq!(symbols_to_bits(&symbols), bits);
    }

    #[test]
    fn odd_bit_count_pads() {
        let bits = [true, false, true];
        let symbols = bits_to_symbols(&bits);
        assert_eq!(symbols.len(), 2);
        assert_eq!(symbols[1], OaqfmSymbol::from_bits(true, false));
    }

    #[test]
    fn bit_error_count() {
        let a = [true, false, true, true];
        let b = [true, true, true, false];
        assert_eq!(bit_errors(&a, &b), 2);
        assert_eq!(bit_errors(&a, &a), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bits_to_bytes_requires_whole_bytes() {
        bits_to_bytes(&[true, false, true]);
    }
}
