//! RFC 1951 fixed Huffman tables and the length/distance code mappings.
//!
//! The hardware design uses exactly these tables: because they are fixed,
//! "no additional clock cycles or memories are required to build it and the
//! encoder does not introduce any delays" (§IV). The same mappings drive the
//! dynamic encoder's symbol statistics.

use std::sync::OnceLock;

use crate::huffman::Decoder;

/// Number of literal/length symbols (0–285 used, 286–287 reserved but coded).
pub const NUM_LITLEN: usize = 288;
/// Number of distance symbols (0–29 used, 30–31 reserved).
pub const NUM_DIST: usize = 32;
/// End-of-block symbol.
pub const END_OF_BLOCK: usize = 256;
/// Minimum match length representable by a length code.
pub const MIN_MATCH: u32 = 3;
/// Maximum match length representable by a length code.
pub const MAX_MATCH: u32 = 258;
/// Maximum distance representable by a distance code.
pub const MAX_DISTANCE: u32 = 32_768;

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub fn fixed_litlen_lengths() -> [u8; NUM_LITLEN] {
    let mut l = [0u8; NUM_LITLEN];
    for (i, slot) in l.iter_mut().enumerate() {
        *slot = match i {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    l
}

/// Fixed distance code lengths: 5 bits for all 32 symbols.
pub fn fixed_dist_lengths() -> [u8; NUM_DIST] {
    [5u8; NUM_DIST]
}

/// The fixed literal/length and distance decoders, built once per process
/// and shared by every fixed block and the hardware decompressor model.
pub fn fixed_decoders() -> (&'static Decoder, &'static Decoder) {
    static DECODERS: OnceLock<(Decoder, Decoder)> = OnceLock::new();
    let (lit, dist) = DECODERS.get_or_init(|| {
        (
            Decoder::from_lengths(&fixed_litlen_lengths()).expect("fixed litlen table is valid"),
            Decoder::from_lengths(&fixed_dist_lengths()).expect("fixed dist table is valid"),
        )
    });
    (lit, dist)
}

/// `(base_length, extra_bits)` for length codes 257..=285, index 0 = code 257.
pub const LENGTH_CODES: [(u32, u32); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
pub const DIST_CODES: [(u32, u32); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12_289, 12),
    (16_385, 13),
    (24_577, 13),
];

/// Encoded form of a match length: the litlen symbol plus its extra bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthSym {
    /// Literal/length alphabet symbol (257..=285).
    pub symbol: u16,
    /// Number of extra bits.
    pub extra_bits: u32,
    /// Extra-bit value (length − base).
    pub extra_val: u32,
}

/// Encoded form of a match distance: the distance symbol plus extra bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistSym {
    /// Distance alphabet symbol (0..=29).
    pub symbol: u16,
    /// Number of extra bits.
    pub extra_bits: u32,
    /// Extra-bit value (distance − base).
    pub extra_val: u32,
}

/// Map a match length (3..=258) to its code.
///
/// # Panics
/// Panics on lengths outside the representable range.
pub fn length_symbol(len: u32) -> LengthSym {
    assert!((MIN_MATCH..=MAX_MATCH).contains(&len), "match length {len} out of range");
    // Length 258 has a dedicated zero-extra code and must not be encoded as
    // 227 + 31 even though that also fits (zlib always uses code 285).
    if len == MAX_MATCH {
        return LengthSym { symbol: 285, extra_bits: 0, extra_val: 0 };
    }
    // Binary search over bases (29 entries — a linear scan would do, but the
    // encoder calls this per token).
    let idx = match LENGTH_CODES.binary_search_by_key(&len, |&(base, _)| base) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    let (base, extra) = LENGTH_CODES[idx];
    LengthSym { symbol: (257 + idx) as u16, extra_bits: extra, extra_val: len - base }
}

/// Map a match distance (1..=32768) to its code.
///
/// # Panics
/// Panics on distances outside the representable range.
pub fn distance_symbol(dist: u32) -> DistSym {
    assert!((1..=MAX_DISTANCE).contains(&dist), "distance {dist} out of range");
    let idx = match DIST_CODES.binary_search_by_key(&dist, |&(base, _)| base) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    let (base, extra) = DIST_CODES[idx];
    DistSym { symbol: idx as u16, extra_bits: extra, extra_val: dist - base }
}

/// Decode side: `(base, extra_bits)` for a length symbol (257..=285).
pub fn length_base(symbol: u16) -> Option<(u32, u32)> {
    LENGTH_CODES.get(symbol.checked_sub(257)? as usize).copied()
}

/// Decode side: `(base, extra_bits)` for a distance symbol (0..=29).
pub fn distance_base(symbol: u16) -> Option<(u32, u32)> {
    DIST_CODES.get(symbol as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_litlen_lengths_match_rfc() {
        let l = fixed_litlen_lengths();
        assert_eq!(l[0], 8);
        assert_eq!(l[143], 8);
        assert_eq!(l[144], 9);
        assert_eq!(l[255], 9);
        assert_eq!(l[256], 7);
        assert_eq!(l[279], 7);
        assert_eq!(l[280], 8);
        assert_eq!(l[287], 8);
        // The fixed code is complete: Kraft sum == 1.
        let kraft: u64 = l.iter().map(|&b| 1u64 << (15 - b)).sum();
        assert_eq!(kraft, 1 << 15);
    }

    #[test]
    fn every_length_maps_and_inverts() {
        for len in MIN_MATCH..=MAX_MATCH {
            let s = length_symbol(len);
            assert!((257..=285).contains(&s.symbol), "len {len} -> {s:?}");
            let (base, extra) = length_base(s.symbol).unwrap();
            assert_eq!(extra, s.extra_bits);
            assert_eq!(base + s.extra_val, len, "len {len}");
            assert!(s.extra_val < (1 << s.extra_bits) || s.extra_bits == 0);
        }
    }

    #[test]
    fn every_distance_maps_and_inverts() {
        for dist in 1..=MAX_DISTANCE {
            let s = distance_symbol(dist);
            assert!(s.symbol <= 29, "dist {dist} -> {s:?}");
            let (base, extra) = distance_base(s.symbol).unwrap();
            assert_eq!(extra, s.extra_bits);
            assert_eq!(base + s.extra_val, dist, "dist {dist}");
            assert!(s.extra_val < (1 << s.extra_bits) || s.extra_bits == 0);
        }
    }

    #[test]
    fn length_258_uses_code_285() {
        assert_eq!(length_symbol(258), LengthSym { symbol: 285, extra_bits: 0, extra_val: 0 });
    }

    #[test]
    fn boundary_lengths() {
        assert_eq!(length_symbol(3).symbol, 257);
        assert_eq!(length_symbol(10).symbol, 264);
        assert_eq!(length_symbol(11).symbol, 265);
        assert_eq!(length_symbol(257).symbol, 284);
        assert_eq!(length_symbol(257).extra_val, 30);
    }

    #[test]
    fn boundary_distances() {
        assert_eq!(distance_symbol(1).symbol, 0);
        assert_eq!(distance_symbol(4).symbol, 3);
        assert_eq!(distance_symbol(5).symbol, 4);
        assert_eq!(distance_symbol(24_577).symbol, 29);
        assert_eq!(distance_symbol(32_768).symbol, 29);
        assert_eq!(distance_symbol(32_768).extra_val, 8_191);
    }

    #[test]
    fn decode_side_rejects_out_of_range() {
        assert!(length_base(256).is_none());
        assert!(length_base(286).is_none());
        assert!(distance_base(30).is_none());
    }
}
