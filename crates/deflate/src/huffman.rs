//! Canonical Huffman codebooks: construction, encoding and decoding.
//!
//! Deflate transmits only *code lengths*; both sides derive the actual codes
//! with the canonical algorithm of RFC 1951 §3.2.2. This module provides:
//!
//! * [`canonical_codes`] — lengths → codes (the RFC algorithm verbatim),
//! * [`Codebook`] — an encoder-side table with pre-reversed codes (Deflate
//!   emits Huffman codes MSB-first into an LSB-first bit stream),
//! * [`Decoder`] — a decoder built from the same lengths: one lookup in a
//!   9-bit table for codes of up to 9 bits, and the counts/offsets
//!   canonical walk (the approach of Mark Adler's `puff`) for the rest,
//! * [`build_lengths`] — frequency histogram → length-limited code lengths
//!   (for the dynamic-Huffman encoder).

use crate::bitio::{BitReader, BitWriter, OutOfBits};

/// Maximum code length allowed anywhere in Deflate.
pub const MAX_BITS: usize = 15;

/// Compute canonical codes from code lengths (RFC 1951 §3.2.2). Symbols with
/// length 0 get code 0 and must never be emitted.
///
/// # Panics
/// Panics if the lengths oversubscribe the code space (an invalid tree).
pub fn canonical_codes(lengths: &[u8]) -> Vec<u16> {
    let mut bl_count = [0u32; MAX_BITS + 1];
    for &len in lengths {
        assert!((len as usize) <= MAX_BITS, "code length {len} exceeds 15");
        bl_count[len as usize] += 1;
    }
    bl_count[0] = 0;
    let mut next_code = [0u16; MAX_BITS + 1];
    let mut code: u32 = 0;
    for bits in 1..=MAX_BITS {
        code = (code + bl_count[bits - 1]) << 1;
        assert!(code + bl_count[bits] <= (1 << bits), "oversubscribed code space at length {bits}");
        next_code[bits] = code as u16;
    }
    lengths
        .iter()
        .map(|&len| {
            if len == 0 {
                0
            } else {
                let c = next_code[len as usize];
                next_code[len as usize] += 1;
                c
            }
        })
        .collect()
}

/// Reverse the low `n` bits of `code` — Deflate writes Huffman codes starting
/// from their most-significant bit, while the bit stream is LSB-first.
#[inline]
pub fn reverse_bits(code: u16, n: u8) -> u16 {
    let mut v = code;
    v = ((v & 0x5555) << 1) | ((v >> 1) & 0x5555);
    v = ((v & 0x3333) << 2) | ((v >> 2) & 0x3333);
    v = ((v & 0x0F0F) << 4) | ((v >> 4) & 0x0F0F);
    v = v.rotate_left(8);
    v >> (16 - u16::from(n))
}

/// Encoder-side codebook: for each symbol, the bit-reversed code and length,
/// ready for [`BitWriter::write_bits`].
#[derive(Debug, Clone)]
pub struct Codebook {
    codes: Vec<u16>,
    lengths: Vec<u8>,
}

impl Codebook {
    /// Build from code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let canonical = canonical_codes(lengths);
        let codes = canonical
            .iter()
            .zip(lengths)
            .map(|(&c, &l)| if l == 0 { 0 } else { reverse_bits(c, l) })
            .collect();
        Self { codes, lengths: lengths.to_vec() }
    }

    /// Emit `symbol`'s code.
    ///
    /// # Panics
    /// Panics if the symbol has no code (length 0) — encoding such a symbol
    /// is a bug in the caller's frequency accounting.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let len = self.lengths[symbol];
        assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(u64::from(self.codes[symbol]), u32::from(len));
    }

    /// Code length of `symbol` in bits (0 = absent).
    #[inline]
    pub fn length(&self, symbol: usize) -> u8 {
        self.lengths[symbol]
    }

    /// The bit-reversed code and its length for `symbol`, ready to feed an
    /// LSB-first packer (what a hardware code ROM would output).
    ///
    /// # Panics
    /// Panics if the symbol has no code.
    #[inline]
    pub fn code(&self, symbol: usize) -> (u16, u8) {
        let len = self.lengths[symbol];
        assert!(len > 0, "symbol {symbol} has no code");
        (self.codes[symbol], len)
    }

    /// Number of symbols in the book.
    pub fn num_symbols(&self) -> usize {
        self.lengths.len()
    }
}

/// Width of the [`Decoder`] lookup table. Nine bits hold every fixed-table
/// code (literal/length codes are 7–9 bits, distance codes 5), so fixed
/// blocks never leave the table; dynamic codes of 10–15 bits take the walk.
pub(crate) const TABLE_BITS: u32 = 9;

/// Decoder-side canonical Huffman table.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// count[len] = number of codes of that length.
    count: [u16; MAX_BITS + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u16>,
    /// Indexed by the next [`TABLE_BITS`] stream bits: `sym << 4 | len` for
    /// the code of length `len <= TABLE_BITS` those bits start with, 0 when
    /// they start with no such code (a longer code, or a gap).
    table: [u16; 1 << TABLE_BITS],
}

/// Errors from canonical decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bit stream ended mid-code.
    OutOfInput,
    /// The accumulated bits match no code of any length (invalid stream or
    /// incomplete code used where a complete one is required).
    InvalidCode,
}

impl From<OutOfBits> for DecodeError {
    fn from(_: OutOfBits) -> Self {
        DecodeError::OutOfInput
    }
}

impl Decoder {
    /// Build a decoder from code lengths. Returns `None` if the lengths
    /// oversubscribe the code space. Incomplete codes are permitted (Deflate
    /// allows a single-symbol distance code, for instance); decoding a gap
    /// yields [`DecodeError::InvalidCode`].
    pub fn from_lengths(lengths: &[u8]) -> Option<Self> {
        let mut count = [0u16; MAX_BITS + 1];
        for &len in lengths {
            if len as usize > MAX_BITS {
                return None;
            }
            count[len as usize] += 1;
        }
        count[0] = 0;
        // Check for oversubscription.
        let mut left: i32 = 1;
        for &c in &count[1..=MAX_BITS] {
            left <<= 1;
            left -= i32::from(c);
            if left < 0 {
                return None;
            }
        }
        // offsets[len] = index of first symbol of that length in `symbols`.
        let mut offs = [0usize; MAX_BITS + 2];
        for len in 1..=MAX_BITS {
            offs[len + 1] = offs[len] + count[len] as usize;
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l != 0).count()];
        for (sym, &len) in lengths.iter().enumerate() {
            if len != 0 {
                symbols[offs[len as usize]] = sym as u16;
                offs[len as usize] += 1;
            }
        }
        // Each short code goes in bit-reversed (stream order) at every index
        // it prefixes. The lengths passed the checks above, so
        // `canonical_codes` cannot panic. Symbols past 12 bits do not pack;
        // no Deflate alphabet has them.
        let mut table = [0u16; 1 << TABLE_BITS];
        for (sym, (&len, &code)) in lengths.iter().zip(&canonical_codes(lengths)).enumerate() {
            if len == 0 || u32::from(len) > TABLE_BITS || sym >= 1 << 12 {
                continue;
            }
            let entry = (sym as u16) << 4 | u16::from(len);
            let mut i = usize::from(reverse_bits(code, len));
            while i < table.len() {
                table[i] = entry;
                i += 1 << len;
            }
        }
        Some(Self { count, symbols, table })
    }

    /// The table entry for the next stream bits `bits` (only the low
    /// [`TABLE_BITS`] are looked at): `sym << 4 | len`, or 0 for a miss.
    #[inline]
    pub(crate) fn probe(&self, bits: u64) -> u16 {
        self.table[(bits & ((1 << TABLE_BITS) - 1)) as usize]
    }

    /// Decode one symbol, reading bits MSB-of-code-first.
    ///
    /// One table probe when 9 bits are available and start with a code of
    /// at most 9 bits; otherwise the canonical walk, which also decides every
    /// error. A probe hit is exactly what the walk would return, since a
    /// prefix-free code has one code starting those bits.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, DecodeError> {
        if let Some(bits) = r.peek_bits(TABLE_BITS) {
            let entry = self.probe(bits);
            if entry != 0 {
                r.consume(u32::from(entry & 0xF));
                return Ok(entry >> 4);
            }
        }
        self.walk(r)
    }

    /// The bit-by-bit canonical walk: the slow path of [`Self::decode`].
    fn walk(&self, r: &mut BitReader<'_>) -> Result<u16, DecodeError> {
        let mut code: u32 = 0;
        let mut first: u32 = 0;
        let mut index: u32 = 0;
        for len in 1..=MAX_BITS {
            code |= r.read_bit()?;
            let cnt = u32::from(self.count[len]);
            if code < first + cnt {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += cnt;
            first = (first + cnt) << 1;
            code <<= 1;
        }
        Err(DecodeError::InvalidCode)
    }
}

/// Build length-limited Huffman code lengths from symbol frequencies.
///
/// Uses the classic two-queue Huffman construction followed by zlib's
/// overflow fix-up to cap depths at `max_bits`. Symbols with zero frequency
/// get length 0. If fewer than two symbols occur, the survivors get length 1
/// (Deflate requires at least one bit per emitted code and tolerates the
/// resulting incomplete tree for distance codes; for literal codes the
/// end-of-block symbol guarantees ≥ 1 nonzero frequency).
pub fn build_lengths(freqs: &[u64], max_bits: u8) -> Vec<u8> {
    assert!(max_bits as usize <= MAX_BITS);
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match active.len() {
        0 => return lengths,
        1 => {
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap-free O(n log n) Huffman: sort leaves, then merge with a queue.
    let mut leaves: Vec<(u64, usize)> = active.iter().map(|&i| (freqs[i], i)).collect();
    leaves.sort_unstable();

    // Internal nodes: (freq, left child, right child); children index into a
    // combined node space where 0..n are leaves and n.. are internal.
    let mut parent = vec![usize::MAX; leaves.len() * 2];
    let mut node_freq: Vec<u64> = Vec::with_capacity(leaves.len());
    let mut li = 0usize; // next unconsumed leaf
    let mut qi = 0usize; // next unconsumed internal node
    let num_leaves = leaves.len();
    let take_min = |li: &mut usize,
                    qi: &mut usize,
                    leaves: &[(u64, usize)],
                    node_freq: &[u64]|
     -> (u64, usize) {
        let leaf_ok = *li < leaves.len();
        let node_ok = *qi < node_freq.len();
        // Prefer the leaf on ties: produces the flattest trees, like zlib.
        if leaf_ok && (!node_ok || leaves[*li].0 <= node_freq[*qi]) {
            let v = (leaves[*li].0, *li);
            *li += 1;
            v
        } else {
            let v = (node_freq[*qi], num_leaves + *qi);
            *qi += 1;
            v
        }
    };
    while (num_leaves - li) + (node_freq.len() - qi) >= 2 {
        let (f1, c1) = take_min(&mut li, &mut qi, &leaves, &node_freq);
        let (f2, c2) = take_min(&mut li, &mut qi, &leaves, &node_freq);
        let new_idx = num_leaves + node_freq.len();
        parent[c1] = new_idx;
        parent[c2] = new_idx;
        node_freq.push(f1 + f2);
        if parent.len() <= new_idx {
            parent.resize(new_idx + 1, usize::MAX);
        }
    }

    // Depth of each leaf = chain length to the root.
    let mut bl_count = [0u32; MAX_BITS + 2];
    let mut depths = vec![0u8; num_leaves];
    for (leaf_idx, depth) in depths.iter_mut().enumerate() {
        let mut d = 0u32;
        let mut node = leaf_idx;
        while parent[node] != usize::MAX {
            node = parent[node];
            d += 1;
        }
        // Cap for the histogram; overflow handled below.
        *depth = d.min(u32::from(max_bits)) as u8;
        bl_count[d.min(u32::from(max_bits)) as usize] += 1;
        if d > u32::from(max_bits) {
            // Mark overflow by counting at max_bits; fix-up below rebalances.
        }
    }

    // zlib-style overflow fix-up: while the Kraft sum exceeds 1, demote.
    // Because we capped depths at max_bits, recompute the Kraft sum and move
    // leaves from shorter lengths down until it fits.
    loop {
        let kraft: u64 = (1..=max_bits as usize)
            .map(|l| u64::from(bl_count[l]) << (max_bits as usize - l))
            .sum();
        if kraft <= 1u64 << max_bits {
            break;
        }
        // Find the longest non-max length with entries, move one leaf deeper.
        let mut bits = max_bits as usize - 1;
        while bl_count[bits] == 0 {
            bits -= 1;
        }
        bl_count[bits] -= 1;
        bl_count[bits + 1] += 1;
    }

    // Reassign depths to leaves longest-codes-to-rarest-symbols: iterate
    // leaves from rarest to most frequent, drawing lengths from longest to
    // shortest. Canonicalisation later only cares about the multiset.
    let mut len_iter =
        (1..=max_bits as usize).rev().flat_map(|l| std::iter::repeat_n(l, bl_count[l] as usize));
    for &(_, sym) in &leaves {
        let l = len_iter.next().expect("length pool matches leaf count");
        lengths[sym] = l as u8;
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_example_codes() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) yield
        // codes 010,011,100,101,110,00,1110,1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        assert_eq!(codes, vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]);
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10000000, 8), 0b00000001);
        assert_eq!(reverse_bits(0b101010101010101, 15), 0b101010101010101);
    }

    #[test]
    fn encode_decode_round_trip() {
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let book = Codebook::from_lengths(&lengths);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let symbols = [5usize, 0, 7, 3, 5, 6, 1, 2, 4, 5, 5];
        let mut w = BitWriter::new();
        for &s in &symbols {
            book.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), s as u16);
        }
    }

    #[test]
    fn table_serves_every_fixed_code_as_the_walk_does() {
        // Every fixed code is at most 9 bits, so each of the 512 windows
        // must hit, with the symbol and length the walk decodes from it.
        let (lit, dist) = crate::fixed::fixed_decoders();
        for dec in [lit, dist] {
            for window in 0..1u16 << TABLE_BITS {
                let entry = dec.probe(u64::from(window));
                assert_ne!(entry, 0, "window {window:#011b} missed");
                let bytes = window.to_le_bytes();
                let mut r = BitReader::new(&bytes);
                assert_eq!(dec.walk(&mut r), Ok(entry >> 4));
                assert_eq!(16 - r.remaining_bits(), u64::from(entry & 0xF));
            }
        }
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three codes of length 1 is impossible.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_none());
    }

    #[test]
    fn incomplete_code_is_buildable_but_gaps_error() {
        // Single symbol with length 1: valid per Deflate (distance trees).
        let dec = Decoder::from_lengths(&[1, 0]).unwrap();
        let mut w = BitWriter::new();
        w.write_bits(0, 1); // code 0 = symbol 0
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 0);

        let mut w = BitWriter::new();
        w.write_bits(0x7FFF, 15); // all-ones walks past every code
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r), Err(DecodeError::InvalidCode));
    }

    #[test]
    fn decode_out_of_input() {
        let dec = Decoder::from_lengths(&[2, 2, 2, 2]).unwrap();
        let bytes: [u8; 0] = [];
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r), Err(DecodeError::OutOfInput));
    }

    #[test]
    fn build_lengths_matches_entropy_ordering() {
        let freqs = [100u64, 1, 1, 50, 0, 25];
        let lengths = build_lengths(&freqs, 15);
        assert_eq!(lengths[4], 0, "zero-frequency symbol gets no code");
        assert!(lengths[0] <= lengths[3]);
        assert!(lengths[3] <= lengths[5]);
        assert!(lengths[5] <= lengths[1]);
        // Kraft equality for a complete code.
        let kraft: f64 = lengths.iter().filter(|&&l| l > 0).map(|&l| 0.5f64.powi(l as i32)).sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft = {kraft}");
    }

    #[test]
    fn build_lengths_respects_limit() {
        // Fibonacci-ish frequencies force deep trees without a limit.
        let freqs: Vec<u64> = {
            let mut v = vec![1u64, 1];
            for i in 2..30 {
                let next = v[i - 1] + v[i - 2];
                v.push(next);
            }
            v
        };
        let lengths = build_lengths(&freqs, 15);
        assert!(lengths.iter().all(|&l| l <= 15));
        let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (15 - l)).sum();
        assert!(kraft <= 1 << 15, "over-subscribed after limit: {kraft}");
        // The limited code must still be decodable end-to-end.
        assert!(Decoder::from_lengths(&lengths).is_some());
    }

    #[test]
    fn build_lengths_single_symbol() {
        let lengths = build_lengths(&[0, 7, 0], 15);
        assert_eq!(lengths, vec![0, 1, 0]);
    }

    #[test]
    fn build_lengths_empty() {
        assert_eq!(build_lengths(&[0, 0], 15), vec![0, 0]);
    }

    #[test]
    fn built_code_round_trips_through_decoder() {
        let freqs = [5u64, 9, 12, 13, 16, 45, 0, 3];
        let lengths = build_lengths(&freqs, 15);
        let book = Codebook::from_lengths(&lengths);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let msg = [0usize, 1, 2, 3, 4, 5, 7, 5, 5, 0];
        let mut w = BitWriter::new();
        for &s in &msg {
            book.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode(&mut r).unwrap(), s as u16);
        }
    }
}
