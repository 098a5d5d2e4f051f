//! A complete Deflate decoder (RFC 1951): stored, fixed and dynamic blocks.
//!
//! This is the repo's reference decompressor — the stand-in for the stock
//! ZLib the paper verified against ("comparing the results to software
//! reference model"). Every compressed stream produced by any stage in this
//! workspace must inflate back to the original bytes.

use crate::bitio::{BitReader, OutOfBits};
use crate::fixed::{distance_base, fixed_decoders, length_base, END_OF_BLOCK, MAX_MATCH};
use crate::huffman::{DecodeError, Decoder, TABLE_BITS};

/// Errors produced while decoding a Deflate stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended before the final block completed.
    UnexpectedEof,
    /// Reserved block type 11 encountered.
    ReservedBlockType,
    /// Stored block LEN/NLEN complement check failed.
    StoredLengthMismatch,
    /// A Huffman code table in a dynamic block is invalid.
    BadCodeTable,
    /// A decoded symbol is outside its alphabet.
    BadSymbol,
    /// A match distance reaches before the start of output.
    DistanceTooFar,
    /// The code-length RLE (symbol 16) repeated with no previous length.
    RepeatWithoutPrevious,
    /// Decoded output exceeded the configured [`Limits`] output cap.
    OutputLimitExceeded,
    /// The stream carried more blocks than the configured [`Limits`] allow.
    BlockLimitExceeded,
}

impl From<OutOfBits> for InflateError {
    fn from(_: OutOfBits) -> Self {
        InflateError::UnexpectedEof
    }
}

impl From<DecodeError> for InflateError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::OutOfInput => InflateError::UnexpectedEof,
            DecodeError::InvalidCode => InflateError::BadSymbol,
        }
    }
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            InflateError::UnexpectedEof => "unexpected end of deflate stream",
            InflateError::ReservedBlockType => "reserved block type 11",
            InflateError::StoredLengthMismatch => "stored block LEN/NLEN mismatch",
            InflateError::BadCodeTable => "invalid huffman code table",
            InflateError::BadSymbol => "invalid symbol in stream",
            InflateError::DistanceTooFar => "match distance exceeds output",
            InflateError::RepeatWithoutPrevious => "length repeat with no previous code",
            InflateError::OutputLimitExceeded => "decoded output exceeds configured limit",
            InflateError::BlockLimitExceeded => "block count exceeds configured limit",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for InflateError {}

/// Resource ceilings enforced *during* decode — the defense against
/// decompression bombs and hostile length fields.
///
/// All fields default to `None` (no limit), so `Limits::default()` decodes
/// exactly like the unlimited entry points. The ratio cap is computed
/// against the compressed length with a 4 KiB floor, so tiny-but-legitimate
/// inputs (an empty gzip member is 20 bytes and "expands" infinitely) are
/// not rejected spuriously.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Hard cap on total decoded bytes.
    pub max_output_bytes: Option<u64>,
    /// Cap on `decoded / max(compressed, 4096)`.
    pub max_expansion_ratio: Option<u32>,
    /// Cap on the number of Deflate blocks in the stream.
    pub max_blocks: Option<u64>,
}

impl Limits {
    /// No limits at all (same as `Default`).
    pub fn none() -> Self {
        Self::default()
    }

    /// Set the hard output-byte cap.
    #[must_use]
    pub fn with_max_output_bytes(mut self, bytes: u64) -> Self {
        self.max_output_bytes = Some(bytes);
        self
    }

    /// Set the expansion-ratio cap (decoded vs. compressed bytes).
    #[must_use]
    pub fn with_max_expansion_ratio(mut self, ratio: u32) -> Self {
        self.max_expansion_ratio = Some(ratio);
        self
    }

    /// Set the block-count cap.
    #[must_use]
    pub fn with_max_blocks(mut self, blocks: u64) -> Self {
        self.max_blocks = Some(blocks);
        self
    }

    /// The effective output cap in bytes for a stream of `compressed_len`
    /// input bytes (`u64::MAX` when unlimited).
    pub fn output_cap(&self, compressed_len: usize) -> u64 {
        let mut cap = self.max_output_bytes.unwrap_or(u64::MAX);
        if let Some(ratio) = self.max_expansion_ratio {
            let floor = (compressed_len as u64).max(4096);
            cap = cap.min(floor.saturating_mul(u64::from(ratio)));
        }
        cap
    }
}

/// Decode a complete Deflate stream into its uncompressed bytes.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    inflate_limited(data, &Limits::none())
}

/// Decode a complete Deflate stream, enforcing [`Limits`] while decoding
/// (a bomb fails fast with [`InflateError::OutputLimitExceeded`] instead of
/// allocating its full expansion).
pub fn inflate_limited(data: &[u8], limits: &Limits) -> Result<Vec<u8>, InflateError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    inflate_into_limited(&mut r, &mut out, limits, data.len())?;
    Ok(out)
}

/// Decode a Deflate stream from an existing reader, appending to `out`.
/// Returns with the reader positioned just past the final block (mid-byte),
/// which lets container formats read their trailers after re-alignment.
pub fn inflate_into(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), InflateError> {
    while !inflate_one_block(r, out)? {}
    Ok(())
}

/// [`inflate_into`] with [`Limits`] enforcement; `compressed_len` is the
/// container's compressed payload size, used for the ratio cap.
pub fn inflate_into_limited(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    limits: &Limits,
    compressed_len: usize,
) -> Result<(), InflateError> {
    let cap = limits.output_cap(compressed_len);
    let mut blocks: u64 = 0;
    loop {
        blocks += 1;
        if limits.max_blocks.is_some_and(|max| blocks > max) {
            return Err(InflateError::BlockLimitExceeded);
        }
        if inflate_one_block_capped(r, out, cap)? {
            return Ok(());
        }
    }
}

/// Decode exactly one Deflate block, appending to `out`. Returns `true`
/// when the block carried the BFINAL bit.
pub fn inflate_one_block(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<bool, InflateError> {
    inflate_one_block_capped(r, out, u64::MAX)
}

fn inflate_one_block_capped(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    cap: u64,
) -> Result<bool, InflateError> {
    let bfinal = r.read_bit()?;
    let btype = r.read_bits(2)?;
    match btype {
        0b00 => inflate_stored(r, out, cap)?,
        0b01 => {
            let (lit, dist) = fixed_decoders();
            inflate_compressed(r, out, lit, dist, cap)?;
        }
        0b10 => {
            let (lit, dist) = read_dynamic_tables(r)?;
            inflate_compressed(r, out, &lit, &dist, cap)?;
        }
        _ => return Err(InflateError::ReservedBlockType),
    }
    Ok(bfinal == 1)
}

/// Push-based incremental inflate with **block-granular** resumption: feed
/// compressed bytes as they arrive, take decoded bytes as blocks complete.
///
/// The resume point is a block boundary, so output for a block only appears
/// once its final bit has been fed — which is exactly the granularity the
/// streaming session's `Z_SYNC_FLUSH` points create (each flush closes a
/// block and byte-aligns, making everything before it decodable).
#[derive(Debug, Default)]
pub struct InflateStream {
    input: Vec<u8>,
    out: Vec<u8>,
    taken: usize,
    bit_pos: u64,
    finished: bool,
}

impl InflateStream {
    /// New empty stream decoder (raw Deflate, no container framing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed more compressed bytes; decodes as many complete blocks as the
    /// data now allows. Errors are sticky and final.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), InflateError> {
        self.input.extend_from_slice(chunk);
        self.pump()
    }

    fn pump(&mut self) -> Result<(), InflateError> {
        while !self.finished {
            // Resume at the block boundary: start at its byte, skip the bits
            // before it in that byte. Each attempt costs O(block), not
            // O(stream).
            let start = (self.bit_pos / 8) as usize;
            let mut r = BitReader::new(&self.input[start..]);
            r.read_bits((self.bit_pos % 8) as u32).expect("resume point is inside fed data");
            let checkpoint = self.out.len();
            match inflate_one_block(&mut r, &mut self.out) {
                Ok(done) => {
                    self.bit_pos = self.input.len() as u64 * 8 - r.remaining_bits();
                    if done {
                        self.finished = true;
                    }
                }
                Err(InflateError::UnexpectedEof) => {
                    // Partial block: roll back and wait for more bytes.
                    self.out.truncate(checkpoint);
                    return Ok(());
                }
                Err(e) => {
                    self.out.truncate(checkpoint);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Take the decoded bytes produced since the last call.
    pub fn take_output(&mut self) -> Vec<u8> {
        let fresh = self.out[self.taken..].to_vec();
        self.taken = self.out.len();
        // Keep the full history: back-references may reach 32 KB behind.
        fresh
    }

    /// True once the final block has been decoded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Total decoded bytes so far (taken or not).
    pub fn total_out(&self) -> u64 {
        self.out.len() as u64
    }
}

fn inflate_stored(r: &mut BitReader<'_>, out: &mut Vec<u8>, cap: u64) -> Result<(), InflateError> {
    r.align_to_byte();
    let len = u16::from_le_bytes([r.read_aligned_byte()?, r.read_aligned_byte()?]);
    let nlen = u16::from_le_bytes([r.read_aligned_byte()?, r.read_aligned_byte()?]);
    if len != !nlen {
        return Err(InflateError::StoredLengthMismatch);
    }
    if out.len() as u64 + u64::from(len) > cap {
        return Err(InflateError::OutputLimitExceeded);
    }
    r.read_aligned_bytes(usize::from(len), out)?;
    Ok(())
}

/// Order in which code-length-code lengths are transmitted (RFC 1951 §3.2.7).
const CLCL_ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder), InflateError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadCodeTable);
    }
    let mut clc_lengths = [0u8; 19];
    for &idx in CLCL_ORDER.iter().take(hclen) {
        clc_lengths[idx] = r.read_bits(3)? as u8;
    }
    let clc = Decoder::from_lengths(&clc_lengths).ok_or(InflateError::BadCodeTable)?;

    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let sym = clc.decode(r)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(InflateError::RepeatWithoutPrevious);
                }
                let prev = lengths[i - 1];
                let n = r.read_bits(2)? as usize + 3;
                if i + n > lengths.len() {
                    return Err(InflateError::BadCodeTable);
                }
                lengths[i..i + n].fill(prev);
                i += n;
            }
            17 => {
                let n = r.read_bits(3)? as usize + 3;
                if i + n > lengths.len() {
                    return Err(InflateError::BadCodeTable);
                }
                i += n;
            }
            18 => {
                let n = r.read_bits(7)? as usize + 11;
                if i + n > lengths.len() {
                    return Err(InflateError::BadCodeTable);
                }
                i += n;
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
    if lengths[END_OF_BLOCK] == 0 {
        // Every block must be terminable.
        return Err(InflateError::BadCodeTable);
    }
    let lit = Decoder::from_lengths(&lengths[..hlit]).ok_or(InflateError::BadCodeTable)?;
    let dist = Decoder::from_lengths(&lengths[hlit..]).ok_or(InflateError::BadCodeTable)?;
    Ok((lit, dist))
}

fn inflate_compressed(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Decoder,
    dist: &Decoder,
    cap: u64,
) -> Result<(), InflateError> {
    loop {
        if inflate_fast(r, out, lit, dist, cap) {
            return Ok(());
        }
        // One symbol the fast loop declined, with every check in place.
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                if out.len() as u64 >= cap {
                    return Err(InflateError::OutputLimitExceeded);
                }
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let (base, extra) = length_base(sym).ok_or(InflateError::BadSymbol)?;
                let len = base + r.read_bits(extra)? as u32;
                let dsym = dist.decode(r)?;
                let (dbase, dextra) = distance_base(dsym).ok_or(InflateError::BadSymbol)?;
                let d = dbase + r.read_bits(dextra)? as u32;
                let d = d as usize;
                if d > out.len() {
                    return Err(InflateError::DistanceTooFar);
                }
                if out.len() as u64 + u64::from(len) > cap {
                    return Err(InflateError::OutputLimitExceeded);
                }
                copy_match(out, d, len as usize);
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}

/// Most stream bits one symbol takes on the fast path: a table-width
/// literal/length code, 5 length extra bits, a table-width distance code
/// and 13 distance extra bits.
const FAST_SYMBOL_BITS: u32 = 2 * TABLE_BITS + 5 + 13;

/// The fused symbol loop: decode whole literal or match symbols from one
/// peek of [`FAST_SYMBOL_BITS`] (a word refill tops the buffer up to 57+
/// bits, enough for about two symbols) while that many input bits and
/// [`MAX_MATCH`] bytes of output cap remain. A symbol is consumed only once
/// it is complete and valid; anything else (end of input or cap in sight, a
/// code longer than the table, a bad symbol, a distance too far) stops the
/// loop with the reader still at that symbol, so the per-symbol loop decodes
/// it and reports the same result it always has. Returns `true` at end of
/// block.
#[inline]
fn inflate_fast(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Decoder,
    dist: &Decoder,
    cap: u64,
) -> bool {
    while out.len() as u64 + u64::from(MAX_MATCH) <= cap {
        let Some(bits) = r.peek_bits(FAST_SYMBOL_BITS) else { break };
        let entry = lit.probe(bits);
        if entry == 0 {
            break;
        }
        let sym = entry >> 4;
        let mut used = u32::from(entry & 0xF);
        if sym < 256 {
            r.consume(used);
            out.push(sym as u8);
            continue;
        }
        if sym == 256 {
            r.consume(used);
            return true;
        }
        let Some((base, extra)) = length_base(sym) else { break };
        let len = base + low_bits(bits >> used, extra);
        used += extra;
        let dentry = dist.probe(bits >> used);
        if dentry == 0 {
            break;
        }
        used += u32::from(dentry & 0xF);
        let Some((dbase, dextra)) = distance_base(dentry >> 4) else { break };
        let d = (dbase + low_bits(bits >> used, dextra)) as usize;
        used += dextra;
        if d > out.len() {
            break;
        }
        r.consume(used);
        copy_match(out, d, len as usize);
    }
    false
}

#[inline]
fn low_bits(bits: u64, n: u32) -> u32 {
    (bits & ((1u64 << n) - 1)) as u32
}

/// Append the `len`-byte match at distance `d` (`1 <= d <= out.len()`).
/// Each pass copies the whole span written so far from the match source,
/// which keeps a multiple of the period `d` and so handles self-overlap
/// (`d < len`) by doubling; a non-overlapping match is one pass.
#[inline]
fn copy_match(out: &mut Vec<u8>, d: usize, len: usize) {
    let start = out.len() - d;
    let mut left = len;
    while left > 0 {
        let n = left.min(out.len() - start);
        out.extend_from_within(start..start + n);
        left -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fixed_stream() {
        // `python3 -c "import zlib;print(zlib.compress(b'hello hello hello hello',1)[2:-4].hex())"`
        // yields a zlib stream; this vector is the raw deflate body of
        // compressing "abc" with fixed codes: literals 'a','b','c' + EOB.
        // Hand-built: BFINAL=1,BTYPE=01, 'a'=0x61 -> code 0x31+0x61=0x92 (8b),
        // easier to verify via our own encoder in encoder.rs tests; here we
        // check a canonical empty fixed block: header + EOB(0000000).
        let data = [0b0000_0011u8, 0b0000_0000]; // 1,01, then 7 zero bits
        assert_eq!(inflate(&data).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn reserved_block_type_rejected() {
        let data = [0b0000_0111u8];
        assert_eq!(inflate(&data), Err(InflateError::ReservedBlockType));
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = [0b0000_0011u8]; // fixed block, EOB cut off
        assert_eq!(inflate(&data), Err(InflateError::UnexpectedEof));
    }

    #[test]
    fn stored_nlen_mismatch_rejected() {
        // BFINAL=1 BTYPE=00, LEN=1, NLEN=0 (should be !1).
        let data = [0b0000_0001, 0x01, 0x00, 0x00, 0x00, 0xAA];
        assert_eq!(inflate(&data), Err(InflateError::StoredLengthMismatch));
    }

    #[test]
    fn distance_too_far_rejected() {
        // Fixed block: match(len 3, dist 1) as the very first symbol.
        use crate::bitio::BitWriter;
        use crate::fixed::{fixed_dist_lengths, fixed_litlen_lengths};
        use crate::huffman::Codebook;
        let lit = Codebook::from_lengths(&fixed_litlen_lengths());
        let dist = Codebook::from_lengths(&fixed_dist_lengths());
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        lit.encode(&mut w, 257); // len 3, no extra
        dist.encode(&mut w, 0); // dist 1, no extra
        lit.encode(&mut w, 256);
        assert_eq!(inflate(&w.finish()), Err(InflateError::DistanceTooFar));
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(InflateError::DistanceTooFar.to_string(), "match distance exceeds output");
        assert_eq!(
            InflateError::OutputLimitExceeded.to_string(),
            "decoded output exceeds configured limit"
        );
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use crate::encoder::{BlockKind, DeflateEncoder};
    use crate::token::Token;

    /// A small stream that expands to `n` identical bytes via one literal
    /// plus maximal matches — a miniature decompression bomb.
    fn bomb(n: usize) -> Vec<u8> {
        let mut tokens = vec![Token::Literal(b'x')];
        let mut produced = 1;
        while produced < n {
            let len = (n - produced).clamp(3, 258) as u32;
            tokens.push(Token::new_match(1, len));
            produced += len as usize;
        }
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens, BlockKind::FixedHuffman, true);
        enc.finish()
    }

    #[test]
    fn unlimited_default_matches_plain_inflate() {
        let stream = bomb(100_000);
        assert_eq!(inflate_limited(&stream, &Limits::default()), inflate(&stream));
    }

    #[test]
    fn output_byte_cap_stops_a_bomb_early() {
        let stream = bomb(1_000_000);
        let limits = Limits::none().with_max_output_bytes(10_000);
        assert_eq!(inflate_limited(&stream, &limits), Err(InflateError::OutputLimitExceeded));
    }

    #[test]
    fn expansion_ratio_cap_stops_a_bomb() {
        let stream = bomb(10_000_000);
        assert!(stream.len() < 100_000, "bomb must be small on the wire");
        let limits = Limits::none().with_max_expansion_ratio(4);
        assert_eq!(inflate_limited(&stream, &limits), Err(InflateError::OutputLimitExceeded));
    }

    #[test]
    fn ratio_floor_spares_tiny_legitimate_streams() {
        // An 11-byte stream decoding to ~300 bytes has ratio ≈ 27, but the
        // 4096-byte floor keeps it under `4096 * 4`.
        let stream = bomb(300);
        let limits = Limits::none().with_max_expansion_ratio(4);
        assert_eq!(inflate_limited(&stream, &limits).unwrap().len(), 300);
    }

    #[test]
    fn block_count_cap_enforced() {
        let mut enc = DeflateEncoder::new();
        for i in 0..5 {
            let tokens = [Token::Literal(b'a' + i as u8)];
            enc.write_block(&tokens, BlockKind::FixedHuffman, i == 4);
        }
        let stream = enc.finish();
        assert_eq!(
            inflate_limited(&stream, &Limits::none().with_max_blocks(4)),
            Err(InflateError::BlockLimitExceeded)
        );
        assert_eq!(inflate_limited(&stream, &Limits::none().with_max_blocks(5)).unwrap(), b"abcde");
    }

    #[test]
    fn stored_block_after_fixed_block_copies_buffered_payload() {
        // The fixed block's word refill has already buffered the start of
        // the stored block's header and payload when the stored block starts.
        for len in [0usize, 1, 3, 7, 8, 9, 20, 1000] {
            let payload: Vec<u8> = (0..len as u32).map(|i| (i * 7 + 1) as u8).collect();
            let lits = |b: &[u8]| b.iter().copied().map(Token::Literal).collect::<Vec<_>>();
            let mut enc = DeflateEncoder::new();
            enc.write_block(&lits(b"fixed"), BlockKind::FixedHuffman, false);
            enc.write_block(&lits(&payload), BlockKind::Stored, false);
            enc.write_block(&lits(b"tail"), BlockKind::FixedHuffman, true);
            let stream = enc.finish();
            let expected = [&b"fixed"[..], &payload, b"tail"].concat();
            assert_eq!(inflate(&stream).unwrap(), expected);
            let cap = Limits::none().with_max_output_bytes(5 + len as u64 - 1);
            if len > 0 {
                assert_eq!(inflate_limited(&stream, &cap), Err(InflateError::OutputLimitExceeded));
            }
            for cut in 0..stream.len() {
                assert_eq!(inflate(&stream[..cut]), Err(InflateError::UnexpectedEof), "cut {cut}");
            }
        }
    }

    #[test]
    fn stored_blocks_respect_the_cap() {
        // BFINAL=1 BTYPE=00, LEN=100, NLEN=!100, then 100 payload bytes.
        let mut data = vec![0b0000_0001, 100, 0, !100u8, 0xFF];
        data.extend(std::iter::repeat_n(0xAB, 100));
        assert_eq!(
            inflate_limited(&data, &Limits::none().with_max_output_bytes(99)),
            Err(InflateError::OutputLimitExceeded)
        );
        assert_eq!(
            inflate_limited(&data, &Limits::none().with_max_output_bytes(100)).unwrap().len(),
            100
        );
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::encoder::{BlockKind, DeflateEncoder};
    use crate::token::Token;

    fn blocks(parts: &[&[u8]]) -> (Vec<u8>, Vec<u8>) {
        let mut enc = DeflateEncoder::new();
        let mut joined = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let tokens: Vec<Token> = part.iter().copied().map(Token::Literal).collect();
            enc.write_block(&tokens, BlockKind::FixedHuffman, i + 1 == parts.len());
            joined.extend_from_slice(part);
        }
        (enc.finish(), joined)
    }

    #[test]
    fn byte_at_a_time_feeding_decodes_everything() {
        let (stream, expected) = blocks(&[b"first block ", b"second", b" third and last"]);
        let mut s = InflateStream::new();
        let mut got = Vec::new();
        for &b in &stream {
            s.feed(&[b]).unwrap();
            got.extend(s.take_output());
        }
        assert!(s.is_finished());
        assert_eq!(got, expected);
    }

    #[test]
    fn output_appears_at_block_boundaries() {
        let (stream, expected) = blocks(&[b"alpha beta gamma ", b"delta"]);
        let mut s = InflateStream::new();
        // Feed everything except the last byte: the final block is still
        // open, so only the first block's bytes are out.
        s.feed(&stream[..stream.len() - 1]).unwrap();
        let early = s.take_output();
        assert!(early.starts_with(b"alpha"));
        assert!(early.len() < expected.len());
        assert!(!s.is_finished());
        s.feed(&stream[stream.len() - 1..]).unwrap();
        let mut got = early;
        got.extend(s.take_output());
        assert_eq!(got, expected);
        assert!(s.is_finished());
        assert_eq!(s.total_out(), expected.len() as u64);
    }

    #[test]
    fn cross_block_back_references_resolve() {
        let mut enc = DeflateEncoder::new();
        let lits: Vec<Token> = b"abcdefgh".iter().copied().map(Token::Literal).collect();
        enc.write_block(&lits, BlockKind::FixedHuffman, false);
        enc.write_block(&[Token::new_match(8, 8)], BlockKind::FixedHuffman, true);
        let stream = enc.finish();
        let mut s = InflateStream::new();
        for chunk in stream.chunks(3) {
            s.feed(chunk).unwrap();
        }
        let mut got = Vec::new();
        got.extend(s.take_output());
        assert_eq!(got, b"abcdefghabcdefgh");
    }

    #[test]
    fn corrupt_stream_errors_and_rolls_back() {
        let (mut stream, _) = blocks(&[b"some payload to protect"]);
        stream[0] = 0b110; // BFINAL=0 + reserved BTYPE=11
        let mut s = InflateStream::new();
        assert!(matches!(s.feed(&stream), Err(InflateError::ReservedBlockType)));
        assert!(s.take_output().is_empty(), "no partial garbage");
    }

    #[test]
    fn block_boundaries_at_every_bit_offset_resume_byte_by_byte() {
        // A fixed block of `a` 8-bit and `b` 9-bit literal codes is
        // 3 + 8a + 9b + 7 bits long, so varying `b` walks the block
        // boundaries through every bit offset.
        let mut enc = DeflateEncoder::new();
        let mut expected = Vec::new();
        let mut offsets = [false; 8];
        for i in 0..24usize {
            let mut part = vec![b'a'; i / 5];
            part.extend(std::iter::repeat_n(0xF0u8, i % 8));
            let tokens: Vec<Token> = part.iter().copied().map(Token::Literal).collect();
            enc.write_block(&tokens, BlockKind::FixedHuffman, i == 23);
            offsets[(enc.bit_len() % 8) as usize] = true;
            expected.extend(part);
        }
        assert!(offsets.iter().all(|&hit| hit), "boundaries at offsets {offsets:?}");
        let stream = enc.finish();
        let mut s = InflateStream::new();
        let mut got = Vec::new();
        for &b in &stream {
            s.feed(&[b]).unwrap();
            got.extend(s.take_output());
        }
        assert!(s.is_finished());
        assert_eq!(got, expected);
    }

    #[test]
    fn session_flush_points_release_output_incrementally() {
        // (The cross-crate session pairing lives in tests/; here a plain
        // sync-flush sequence stands in.)
        let mut enc = DeflateEncoder::new();
        let t1: Vec<Token> = b"chunk one ".iter().copied().map(Token::Literal).collect();
        enc.write_block(&t1, BlockKind::FixedHuffman, false);
        enc.sync_flush();
        let aligned_len = enc.as_bytes().len();
        let t2: Vec<Token> = b"chunk two".iter().copied().map(Token::Literal).collect();
        enc.write_block(&t2, BlockKind::FixedHuffman, true);
        let stream = enc.finish();
        let mut s = InflateStream::new();
        s.feed(&stream[..aligned_len]).unwrap();
        assert_eq!(s.take_output(), b"chunk one ", "flush point releases its block");
        s.feed(&stream[aligned_len..]).unwrap();
        assert_eq!(s.take_output(), b"chunk two");
    }
}
