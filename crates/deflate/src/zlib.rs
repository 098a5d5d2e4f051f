//! zlib container (RFC 1950): header, Deflate body, Adler-32 trailer.
//!
//! This is the exact wire format the paper targets — "to make the compressed
//! stream compatible with the ZLib library we encode the LZSS algorithm
//! output using a fixed Huffman table defined by the Deflate specification".

use crate::adler32::adler32;
use crate::bitio::BitReader;
use crate::encoder::{BlockKind, DeflateEncoder};
use crate::inflate::{inflate_into, inflate_into_limited, InflateError, Limits};
use crate::token::Token;

/// Errors produced while decoding a zlib stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZlibError {
    /// Stream shorter than the minimal header + trailer.
    TooShort,
    /// Compression method is not 8 (Deflate) or window too large.
    BadHeader,
    /// Header check bits do not satisfy the mod-31 rule.
    HeaderChecksum,
    /// FDICT preset dictionaries are not supported (the paper's stream never
    /// uses them).
    PresetDictUnsupported,
    /// Deflate body failed to decode.
    Inflate(InflateError),
    /// Adler-32 trailer mismatch.
    ChecksumMismatch {
        /// Checksum stored in the stream trailer.
        expected: u32,
        /// Checksum computed over the decoded output.
        actual: u32,
    },
}

impl From<InflateError> for ZlibError {
    fn from(e: InflateError) -> Self {
        ZlibError::Inflate(e)
    }
}

impl std::fmt::Display for ZlibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZlibError::TooShort => write!(f, "zlib stream too short"),
            ZlibError::BadHeader => write!(f, "bad zlib header"),
            ZlibError::HeaderChecksum => write!(f, "zlib header check failed"),
            ZlibError::PresetDictUnsupported => write!(f, "preset dictionary unsupported"),
            ZlibError::Inflate(e) => write!(f, "deflate error: {e}"),
            ZlibError::ChecksumMismatch { expected, actual } => {
                write!(f, "adler32 mismatch: stored {expected:08x}, computed {actual:08x}")
            }
        }
    }
}

impl std::error::Error for ZlibError {}

/// Build the 2-byte zlib header for a given LZ77 window size (`1 << (8+cinfo)`
/// bytes; Deflate caps it at 32 KiB). `flevel` is purely informational.
pub fn zlib_header(window_size: u32, flevel: u8) -> [u8; 2] {
    zlib_header_with(window_size, flevel, false)
}

/// As [`zlib_header`], optionally setting the `FDICT` preset-dictionary
/// flag (the 4-byte DICTID follows the header in the stream).
pub fn zlib_header_with(window_size: u32, flevel: u8, fdict: bool) -> [u8; 2] {
    assert!(window_size.is_power_of_two(), "window must be a power of two");
    assert!((256..=32_768).contains(&window_size), "window {window_size} out of zlib range");
    let cinfo = window_size.trailing_zeros() - 8;
    let cmf = ((cinfo as u8) << 4) | 8; // CM = 8 (deflate)
    let mut flg = (flevel & 0b11) << 6;
    if fdict {
        flg |= 0x20;
    }
    // FCHECK makes (CMF*256 + FLG) a multiple of 31.
    let rem = ((u16::from(cmf) << 8) | u16::from(flg)) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    [cmf, flg]
}

/// Compress a token stream produced against a preset dictionary into a
/// complete zlib stream with the `FDICT` flag and DICTID (RFC 1950 §2.2).
/// `original` is the payload only (the Adler-32 trailer covers it alone).
pub fn zlib_compress_tokens_with_dict(
    tokens: &[Token],
    original: &[u8],
    dict: &[u8],
    kind: BlockKind,
    window_size: u32,
) -> Vec<u8> {
    let flevel = match kind {
        BlockKind::Stored => 0,
        BlockKind::FixedHuffman => 1,
        BlockKind::DynamicHuffman => 2,
    };
    let mut out = zlib_header_with(window_size, flevel, true).to_vec();
    out.extend_from_slice(&adler32(dict).to_be_bytes()); // DICTID
    let mut enc = DeflateEncoder::new();
    enc.write_block(tokens, kind, true);
    out.extend_from_slice(&enc.finish());
    out.extend_from_slice(&adler32(original).to_be_bytes());
    out
}

/// Decompress a zlib stream that requires the given preset dictionary
/// (verifies the `FDICT` flag, the DICTID and the payload Adler-32).
pub fn zlib_decompress_with_dict(data: &[u8], dict: &[u8]) -> Result<Vec<u8>, ZlibError> {
    if data.len() < 10 {
        return Err(ZlibError::TooShort);
    }
    let (cmf, flg) = (data[0], data[1]);
    if cmf & 0x0F != 8 || (cmf >> 4) > 7 {
        return Err(ZlibError::BadHeader);
    }
    if (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 {
        return Err(ZlibError::HeaderChecksum);
    }
    if flg & 0x20 == 0 {
        // A dictionary was supplied for a stream that does not want one.
        return Err(ZlibError::BadHeader);
    }
    let dictid = u32::from_be_bytes([data[2], data[3], data[4], data[5]]);
    if dictid != adler32(dict) {
        return Err(ZlibError::ChecksumMismatch { expected: dictid, actual: adler32(dict) });
    }
    let mut r = BitReader::new(&data[6..]);
    let mut out = dict.to_vec();
    inflate_into(&mut r, &mut out)?;
    r.align_to_byte();
    let mut trailer = [0u8; 4];
    for b in &mut trailer {
        *b = r.read_aligned_byte().map_err(|_| ZlibError::TooShort)?;
    }
    out.drain(..dict.len());
    let expected = u32::from_be_bytes(trailer);
    let actual = adler32(&out);
    if expected != actual {
        return Err(ZlibError::ChecksumMismatch { expected, actual });
    }
    Ok(out)
}

/// Compress a token stream (already produced by some LZSS stage) into a
/// complete zlib stream. `original` must be the exact bytes the tokens expand
/// to — it feeds the Adler-32 trailer, mirroring how the hardware computes
/// the checksum on the uncompressed input as it streams through.
pub fn zlib_compress_tokens(
    tokens: &[Token],
    original: &[u8],
    kind: BlockKind,
    window_size: u32,
) -> Vec<u8> {
    let flevel = match kind {
        BlockKind::Stored => 0,
        BlockKind::FixedHuffman => 1, // the paper's "fastest" reference point
        BlockKind::DynamicHuffman => 2,
    };
    let mut out = zlib_header(window_size, flevel).to_vec();
    let mut enc = DeflateEncoder::new();
    enc.write_block(tokens, kind, true);
    out.extend_from_slice(&enc.finish());
    out.extend_from_slice(&adler32(original).to_be_bytes());
    out
}

/// Decompress a complete zlib stream, verifying header and Adler-32 trailer.
pub fn zlib_decompress(data: &[u8]) -> Result<Vec<u8>, ZlibError> {
    zlib_decompress_limited(data, &Limits::none())
}

/// Decode **one** zlib stream from the front of `data`, returning the
/// payload and the number of bytes the stream occupied.
///
/// Unlike [`zlib_decompress`], trailing bytes after the Adler-32 trailer are
/// not an error — they simply are not consumed. A zlib stream is
/// self-delimiting (the final-block bit ends the Deflate body), which is
/// what lets a framed-container salvage pass recover a payload whose length
/// field was lost with the damaged frame header.
///
/// # Errors
/// The same failures as [`zlib_decompress_limited`]; `limits` is enforced
/// while the body inflates.
pub fn zlib_decompress_prefix(data: &[u8], limits: &Limits) -> Result<(Vec<u8>, usize), ZlibError> {
    if data.len() < 6 {
        return Err(ZlibError::TooShort);
    }
    let (cmf, flg) = (data[0], data[1]);
    if cmf & 0x0F != 8 || (cmf >> 4) > 7 {
        return Err(ZlibError::BadHeader);
    }
    if (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 {
        return Err(ZlibError::HeaderChecksum);
    }
    if flg & 0x20 != 0 {
        return Err(ZlibError::PresetDictUnsupported);
    }
    let body = &data[2..];
    let mut r = BitReader::new(body);
    let mut out = Vec::new();
    inflate_into_limited(&mut r, &mut out, limits, data.len())?;
    r.align_to_byte();
    let mut trailer = [0u8; 4];
    for b in &mut trailer {
        *b = r.read_aligned_byte().map_err(|_| ZlibError::TooShort)?;
    }
    let expected = u32::from_be_bytes(trailer);
    let actual = adler32(&out);
    if expected != actual {
        return Err(ZlibError::ChecksumMismatch { expected, actual });
    }
    // After align_to_byte the remaining bit count is a whole number of
    // bytes, so the consumed length is exact.
    let consumed = 2 + (body.len() - (r.remaining_bits() / 8) as usize);
    Ok((out, consumed))
}

/// [`zlib_decompress`] with [`Limits`] enforced during the Deflate body —
/// a decompression bomb fails with `Inflate(OutputLimitExceeded)` before
/// its expansion is allocated.
pub fn zlib_decompress_limited(data: &[u8], limits: &Limits) -> Result<Vec<u8>, ZlibError> {
    if data.len() < 6 {
        return Err(ZlibError::TooShort);
    }
    let (cmf, flg) = (data[0], data[1]);
    if cmf & 0x0F != 8 || (cmf >> 4) > 7 {
        return Err(ZlibError::BadHeader);
    }
    if (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 {
        return Err(ZlibError::HeaderChecksum);
    }
    if flg & 0x20 != 0 {
        return Err(ZlibError::PresetDictUnsupported);
    }
    let mut r = BitReader::new(&data[2..]);
    let mut out = Vec::new();
    inflate_into_limited(&mut r, &mut out, limits, data.len())?;
    r.align_to_byte();
    let mut trailer = [0u8; 4];
    for b in &mut trailer {
        *b = r.read_aligned_byte().map_err(|_| ZlibError::TooShort)?;
    }
    let expected = u32::from_be_bytes(trailer);
    let actual = adler32(&out);
    if expected != actual {
        return Err(ZlibError::ChecksumMismatch { expected, actual });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token as T;

    fn literals(data: &[u8]) -> Vec<T> {
        data.iter().copied().map(T::Literal).collect()
    }

    #[test]
    fn header_check_bits_are_valid() {
        for window in [256u32, 1 << 10, 1 << 12, 1 << 15] {
            for flevel in 0..4 {
                let [cmf, flg] = zlib_header(window, flevel);
                assert_eq!((u16::from(cmf) * 256 + u16::from(flg)) % 31, 0);
                assert_eq!(cmf & 0x0F, 8);
            }
        }
    }

    #[test]
    fn default_32k_header_is_the_famous_78xx() {
        let [cmf, _] = zlib_header(32_768, 1);
        assert_eq!(cmf, 0x78);
    }

    #[test]
    fn round_trip_fixed() {
        let data = b"to be or not to be, that is the question";
        let mut tokens = literals(&data[..20]);
        // "to be" appears again at offset 13: match(dist 13, len 6).
        tokens.extend(literals(&data[20..]));
        let stream = zlib_compress_tokens(&tokens, data, BlockKind::FixedHuffman, 4_096);
        assert_eq!(zlib_decompress(&stream).unwrap(), data);
    }

    #[test]
    fn round_trip_with_matches_and_4k_window() {
        let original = b"snowy snow";
        let mut tokens = literals(b"snowy ");
        tokens.push(T::new_match(6, 4));
        let stream = zlib_compress_tokens(&tokens, original, BlockKind::FixedHuffman, 4_096);
        assert_eq!(zlib_decompress(&stream).unwrap(), original);
    }

    #[test]
    fn corrupt_trailer_detected() {
        let data = b"checksum me";
        let mut stream =
            zlib_compress_tokens(&literals(data), data, BlockKind::FixedHuffman, 32_768);
        let n = stream.len();
        stream[n - 1] ^= 0xFF;
        assert!(matches!(zlib_decompress(&stream), Err(ZlibError::ChecksumMismatch { .. })));
    }

    #[test]
    fn corrupt_header_detected() {
        let data = b"x";
        let mut stream =
            zlib_compress_tokens(&literals(data), data, BlockKind::FixedHuffman, 32_768);
        stream[0] = 0x79; // CM becomes 9
        assert_eq!(zlib_decompress(&stream), Err(ZlibError::BadHeader));
        stream[0] = 0x78;
        stream[1] ^= 0x04; // break FCHECK
        assert_eq!(zlib_decompress(&stream), Err(ZlibError::HeaderChecksum));
    }

    #[test]
    fn too_short_rejected() {
        assert_eq!(zlib_decompress(&[0x78, 0x9C]), Err(ZlibError::TooShort));
    }

    #[test]
    fn limited_decode_caps_output() {
        let original = vec![b'z'; 200_000];
        let mut tokens = vec![T::Literal(b'z')];
        let mut produced = 1usize;
        while produced < original.len() {
            let len = (original.len() - produced).clamp(3, 258) as u32;
            tokens.push(T::new_match(1, len));
            produced += len as usize;
        }
        let stream = zlib_compress_tokens(&tokens, &original, BlockKind::FixedHuffman, 32_768);
        assert_eq!(
            zlib_decompress_limited(&stream, &Limits::none().with_max_output_bytes(100_000)),
            Err(ZlibError::Inflate(InflateError::OutputLimitExceeded))
        );
        assert_eq!(
            zlib_decompress_limited(&stream, &Limits::none().with_max_output_bytes(200_000))
                .unwrap(),
            original
        );
    }

    #[test]
    fn prefix_decode_reports_exact_consumption() {
        let data = b"prefix me prefix me prefix me";
        let stream = zlib_compress_tokens(&literals(data), data, BlockKind::FixedHuffman, 4_096);
        let n = stream.len();
        // Trailing garbage after the stream is ignored, not consumed.
        let mut padded = stream.clone();
        padded.extend_from_slice(b"GARBAGE GARBAGE");
        let (out, consumed) = zlib_decompress_prefix(&padded, &Limits::none()).unwrap();
        assert_eq!(out, data);
        assert_eq!(consumed, n);
        // An exact stream consumes itself entirely.
        let (out, consumed) = zlib_decompress_prefix(&stream, &Limits::none()).unwrap();
        assert_eq!(out, data);
        assert_eq!(consumed, n);
        // A truncated stream is a typed error.
        assert!(zlib_decompress_prefix(&stream[..n - 3], &Limits::none()).is_err());
    }

    #[test]
    fn prefix_consumption_is_exact_on_concatenated_streams() {
        // The word refill reads past the first stream's trailer into the
        // second; the consumed count must still end exactly at the seam.
        let kinds = [BlockKind::Stored, BlockKind::FixedHuffman, BlockKind::DynamicHuffman];
        for (i, len) in [0usize, 1, 5, 9, 40, 3000].into_iter().enumerate() {
            let a: Vec<u8> = (0..len).map(|k| (k * 13 % 7) as u8 + b'a').collect();
            let b = b"second stream".repeat(i + 1);
            let za = zlib_compress_tokens(&literals(&a), &a, kinds[i % 3], 32_768);
            let zb = zlib_compress_tokens(&literals(&b), &b, kinds[(i + 1) % 3], 32_768);
            let joined = [za.as_slice(), &zb].concat();
            let (out, used) = zlib_decompress_prefix(&joined, &Limits::none()).unwrap();
            assert_eq!((out, used), (a, za.len()));
            let (out, used) = zlib_decompress_prefix(&joined[used..], &Limits::none()).unwrap();
            assert_eq!((out, used), (b, zb.len()));
        }
    }

    #[test]
    fn preset_dict_rejected() {
        // Header with FDICT set and valid check bits.
        let cmf = 0x78u8;
        let mut flg = 0x20u8;
        let rem = (u16::from(cmf) * 256 + u16::from(flg)) % 31;
        flg += (31 - rem) as u8 % 31;
        let stream = [cmf, flg, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(zlib_decompress(&stream), Err(ZlibError::PresetDictUnsupported));
    }
}
