//! Error-parity differential test for the table-driven inflate.
//!
//! The oracle below is a deliberately naive Deflate decoder: it reads the
//! stream one bit at a time from the byte slice and decodes every Huffman
//! symbol through the canonical counts/offsets walk, with the same checks in
//! the same order as the library's per-symbol loop. `inflate_limited` must
//! give the identical `Result` — the same bytes, or the same `InflateError`
//! variant — on every input here: fixed and dynamic streams (including
//! dynamic tables with 10–15-bit codes), every truncation prefix, seeded
//! single-bit flips, output caps around match ends, and streams whose final
//! match starts in the last 8 input bytes.

use lzfpga_deflate::encoder::{BlockKind, DeflateEncoder};
use lzfpga_deflate::fixed::{distance_base, length_base, MAX_MATCH, MIN_MATCH};
use lzfpga_deflate::inflate::{inflate_limited, InflateError, Limits};
use lzfpga_deflate::token::Token;
use lzfpga_sim::rng::XorShift64;

/// Bit-at-a-time LSB-first reader with no buffering at all.
struct Bits<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Bits<'_> {
    fn bit(&mut self) -> Result<u32, InflateError> {
        let byte = self.data.get(self.pos / 8).ok_or(InflateError::UnexpectedEof)?;
        let b = u32::from(byte >> (self.pos % 8)) & 1;
        self.pos += 1;
        Ok(b)
    }

    fn bits(&mut self, n: u32) -> Result<u32, InflateError> {
        if self.pos + n as usize > self.data.len() * 8 {
            return Err(InflateError::UnexpectedEof);
        }
        let mut v = 0;
        for i in 0..n {
            v |= self.bit()? << i;
        }
        Ok(v)
    }
}

/// Canonical decoder that only ever walks (Mark Adler's `puff`).
struct Walk {
    count: [u32; 16],
    symbols: Vec<u16>,
    max_len: usize,
}

impl Walk {
    fn new(lengths: &[u8]) -> Option<Self> {
        let mut count = [0u32; 16];
        for &l in lengths {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let mut left: i64 = 1;
        for &c in &count[1..] {
            left = (left << 1) - i64::from(c);
            if left < 0 {
                return None;
            }
        }
        let mut symbols = Vec::new();
        for len in 1..=15u8 {
            symbols.extend((0..lengths.len()).filter(|&s| lengths[s] == len).map(|s| s as u16));
        }
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        Some(Self { count, symbols, max_len })
    }

    fn decode(&self, r: &mut Bits<'_>) -> Result<u16, InflateError> {
        let (mut code, mut first, mut index) = (0u32, 0u32, 0u32);
        for len in 1..=15 {
            code |= r.bit()?;
            let cnt = self.count[len];
            if code < first + cnt {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += cnt;
            first = (first + cnt) << 1;
            code <<= 1;
        }
        Err(InflateError::BadSymbol)
    }
}

/// What the oracle saw besides its result.
#[derive(Default)]
struct Seen {
    /// Longest litlen code length among dynamic tables decoded.
    max_dynamic_code: usize,
}

const CLCL_ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

fn reference_inflate(
    data: &[u8],
    limits: &Limits,
    seen: &mut Seen,
) -> Result<Vec<u8>, InflateError> {
    let cap = limits.output_cap(data.len());
    let mut r = Bits { data, pos: 0 };
    let mut out = Vec::new();
    let mut blocks = 0u64;
    loop {
        blocks += 1;
        if limits.max_blocks.is_some_and(|max| blocks > max) {
            return Err(InflateError::BlockLimitExceeded);
        }
        let bfinal = r.bit()?;
        match r.bits(2)? {
            0 => {
                r.pos = r.pos.div_ceil(8) * 8;
                let len = r.bits(16)?;
                let nlen = r.bits(16)?;
                if len != !nlen & 0xFFFF {
                    return Err(InflateError::StoredLengthMismatch);
                }
                if out.len() as u64 + u64::from(len) > cap {
                    return Err(InflateError::OutputLimitExceeded);
                }
                for _ in 0..len {
                    out.push(r.bits(8)? as u8);
                }
            }
            1 => {
                let mut lit = [8u8; 288];
                lit[144..256].fill(9);
                lit[256..280].fill(7);
                let lit = Walk::new(&lit).unwrap();
                let dist = Walk::new(&[5u8; 32]).unwrap();
                codes(&mut r, &mut out, &lit, &dist, cap)?;
            }
            2 => {
                let (lit, dist) = dynamic_tables(&mut r)?;
                seen.max_dynamic_code = seen.max_dynamic_code.max(lit.max_len);
                codes(&mut r, &mut out, &lit, &dist, cap)?;
            }
            _ => return Err(InflateError::ReservedBlockType),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn dynamic_tables(r: &mut Bits<'_>) -> Result<(Walk, Walk), InflateError> {
    let hlit = r.bits(5)? as usize + 257;
    let hdist = r.bits(5)? as usize + 1;
    let hclen = r.bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadCodeTable);
    }
    let mut clc = [0u8; 19];
    for &idx in CLCL_ORDER.iter().take(hclen) {
        clc[idx] = r.bits(3)? as u8;
    }
    let clc = Walk::new(&clc).ok_or(InflateError::BadCodeTable)?;
    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let (fill, n) = match clc.decode(r)? {
            sym @ 0..=15 => (sym as u8, 1),
            16 => {
                if i == 0 {
                    return Err(InflateError::RepeatWithoutPrevious);
                }
                (lengths[i - 1], r.bits(2)? as usize + 3)
            }
            17 => (0, r.bits(3)? as usize + 3),
            18 => (0, r.bits(7)? as usize + 11),
            _ => return Err(InflateError::BadSymbol),
        };
        if i + n > lengths.len() {
            return Err(InflateError::BadCodeTable);
        }
        lengths[i..i + n].fill(fill);
        i += n;
    }
    if lengths[256] == 0 {
        return Err(InflateError::BadCodeTable);
    }
    let lit = Walk::new(&lengths[..hlit]).ok_or(InflateError::BadCodeTable)?;
    let dist = Walk::new(&lengths[hlit..]).ok_or(InflateError::BadCodeTable)?;
    Ok((lit, dist))
}

fn codes(
    r: &mut Bits<'_>,
    out: &mut Vec<u8>,
    lit: &Walk,
    dist: &Walk,
    cap: u64,
) -> Result<(), InflateError> {
    loop {
        let sym = lit.decode(r)?;
        if sym < 256 {
            if out.len() as u64 >= cap {
                return Err(InflateError::OutputLimitExceeded);
            }
            out.push(sym as u8);
            continue;
        }
        if sym == 256 {
            return Ok(());
        }
        let (base, extra) = length_base(sym).ok_or(InflateError::BadSymbol)?;
        let len = base + r.bits(extra)?;
        let (dbase, dextra) = distance_base(dist.decode(r)?).ok_or(InflateError::BadSymbol)?;
        let d = (dbase + r.bits(dextra)?) as usize;
        if d > out.len() {
            return Err(InflateError::DistanceTooFar);
        }
        if out.len() as u64 + u64::from(len) > cap {
            return Err(InflateError::OutputLimitExceeded);
        }
        for _ in 0..len {
            out.push(out[out.len() - d]);
        }
    }
}

/// Assert library == oracle on `data` under `limits`.
fn check(data: &[u8], limits: &Limits, what: &str) {
    let want = reference_inflate(data, limits, &mut Seen::default());
    let got = inflate_limited(data, limits);
    assert_eq!(got, want, "{what}: library and walk oracle disagree ({} bytes)", data.len());
}

/// Literal byte with a skewed distribution: a handful of bytes dominate
/// and the long tail gets long codes in a dynamic table.
fn skewed_byte(rng: &mut XorShift64) -> u8 {
    if rng.chance(7, 8) {
        b"etaoin "[rng.below_usize(7)]
    } else {
        rng.next_u8()
    }
}

/// A legal token stream of about `n` tokens (matches stay inside output).
fn tokens(rng: &mut XorShift64, n: usize) -> Vec<Token> {
    let mut produced = 0u32;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if produced == 0 || rng.chance(1, 2) {
            out.push(Token::Literal(skewed_byte(rng)));
            produced += 1;
        } else {
            let dist =
                if rng.chance(1, 3) { rng.range_u32(1, 4) } else { rng.range_u32(1, 40_000) };
            let len = if rng.chance(1, 8) { MAX_MATCH } else { rng.range_u32(MIN_MATCH, 40) };
            out.push(Token::Match { dist: dist.min(produced), len });
            produced += len;
        }
    }
    out
}

/// Encode `parts` as consecutive blocks of the given kinds.
fn stream(parts: &[(&[Token], BlockKind)]) -> Vec<u8> {
    let mut enc = DeflateEncoder::new();
    for (i, (t, kind)) in parts.iter().enumerate() {
        enc.write_block(t, *kind, i + 1 == parts.len());
    }
    enc.finish()
}

/// A mix of fixed, dynamic, stored and multi-block streams.
fn corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = XorShift64::new(seed);
    let mut streams = Vec::new();
    for n in [0usize, 1, 5, 40, 200, 700] {
        let t = tokens(&mut rng, n);
        streams.push(stream(&[(&t, BlockKind::FixedHuffman)]));
        streams.push(stream(&[(&t, BlockKind::DynamicHuffman)]));
    }
    let (a, b, c) = (tokens(&mut rng, 150), tokens(&mut rng, 60), tokens(&mut rng, 150));
    let lits: Vec<Token> = (0..300).map(|_| Token::Literal(rng.next_u8())).collect();
    streams.push(stream(&[
        (&a, BlockKind::FixedHuffman),
        (&lits, BlockKind::Stored),
        (&b, BlockKind::DynamicHuffman),
        (&c, BlockKind::FixedHuffman),
    ]));
    streams.push(stream(&[(&a, BlockKind::DynamicHuffman), (&lits, BlockKind::Stored)]));
    streams
}

#[test]
fn whole_streams_agree_and_round_trip() {
    let mut seen = Seen::default();
    for data in corpus(1) {
        let want = reference_inflate(&data, &Limits::none(), &mut seen);
        assert!(want.is_ok(), "encoder output must decode");
        assert_eq!(inflate_limited(&data, &Limits::none()), want);
    }
    assert!(
        seen.max_dynamic_code >= 10,
        "corpus must exercise codes past the 9-bit table (longest {})",
        seen.max_dynamic_code
    );
}

#[test]
fn dynamic_tables_reach_fifteen_bit_codes() {
    // Fibonacci-weighted literals (the end-of-block symbol is the leading
    // weight 1) build a chain-shaped tree that the limiter cuts at 15 bits.
    let mut weights = vec![1u64, 2];
    while weights.len() < 24 {
        weights.push(weights[weights.len() - 1] + weights[weights.len() - 2]);
    }
    let mut t = Vec::new();
    for (sym, &w) in weights.iter().enumerate() {
        t.extend(std::iter::repeat_n(Token::Literal(sym as u8 * 7), w as usize));
    }
    let mut rng = XorShift64::new(15);
    for i in (1..t.len()).rev() {
        t.swap(i, rng.below_usize(i + 1));
    }
    let data = stream(&[(&t, BlockKind::DynamicHuffman)]);
    let mut seen = Seen::default();
    let want = reference_inflate(&data, &Limits::none(), &mut seen);
    assert_eq!(seen.max_dynamic_code, 15);
    assert_eq!(inflate_limited(&data, &Limits::none()), want);
    assert_eq!(want.unwrap().len(), t.len());
}

#[test]
fn every_truncation_prefix_agrees() {
    for data in corpus(2).iter().filter(|d| d.len() <= 1200) {
        for cut in 0..data.len() {
            check(&data[..cut], &Limits::none(), "truncated");
        }
    }
}

#[test]
fn seeded_single_bit_flips_agree() {
    let streams = corpus(3);
    let mut rng = XorShift64::new(0xF11B);
    let limits = Limits::none().with_max_output_bytes(1 << 20);
    for _ in 0..2000 {
        let mut data = streams[rng.below_usize(streams.len())].clone();
        if data.is_empty() {
            continue;
        }
        let bit = rng.below_usize(data.len() * 8);
        data[bit / 8] ^= 1 << (bit % 8);
        check(&data, &limits, "bit flip");
    }
}

#[test]
fn output_caps_around_match_ends_agree() {
    let mut rng = XorShift64::new(4);
    for kind in [BlockKind::FixedHuffman, BlockKind::DynamicHuffman] {
        let mut t = tokens(&mut rng, 120);
        t.push(Token::Match { dist: 1, len: MAX_MATCH });
        // Empty fixed blocks (10 bits each, no output to trip a cap) keep
        // 8+ input bytes behind the last match, so the fused loop, not the
        // per-symbol loop, meets that cap.
        let mut parts = vec![(&t[..], kind)];
        parts.resize(9, (&[][..], BlockKind::FixedHuffman));
        let data = stream(&parts);
        let mut end = 0u64;
        for tok in &t {
            end += u64::from(tok.expanded_len());
            if let Token::Match { .. } = tok {
                for delta in [-259i64, -258, -257, -200, -3, -1, 0, 1, 2, 257, 258, 259] {
                    let cap = (end as i64 + delta).max(0) as u64;
                    check(&data, &Limits::none().with_max_output_bytes(cap), "cap");
                }
            }
        }
    }
}

#[test]
fn final_match_in_the_last_eight_bytes_agrees() {
    let mut rng = XorShift64::new(5);
    for n in 1..120 {
        let mut t = tokens(&mut rng, n);
        t.push(Token::Match { dist: 1, len: rng.range_u32(MIN_MATCH, MAX_MATCH) });
        for kind in [BlockKind::FixedHuffman, BlockKind::DynamicHuffman] {
            let data = stream(&[(&t, kind)]);
            check(&data, &Limits::none(), "final match");
            let full = inflate_limited(&data, &Limits::none()).expect("valid stream");
            assert_eq!(full.len() as u64, t.iter().map(|x| u64::from(x.expanded_len())).sum());
            for cut in data.len().saturating_sub(9)..data.len() {
                check(&data[..cut], &Limits::none(), "final match, truncated");
            }
        }
    }
}
