//! LSB-first bit-level I/O as used by Deflate (RFC 1951 §3.1.1).
//!
//! Deflate packs bits starting from the least-significant bit of each byte.
//! Non-Huffman fields (extra bits, block headers) are written with their own
//! least-significant bit first; Huffman codes are written starting from the
//! code's most-significant bit, which callers achieve by bit-reversing codes
//! before calling [`BitWriter::write_bits`] (see [`crate::huffman`]).

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    out: Vec<u8>,
    bitbuf: u64,
    bitcount: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value` (LSB written first). `n` may be 0
    /// (no-op) and at most 57 so the accumulator never overflows.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits supports at most 57 bits at once");
        debug_assert!(n == 64 || value < (1u64 << n), "value {value} wider than {n} bits");
        self.bitbuf |= value << self.bitcount;
        self.bitcount += n;
        if self.bitcount >= 8 {
            // Flush every complete byte in one memcpy-sized append; bitcount
            // can reach 64 (7 buffered + 57 new), where the shift below would
            // be out of range, hence the checked variant.
            let flushed = (self.bitcount / 8) as usize;
            self.out.extend_from_slice(&self.bitbuf.to_le_bytes()[..flushed]);
            self.bitbuf = self.bitbuf.checked_shr(flushed as u32 * 8).unwrap_or(0);
            self.bitcount -= flushed as u32 * 8;
        }
    }

    /// Pad with zero bits to the next byte boundary (used before stored
    /// blocks and at stream end).
    pub fn align_to_byte(&mut self) {
        if self.bitcount > 0 {
            self.out.push((self.bitbuf & 0xFF) as u8);
            self.bitbuf = 0;
            self.bitcount = 0;
        }
    }

    /// Append a whole byte; the writer must be byte-aligned.
    ///
    /// # Panics
    /// Panics if not aligned — stored-block payloads must follow the
    /// alignment padding mandated by the spec.
    pub fn write_aligned_byte(&mut self, byte: u8) {
        assert_eq!(self.bitcount, 0, "writer not byte-aligned");
        self.out.push(byte);
    }

    /// Bits written so far (including buffered, not-yet-flushed bits).
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + u64::from(self.bitcount)
    }

    /// Finish the stream: align and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }

    /// Borrow the completed bytes without consuming (excludes buffered bits).
    pub fn as_bytes(&self) -> &[u8] {
        &self.out
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index.
    pos: usize,
    bitbuf: u64,
    bitcount: u32,
}

/// Error returned when a read runs past the end of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl<'a> BitReader<'a> {
    /// Reader over `data` starting at bit 0 of byte 0.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, bitbuf: 0, bitcount: 0 }
    }

    /// Top up the bit buffer to at least 57 bits, or to all that remains.
    ///
    /// With 8 or more bytes left this is one unaligned little-endian word
    /// load; only the last 7 bytes of the input go byte by byte. Bits above
    /// `bitcount` stay zero, so `remaining_bits()` remains exact.
    #[inline]
    fn refill(&mut self) {
        if self.bitcount > 56 {
            return;
        }
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            // Whole free bytes in the buffer: 1..=8 since bitcount <= 56.
            let take = (64 - self.bitcount) / 8;
            let word = if take == 8 { word } else { word & ((1u64 << (take * 8)) - 1) };
            self.bitbuf |= word << self.bitcount;
            self.pos += take as usize;
            self.bitcount += take * 8;
            return;
        }
        while self.bitcount <= 56 && self.pos < self.data.len() {
            self.bitbuf |= u64::from(self.data[self.pos]) << self.bitcount;
            self.pos += 1;
            self.bitcount += 8;
        }
    }

    /// The next `n` bits (0..=57) without consuming them, or `None` when
    /// fewer than `n` remain (nothing is consumed either way).
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 57);
        if self.bitcount < n {
            self.refill();
            if self.bitcount < n {
                return None;
            }
        }
        Some(self.bitbuf & ((1u64 << n) - 1))
    }

    /// Drop `n` bits that a preceding [`Self::peek_bits`] showed to be
    /// buffered.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.bitcount, "consume past buffered bits");
        self.bitbuf >>= n;
        self.bitcount -= n;
    }

    /// Read `n` bits (0..=57), LSB-first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, OutOfBits> {
        if n == 0 {
            return Ok(0);
        }
        let v = self.peek_bits(n).ok_or(OutOfBits)?;
        self.consume(n);
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, OutOfBits> {
        Ok(self.read_bits(1)? as u32)
    }

    /// Discard buffered bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let drop = self.bitcount % 8;
        self.bitbuf >>= drop;
        self.bitcount -= drop;
    }

    /// Read a whole byte; reader must be byte-aligned (after
    /// [`Self::align_to_byte`]).
    pub fn read_aligned_byte(&mut self) -> Result<u8, OutOfBits> {
        debug_assert_eq!(self.bitcount % 8, 0, "reader not byte-aligned");
        Ok(self.read_bits(8)? as u8)
    }

    /// Append the next `n` whole bytes to `out`; the reader must be
    /// byte-aligned. Buffered bytes are drained first, the rest is copied
    /// straight from the input as one slice. Fails without consuming or
    /// appending anything when fewer than `n` bytes remain.
    pub(crate) fn read_aligned_bytes(
        &mut self,
        n: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), OutOfBits> {
        debug_assert_eq!(self.bitcount % 8, 0, "reader not byte-aligned");
        if self.remaining_bits() < n as u64 * 8 {
            return Err(OutOfBits);
        }
        let buffered = ((self.bitcount / 8) as usize).min(n);
        out.extend_from_slice(&self.bitbuf.to_le_bytes()[..buffered]);
        self.bitbuf = self.bitbuf.checked_shr(buffered as u32 * 8).unwrap_or(0);
        self.bitcount -= buffered as u32 * 8;
        let rest = n - buffered;
        out.extend_from_slice(&self.data[self.pos..self.pos + rest]);
        self.pos += rest;
        Ok(())
    }

    /// Number of the *unread* whole bytes remaining, counting buffered bits.
    pub fn remaining_bits(&self) -> u64 {
        (self.data.len() - self.pos) as u64 * 8 + u64::from(self.bitcount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [1u64, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1];
        for &b in &pattern {
            w.write_bits(b, 1);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bits(1).unwrap(), b);
        }
    }

    #[test]
    fn lsb_first_byte_layout() {
        let mut w = BitWriter::new();
        // Deflate example: writing value 0b1 as 1 bit then 0b01 as 2 bits
        // gives byte 0b...011 -> 0x03.
        w.write_bits(0b1, 1);
        w.write_bits(0b01, 2);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0011]);
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0x1AB, 9);
        w.write_bits(0x3F, 6);
        w.write_bits(0x12345, 17);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(9).unwrap(), 0x1AB);
        assert_eq!(r.read_bits(6).unwrap(), 0x3F);
        assert_eq!(r.read_bits(17).unwrap(), 0x12345);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align_to_byte();
        w.write_aligned_byte(0xAA);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x01, 0xAA]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        r.align_to_byte();
        assert_eq!(r.read_aligned_byte().unwrap(), 0xAA);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.finish(), vec![0b11]);
    }

    #[test]
    fn out_of_bits_detected() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(OutOfBits));
    }

    #[test]
    fn bit_len_tracks_buffered_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0x7F, 7);
        assert_eq!(w.bit_len(), 10);
    }

    /// `n` bits of `data` from bit `pos`, LSB-first, one bit at a time.
    fn bits_at(data: &[u8], pos: usize, n: u32) -> u64 {
        (0..n as usize).map(|i| u64::from(data[(pos + i) / 8] >> ((pos + i) % 8) & 1) << i).sum()
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(151) ^ 0x5A).collect()
    }

    #[test]
    fn refill_with_57_to_64_buffered_bits_is_a_no_op() {
        let data = sample(40);
        for used in 0..=7 {
            let mut r = BitReader::new(&data);
            r.refill();
            assert_eq!(r.bitcount, 64, "one word load fills the buffer");
            r.consume(used);
            r.refill(); // bitcount 57..=64: nothing fits, and no `<< 64`
            assert_eq!(r.bitcount, 64 - used);
            let mut pos = used as usize;
            while pos < data.len() * 8 {
                let n = 57.min((data.len() * 8 - pos) as u32);
                assert_eq!(r.read_bits(n), Ok(bits_at(&data, pos, n)));
                pos += n as usize;
            }
            assert_eq!(r.remaining_bits(), 0);
        }
    }

    #[test]
    fn word_refills_and_short_tails_read_exact_bits() {
        // Lengths 0..=23 leave tails of 0..=7 bytes after the word loads.
        for len in 0..=23 {
            let data = sample(len);
            let total = len * 8;
            for width in 1..=57u32 {
                let mut r = BitReader::new(&data);
                let mut pos = 0;
                while pos < total {
                    let n = width.min((total - pos) as u32);
                    assert_eq!(r.read_bits(n), Ok(bits_at(&data, pos, n)), "len {len} w {width}");
                    pos += n as usize;
                    assert_eq!(r.remaining_bits(), (total - pos) as u64, "exact after refills");
                }
                assert_eq!(r.read_bits(1), Err(OutOfBits));
            }
        }
    }

    #[test]
    fn peek_past_the_end_returns_none_without_consuming() {
        for len in 0..=12 {
            let data = sample(len);
            for skip in 0..=len * 8 {
                let mut r = BitReader::new(&data);
                let (first, second) = (skip.min(57) as u32, skip.saturating_sub(57) as u32);
                r.read_bits(first).unwrap();
                r.read_bits(second).unwrap();
                let left = r.remaining_bits();
                for n in left as u32 + 1..=57 {
                    assert_eq!(r.peek_bits(n), None);
                    assert_eq!(r.remaining_bits(), left, "a failed peek consumes nothing");
                }
                if left <= 57 {
                    assert_eq!(r.peek_bits(left as u32), Some(bits_at(&data, skip, left as u32)));
                    assert_eq!(r.remaining_bits(), left, "a peek consumes nothing");
                }
            }
        }
    }

    #[test]
    fn aligned_bytes_drain_the_buffer_then_copy_the_input() {
        let data = sample(30);
        for skip in 0..=3usize {
            for n in 0..=30 - skip {
                let mut r = BitReader::new(&data);
                r.read_bits(skip as u32 * 8).unwrap(); // word refill buffers the next bytes
                let mut out = vec![0xEE];
                r.read_aligned_bytes(n, &mut out).unwrap();
                assert_eq!(out[1..], data[skip..skip + n]);
                assert_eq!(r.remaining_bits(), (data.len() - skip - n) as u64 * 8);
                let rest = r.remaining_bits();
                assert_eq!(r.read_aligned_bytes(rest as usize / 8 + 1, &mut out), Err(OutOfBits));
                assert_eq!(r.remaining_bits(), rest, "a short read consumes nothing");
            }
        }
    }

    #[test]
    fn remaining_bits_counts_down() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 32);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 27);
    }
}
