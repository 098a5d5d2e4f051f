//! Cycle-accurate model of a fixed-table LZSS/Deflate *decompressor*.
//!
//! The paper's related work highlights "applications of fast hardware
//! decompression for dynamic FPGA reconfiguration" \[10\]: a configuration
//! controller pulls a compressed bitstream from slow flash and must expand
//! it at ICAP speed. This module builds that counterpart to the compressor
//! so the repo covers both directions of the logger story (compress on
//! capture, decompress on replay) with the same substrate.
//!
//! Architecture, mirroring the compressor's memory discipline:
//!
//! * **Bit unpacker** — 32-bit input words feed a shift register; a fixed
//!   Huffman table is a constant ROM, so one symbol is priority-decoded per
//!   clock cycle (litlen symbol; distance symbols need a second cycle — the
//!   two tables share the decode logic, exactly like sharing one BRAM port).
//! * **Dictionary ring** — a dual-port BRAM of the declared window size:
//!   port A reads the copy source while port B writes the output byte, so a
//!   match copies 1 byte/cycle at any distance, and the 32-bit bus variant
//!   moves up to 4 bytes/cycle when the distance permits non-overlapping
//!   word reads (`dist >= 4`).
//! * **Output stream** — handshake to the ICAP/DMA sink; sink stalls freeze
//!   the FSM, as in the compressor.
//!
//! Decompression is *branch-free* compared to matching: no hash tables, no
//! rotation — which is why the decompressor sustains a higher rate than the
//! compressor from the same BRAM budget (§results of \[10\] report the same
//! asymmetry).

use crate::config::CLOCK_HZ;
use crate::stats::{HwState, StateStats};
use lzfpga_deflate::bitio::BitReader;
use lzfpga_deflate::fixed::{distance_base, fixed_decoders, length_base, END_OF_BLOCK};
use lzfpga_deflate::huffman::{DecodeError, Decoder as HuffDecoder};
use lzfpga_deflate::token::Token;
use lzfpga_faults::{Failpoints, NoFaults};
use lzfpga_sim::bram::{DualPortBram, Port};
use lzfpga_sim::clock::Clocked;
use lzfpga_sim::stream::{BackPressure, HandshakeStream};

/// Decompressor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompConfig {
    /// Dictionary ring size in bytes (must cover the compressor's window).
    pub window_size: u32,
    /// Copy-path bus width in bytes: 1 (byte-serial) or 4 (word copies when
    /// the distance allows).
    pub bus_bytes: u32,
}

impl DecompConfig {
    /// Match the paper's compressor operating point: 4 KB window, 32-bit bus.
    pub fn paper_fast() -> Self {
        Self { window_size: 4_096, bus_bytes: 4 }
    }

    /// Validate geometry, reporting *which* field is wrong — hostile or
    /// user-supplied configurations must produce a typed error, never a
    /// panic.
    pub fn validate(&self) -> Result<(), DecompConfigError> {
        if !self.window_size.is_power_of_two() || !(256..=65_536).contains(&self.window_size) {
            return Err(DecompConfigError::BadWindow { window_size: self.window_size });
        }
        if self.bus_bytes != 1 && self.bus_bytes != 4 {
            return Err(DecompConfigError::BadBus { bus_bytes: self.bus_bytes });
        }
        Ok(())
    }
}

/// Invalid [`DecompConfig`] geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompConfigError {
    /// Window size is not a power of two in 256..=64K.
    BadWindow {
        /// The offending window size.
        window_size: u32,
    },
    /// Bus width is neither 1 nor 4 bytes.
    BadBus {
        /// The offending bus width.
        bus_bytes: u32,
    },
}

impl std::fmt::Display for DecompConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompConfigError::BadWindow { window_size } => {
                write!(f, "window size {window_size} must be a power of two in 256..=65536")
            }
            DecompConfigError::BadBus { bus_bytes } => {
                write!(f, "bus width {bus_bytes} must be 1 or 4 bytes")
            }
        }
    }
}

impl std::error::Error for DecompConfigError {}

/// Errors the decompressor FSM can raise (mirrors what the RTL would flag in
/// a status register).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// The bit stream ended mid-symbol.
    Truncated,
    /// An invalid Huffman code or symbol outside the fixed alphabets.
    BadSymbol,
    /// A copy distance reaching before the start of the stream.
    DistanceTooFar {
        /// The offending distance.
        dist: u32,
        /// Bytes produced so far.
        produced: u64,
    },
    /// The declared window cannot serve a distance this large.
    WindowExceeded {
        /// The offending distance.
        dist: u32,
    },
    /// A failpoint injected this error (test-only; never produced by real
    /// streams).
    Injected {
        /// The failpoint site that fired.
        site: &'static str,
    },
}

impl From<DecodeError> for DecompError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::OutOfInput => DecompError::Truncated,
            DecodeError::InvalidCode => DecompError::BadSymbol,
        }
    }
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompError::Truncated => write!(f, "compressed stream truncated"),
            DecompError::BadSymbol => write!(f, "invalid symbol or framing in stream"),
            DecompError::DistanceTooFar { dist, produced } => {
                write!(f, "copy distance {dist} reaches before stream start at offset {produced}")
            }
            DecompError::WindowExceeded { dist } => {
                write!(f, "copy distance {dist} exceeds the configured window")
            }
            DecompError::Injected { site } => {
                write!(f, "injected fault at failpoint '{site}'")
            }
        }
    }
}

impl std::error::Error for DecompError {}

/// Result of one decompression run.
#[derive(Debug, Clone)]
pub struct DecompReport {
    /// The expanded bytes.
    pub bytes: Vec<u8>,
    /// Total clock cycles.
    pub cycles: u64,
    /// Per-state cycle buckets (reusing the compressor taxonomy: `Match` =
    /// symbol decode, `Output` = literal/copy writes, `Waiting` = sink
    /// stalls).
    pub stats: StateStats,
    /// Tokens decoded (for cross-checks against the compressor).
    pub tokens: Vec<Token>,
}

impl DecompReport {
    /// Average clock cycles per *output* byte.
    pub fn cycles_per_byte(&self) -> f64 {
        if self.bytes.is_empty() {
            0.0
        } else {
            self.cycles as f64 / self.bytes.len() as f64
        }
    }

    /// Modelled output throughput at the design clock, MB/s.
    pub fn mb_per_s(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bytes.len() as f64 / 1e6 * CLOCK_HZ / self.cycles as f64
        }
    }
}

/// The cycle-accurate decompressor model.
pub struct HwDecompressor {
    cfg: DecompConfig,
    litlen: &'static HuffDecoder,
    dist: &'static HuffDecoder,
}

impl HwDecompressor {
    /// Instantiate for a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; [`HwDecompressor::try_new`]
    /// is the non-panicking form for user-supplied geometry.
    pub fn new(cfg: DecompConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(d) => d,
            Err(e) => panic!("invalid decompressor config: {e}"),
        }
    }

    /// Instantiate for a configuration, reporting invalid geometry as a
    /// typed error.
    pub fn try_new(cfg: DecompConfig) -> Result<Self, DecompConfigError> {
        cfg.validate()?;
        let (litlen, dist) = fixed_decoders();
        Ok(Self { cfg, litlen, dist })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DecompConfig {
        &self.cfg
    }

    /// Expand a raw fixed-Huffman Deflate *block body* (after the 3 header
    /// bits) with an always-ready sink.
    pub fn decompress_block(&mut self, deflate: &[u8]) -> Result<DecompReport, DecompError> {
        self.decompress_block_with_sink(deflate, BackPressure::None)
    }

    /// Expand a fixed-Huffman block, modelling sink back-pressure on the
    /// output byte stream.
    pub fn decompress_block_with_sink(
        &mut self,
        deflate: &[u8],
        sink: BackPressure,
    ) -> Result<DecompReport, DecompError> {
        self.decompress_block_inner(deflate, sink, &NoFaults)
    }

    /// [`decompress_block`] with failpoints active (sites
    /// `hw.decode.block` at block entry, `hw.decode.symbol` per decoded
    /// litlen symbol). Production callers use the plain entry points, which
    /// monomorphize the checks away via [`NoFaults`].
    pub fn decompress_block_faulty<F: Failpoints>(
        &mut self,
        deflate: &[u8],
        faults: &F,
    ) -> Result<DecompReport, DecompError> {
        self.decompress_block_inner(deflate, BackPressure::None, faults)
    }

    fn decompress_block_inner<F: Failpoints>(
        &mut self,
        deflate: &[u8],
        sink: BackPressure,
        faults: &F,
    ) -> Result<DecompReport, DecompError> {
        if faults.check("hw.decode.block") {
            return Err(DecompError::Injected { site: "hw.decode.block" });
        }
        let mut r = BitReader::new(deflate);
        let bfinal = r.read_bits(1).map_err(|_| DecompError::Truncated)?;
        let btype = r.read_bits(2).map_err(|_| DecompError::Truncated)?;
        if bfinal != 1 || btype != 0b01 {
            // The streaming hardware handles exactly the format the
            // compressor writes: one final fixed-Huffman block.
            return Err(DecompError::BadSymbol);
        }
        // Header parse burns one cycle in the FSM.
        let mut stats = StateStats::new();
        stats.charge(HwState::Fetch, 1);

        let wmask = u64::from(self.cfg.window_size) - 1;
        let mut ring = DualPortBram::new("decomp-dict", self.cfg.window_size as usize, 8);
        let mut out_stream: HandshakeStream<u8> = HandshakeStream::new(sink);
        let mut bytes: Vec<u8> = Vec::new();
        let mut tokens = Vec::new();

        // Deliver one byte through the handshake, charging sink stalls.
        let deliver = |b: u8,
                       ring: &mut DualPortBram,
                       stream: &mut HandshakeStream<u8>,
                       bytes: &mut Vec<u8>,
                       stats: &mut StateStats| {
            stream.offer(b);
            let mut stalls = 0u64;
            while stream.take().is_none() {
                stream.tick();
                stalls += 1;
                assert!(stalls < 1_000_000, "sink permanently stalled");
            }
            stream.tick();
            stats.charge(HwState::Waiting, stalls);
            ring.write(Port::B, (bytes.len() as u64 & wmask) as usize, u64::from(b));
            ring.tick();
            bytes.push(b);
        };

        loop {
            // One cycle per litlen symbol (fixed-table priority decode).
            if faults.check("hw.decode.symbol") {
                return Err(DecompError::Injected { site: "hw.decode.symbol" });
            }
            let sym = self.litlen.decode(&mut r).map_err(DecompError::from)?;
            stats.charge(HwState::Match, 1);
            if sym == END_OF_BLOCK as u16 {
                break;
            }
            if sym < 256 {
                let b = sym as u8;
                tokens.push(Token::Literal(b));
                deliver(b, &mut ring, &mut out_stream, &mut bytes, &mut stats);
                stats.charge(HwState::Output, 1);
                continue;
            }
            // Length symbol: extra bits resolve within the same cycle (the
            // shift register already holds them); the distance symbol needs
            // its own decode cycle.
            let (len_base, len_extra) = length_base(sym).ok_or(DecompError::BadSymbol)?;
            let len = len_base + r.read_bits(len_extra).map_err(|_| DecompError::Truncated)? as u32;
            let dsym = self.dist.decode(&mut r).map_err(DecompError::from)?;
            stats.charge(HwState::Match, 1);
            let (dist_base, dist_extra) = distance_base(dsym).ok_or(DecompError::BadSymbol)?;
            let dist =
                dist_base + r.read_bits(dist_extra).map_err(|_| DecompError::Truncated)? as u32;
            if u64::from(dist) > bytes.len() as u64 {
                return Err(DecompError::DistanceTooFar { dist, produced: bytes.len() as u64 });
            }
            if dist > self.cfg.window_size {
                return Err(DecompError::WindowExceeded { dist });
            }
            tokens.push(Token::Match { dist, len });

            // Copy loop: with the wide bus, non-overlapping word reads move
            // up to 4 bytes/cycle; overlapping copies (dist < bus) fall back
            // to `dist` bytes per cycle (the hardware replicates the short
            // pattern through a byte-lane mux).
            let lane = self.cfg.bus_bytes.min(dist).max(1);
            let mut copied = 0u32;
            while copied < len {
                let burst = lane.min(len - copied);
                for _ in 0..burst {
                    let src = bytes.len() as u64 - u64::from(dist);
                    ring.read(Port::A, (src & wmask) as usize);
                    ring.tick();
                    let b = ring.dout(Port::A) as u8;
                    deliver(b, &mut ring, &mut out_stream, &mut bytes, &mut stats);
                }
                stats.charge(HwState::Output, 1);
                copied += burst;
            }
        }

        let cycles = stats.total();
        Ok(DecompReport { bytes, cycles, stats, tokens })
    }

    /// Expand a gzip member produced by `gzip_compress_tokens` (strips the
    /// RFC 1952 framing, checks CRC-32 and ISIZE). Only the plain header
    /// the logger writes is handled by the hardware path; metadata-bearing
    /// headers belong to the software tool chain.
    pub fn decompress_gzip(&mut self, gz: &[u8]) -> Result<DecompReport, DecompError> {
        self.decompress_gzip_faulty(gz, &NoFaults)
    }

    /// [`decompress_gzip`] with failpoints active.
    pub fn decompress_gzip_faulty<F: Failpoints>(
        &mut self,
        gz: &[u8],
        faults: &F,
    ) -> Result<DecompReport, DecompError> {
        // A member too short to hold header (10) + empty body + trailer (8)
        // is a truncation, not a symbol error — the distinction matters to
        // retry logic upstream.
        if gz.len() < 18 {
            return Err(DecompError::Truncated);
        }
        if gz[0] != 0x1F || gz[1] != 0x8B || gz[2] != 8 {
            return Err(DecompError::BadSymbol);
        }
        if gz[3] != 0 {
            // Optional header fields are a software concern.
            return Err(DecompError::BadSymbol);
        }
        let body = &gz[10..gz.len() - 8];
        let report = self.decompress_block_inner(body, BackPressure::None, faults)?;
        let trailer = &gz[gz.len() - 8..];
        let crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let isize = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
        if lzfpga_deflate::crc32::crc32(&report.bytes) != crc || report.bytes.len() as u32 != isize
        {
            return Err(DecompError::BadSymbol);
        }
        Ok(report)
    }

    /// Expand a zlib container produced by the compressor pipeline (strips
    /// the RFC 1950 framing, checks Adler-32 in the stream tail).
    pub fn decompress_zlib(&mut self, zlib: &[u8]) -> Result<DecompReport, DecompError> {
        self.decompress_zlib_faulty(zlib, &NoFaults)
    }

    /// [`decompress_zlib`] with failpoints active.
    pub fn decompress_zlib_faulty<F: Failpoints>(
        &mut self,
        zlib: &[u8],
        faults: &F,
    ) -> Result<DecompReport, DecompError> {
        // 2-byte header + empty deflate body + 4-byte Adler-32 is the
        // minimum; anything shorter is a truncated stream.
        if zlib.len() < 6 {
            return Err(DecompError::Truncated);
        }
        let cmf = zlib[0];
        let flg = zlib[1];
        if cmf & 0x0F != 8 || (u16::from(cmf) << 8 | u16::from(flg)) % 31 != 0 {
            return Err(DecompError::BadSymbol);
        }
        if flg & 0x20 != 0 {
            // FDICT preset dictionaries are outside the logger format.
            return Err(DecompError::BadSymbol);
        }
        let body = &zlib[2..zlib.len() - 4];
        let report = self.decompress_block_inner(body, BackPressure::None, faults)?;
        let n = zlib.len();
        let expect = u32::from_be_bytes([zlib[n - 4], zlib[n - 3], zlib[n - 2], zlib[n - 1]]);
        if lzfpga_deflate::adler32::adler32(&report.bytes) != expect {
            return Err(DecompError::BadSymbol);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::HwCompressor;
    use crate::config::HwConfig;
    use crate::pipeline::compress_to_zlib;
    use lzfpga_deflate::encoder::{BlockKind, DeflateEncoder};

    fn fixed_block(tokens: &[Token]) -> Vec<u8> {
        let mut enc = DeflateEncoder::new();
        enc.write_block(tokens, BlockKind::FixedHuffman, true);
        enc.finish()
    }

    #[test]
    fn literal_stream_round_trips() {
        let tokens: Vec<Token> = b"plain literals".iter().map(|&b| Token::Literal(b)).collect();
        let block = fixed_block(&tokens);
        let rep = HwDecompressor::new(DecompConfig::paper_fast()).decompress_block(&block).unwrap();
        assert_eq!(rep.bytes, b"plain literals");
        assert_eq!(rep.tokens, tokens);
    }

    #[test]
    fn compressor_output_expands_back() {
        let data = lzfpga_workloads::wiki::generate(17, 200_000);
        let rep = compress_to_zlib(&data, &HwConfig::paper_fast());
        let out = HwDecompressor::new(DecompConfig::paper_fast())
            .decompress_zlib(&rep.compressed)
            .unwrap();
        assert_eq!(out.bytes, data);
    }

    #[test]
    fn decompression_is_faster_than_compression() {
        // The [10] asymmetry: no matching work on the expand side.
        let data = lzfpga_workloads::wiki::generate(5, 300_000);
        let comp = HwCompressor::new(HwConfig::paper_fast()).compress(&data);
        let block = fixed_block(&comp.tokens);
        let dec = HwDecompressor::new(DecompConfig::paper_fast()).decompress_block(&block).unwrap();
        assert_eq!(dec.bytes, data);
        assert!(dec.cycles < comp.cycles, "decompress {} !< compress {}", dec.cycles, comp.cycles);
    }

    #[test]
    fn wide_bus_speeds_up_long_far_matches() {
        let data = b"0123456789abcdefghijklmnopqrstuv".repeat(2_000);
        let comp = HwCompressor::new(HwConfig::paper_fast()).compress(&data);
        let block = fixed_block(&comp.tokens);
        let wide =
            HwDecompressor::new(DecompConfig::paper_fast()).decompress_block(&block).unwrap();
        let narrow =
            HwDecompressor::new(DecompConfig { bus_bytes: 1, ..DecompConfig::paper_fast() })
                .decompress_block(&block)
                .unwrap();
        assert_eq!(wide.bytes, narrow.bytes);
        assert!(wide.cycles < narrow.cycles);
    }

    #[test]
    fn overlapping_copy_rle_expansion() {
        // "aaaa..." : dist-1 copies must replicate correctly and cost ~1
        // byte/cycle even on the wide bus.
        let mut tokens = vec![Token::Literal(b'a')];
        tokens.push(Token::Match { dist: 1, len: 258 });
        let block = fixed_block(&tokens);
        let rep = HwDecompressor::new(DecompConfig::paper_fast()).decompress_block(&block).unwrap();
        assert_eq!(rep.bytes, vec![b'a'; 259]);
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let tokens: Vec<Token> = b"some data to cut".iter().map(|&b| Token::Literal(b)).collect();
        let block = fixed_block(&tokens);
        for cut in 1..block.len() {
            let r = HwDecompressor::new(DecompConfig::paper_fast()).decompress_block(&block[..cut]);
            // Any prefix must either be rejected or decode fewer bytes; the
            // decoder must never panic. (A cut can land after a complete
            // token and before EOB, which reports Truncated.)
            if let Ok(rep) = r {
                assert!(rep.bytes.len() <= 16);
            }
        }
    }

    #[test]
    fn distance_before_stream_start_is_rejected() {
        let tokens = vec![Token::Literal(b'x'), Token::Match { dist: 5, len: 3 }];
        let block = fixed_block(&tokens);
        let err =
            HwDecompressor::new(DecompConfig::paper_fast()).decompress_block(&block).unwrap_err();
        assert!(matches!(err, DecompError::DistanceTooFar { dist: 5, produced: 1 }));
    }

    #[test]
    fn sink_back_pressure_slows_but_preserves_output() {
        let data = lzfpga_workloads::canlog::generate(3, 60_000);
        let rep = compress_to_zlib(&data, &HwConfig::paper_fast());
        let body = &rep.compressed[2..rep.compressed.len() - 4];
        let free = HwDecompressor::new(DecompConfig::paper_fast()).decompress_block(body).unwrap();
        let pressed = HwDecompressor::new(DecompConfig::paper_fast())
            .decompress_block_with_sink(body, BackPressure::Duty { ready: 1, period: 2 })
            .unwrap();
        assert_eq!(free.bytes, pressed.bytes);
        assert!(pressed.cycles > free.cycles);
        assert!(pressed.stats.get(HwState::Waiting) > 0);
    }

    #[test]
    fn gzip_member_round_trips_and_detects_corruption() {
        use lzfpga_deflate::encoder::BlockKind;
        use lzfpga_deflate::gzip::gzip_compress_tokens;
        let data = lzfpga_workloads::canlog::generate(8, 50_000);
        let comp = HwCompressor::new(HwConfig::paper_fast()).compress(&data);
        let gz = gzip_compress_tokens(&comp.tokens, &data, BlockKind::FixedHuffman);
        let mut d = HwDecompressor::new(DecompConfig::paper_fast());
        let rep = d.decompress_gzip(&gz).unwrap();
        assert_eq!(rep.bytes, data);
        let mut bad = gz.clone();
        let n = bad.len();
        bad[n - 6] ^= 0x80; // CRC byte
        assert!(d.decompress_gzip(&bad).is_err());
        bad = gz.clone();
        bad[n - 2] ^= 0x01; // ISIZE byte
        assert!(d.decompress_gzip(&bad).is_err());
    }

    #[test]
    fn bad_zlib_header_rejected() {
        let mut d = HwDecompressor::new(DecompConfig::paper_fast());
        assert!(d.decompress_zlib(&[0u8; 8]).is_err());
        assert!(d.decompress_zlib(&[0x78]).is_err());
    }

    #[test]
    fn short_container_inputs_report_truncated() {
        // Every 0–7-byte prefix used to be able to reach the `.expect("4
        // bytes")` trailer parse; now it must come back as `Truncated`.
        let mut d = HwDecompressor::new(DecompConfig::paper_fast());
        let gz_prefix = [0x1F, 0x8B, 8, 0, 0, 0, 0];
        let zlib_prefix = [0x78, 0x9C, 0x03, 0x00, 0x00, 0x00, 0x01];
        for n in 0..=7usize {
            assert_eq!(
                d.decompress_gzip(&gz_prefix[..n.min(gz_prefix.len())]).unwrap_err(),
                DecompError::Truncated,
                "gzip prefix of {n} bytes"
            );
            if n < 6 {
                assert_eq!(
                    d.decompress_zlib(&zlib_prefix[..n]).unwrap_err(),
                    DecompError::Truncated,
                    "zlib prefix of {n} bytes"
                );
            } else {
                // 6–7 bytes clear the length gate but die in the body or
                // checksum — as a typed error, never a panic.
                assert!(d.decompress_zlib(&zlib_prefix[..n]).is_err());
            }
        }
    }

    #[test]
    fn config_validation_is_typed() {
        assert_eq!(
            DecompConfig { window_size: 3_000, bus_bytes: 4 }.validate(),
            Err(DecompConfigError::BadWindow { window_size: 3_000 })
        );
        assert_eq!(
            DecompConfig { window_size: 4_096, bus_bytes: 2 }.validate(),
            Err(DecompConfigError::BadBus { bus_bytes: 2 })
        );
        assert!(DecompConfig::paper_fast().validate().is_ok());
        let err =
            HwDecompressor::try_new(DecompConfig { window_size: 100, bus_bytes: 1 }).err().unwrap();
        assert_eq!(err.to_string(), "window size 100 must be a power of two in 256..=65536");
    }

    #[test]
    fn failpoints_inject_typed_decode_errors() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = b"fault me".repeat(100);
        let rep = compress_to_zlib(&data, &HwConfig::paper_fast());
        let mut d = HwDecompressor::new(DecompConfig::paper_fast());

        let plan = FailPlan::new(1).rule(FailRule::new("hw.decode.block"));
        assert_eq!(
            d.decompress_zlib_faulty(&rep.compressed, &plan).unwrap_err(),
            DecompError::Injected { site: "hw.decode.block" }
        );

        // Mid-stream symbol fault: the 5th symbol decode errors out.
        let plan = FailPlan::new(1).rule(FailRule::new("hw.decode.symbol").on_hit(5));
        assert_eq!(
            d.decompress_zlib_faulty(&rep.compressed, &plan).unwrap_err(),
            DecompError::Injected { site: "hw.decode.symbol" }
        );
        assert_eq!(plan.fired_count(), 1);

        // With the plan exhausted, the same call succeeds.
        assert_eq!(d.decompress_zlib_faulty(&rep.compressed, &plan).unwrap().bytes, data);
    }

    #[test]
    fn corrupted_adler_rejected() {
        let data = b"checksummed payload".repeat(10);
        let rep = compress_to_zlib(&data, &HwConfig::paper_fast());
        let mut bad = rep.compressed.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        let err = HwDecompressor::new(DecompConfig::paper_fast()).decompress_zlib(&bad);
        assert!(err.is_err());
    }

    #[test]
    fn throughput_exceeds_compressor_on_text() {
        let data = lzfpga_workloads::wiki::generate(29, 400_000);
        let rep = compress_to_zlib(&data, &HwConfig::paper_fast());
        let dec = HwDecompressor::new(DecompConfig::paper_fast())
            .decompress_zlib(&rep.compressed)
            .unwrap();
        assert!(dec.mb_per_s() > rep.mb_per_s(), "{} !> {}", dec.mb_per_s(), rep.mb_per_s());
        assert!(dec.cycles_per_byte() < 1.6, "{}", dec.cycles_per_byte());
    }
}
