//! LZSS algorithm layer: parameters, hashing, the software reference
//! compressor, the token decoder, and the embedded-CPU cost model.
//!
//! The paper's §III defines the data format (literal / copy commands over a
//! sliding window with ZLib's head/next hash-chain search); this crate
//! implements that algorithm in ordinary software form:
//!
//! * [`params`] — the tunable knobs the paper exposes as generics
//!   (dictionary size, hash bits, matching iteration limit, …) plus the
//!   min/medium/max level presets used in Figure 4.
//! * [`hash`] — the 3-byte rolling hash (ZLib's shift-xor and a
//!   multiplicative alternative; the "exact hash function" is a generic in
//!   the paper's design).
//! * [`mod@reference`] — a ZLib-algorithm-equivalent compressor (greedy and lazy
//!   variants) producing [`lzfpga_deflate::Token`] streams. This is both the
//!   Table I software baseline and the golden model the cycle-accurate
//!   hardware simulation is checked against token-for-token.
//! * [`decoder`] — expands token streams back to bytes, enforcing window
//!   discipline; used for round-trip verification everywhere.
//! * [`classic`] — the *original* fixed-field LZSS wire format \[4\], for
//!   quantifying what the Deflate/Huffman back-end buys.
//! * [`cost`] — an instrumented operation-count model of the compressor on a
//!   PowerPC-440-class embedded CPU (the paper's 400 MHz SW baseline),
//!   documented in `DESIGN.md` as a substitution for the physical board.
//! * [`turbo`] — the same algorithm as [`mod@reference`], token-for-token,
//!   but with a vector match kernel and reusable arenas: the software fast
//!   path the throughput harness measures.
//! * [`simd`] — the match-length kernels behind [`turbo`]: runtime-dispatched
//!   SSE2/AVX2/NEON compares with the word-at-a-time scalar path as the
//!   guaranteed fallback, all returning identical lengths.
//!
//! Unsafe code is denied crate-wide and allowed in exactly two places: the
//! `std::arch` intrinsics inside [`simd`], each load justified by the
//! in-bounds argument documented there, and the `#[target_feature]` matcher
//! wrappers inside [`turbo`], whose CPU-support precondition is carried by
//! the proof-carrying [`MatchKernel`] value.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod classic;
pub mod cost;
pub mod decoder;
pub mod hash;
pub mod params;
pub mod reference;
pub mod simd;
pub mod turbo;

pub use analysis::{analyze_tokens, TokenStats};
pub use decoder::{decode_tokens, DecodeError};
pub use hash::HashFn;
pub use params::{CompressionLevel, LzssParams};
pub use reference::{compress, compress_with_probe, Probe};
pub use simd::MatchKernel;
pub use turbo::TurboEngine;
