//! Zero-cost-when-disabled counters for the software match kernel.
//!
//! The turbo engine's hot loops are generic over [`MatchProbe`]; with the
//! default [`NoProbe`] every callback monomorphizes to an empty inline
//! function, so the uninstrumented engine compiles to exactly the code it
//! had before telemetry existed — the software analogue of tying the
//! hardware's debug taps to ground. [`TurboCounters`] is the counting
//! implementation behind `--metrics`.

use crate::histogram::Histogram;
use crate::json::{obj, JsonValue};

/// Observation points inside the LZSS match loop.
///
/// All methods default to no-ops; implementations override what they need.
/// Callbacks carry enough context to derive the report metrics (bytes per
/// probe, match/literal ratio, chain-walk distribution) without the engine
/// knowing anything about reports.
pub trait MatchProbe {
    /// A position (or short-match byte) was inserted into the hash chain.
    #[inline]
    fn inserted(&mut self) {}

    /// A bulk insert run filed `n` positions at once. The engines report
    /// their 4-wide insert loops through this batched form so the enabled
    /// probe costs one call per run instead of one per position — the same
    /// counts, a fraction of the hot-loop overhead. The default forwards
    /// to `n` [`MatchProbe::inserted`] calls so a probe overriding only
    /// the unit form still sees every event; counting probes override
    /// both.
    #[inline]
    fn inserted_n(&mut self, n: u32) {
        for _ in 0..n {
            self.inserted();
        }
    }

    /// The full word-at-a-time kernel ran and matched `len` bytes.
    #[inline]
    fn kernel_run(&mut self, len: u32) {
        let _ = len;
    }

    /// A chain walk finished after examining `steps` candidates.
    ///
    /// This is also the per-candidate accounting point: the engines count
    /// candidates locally in a register and report the total here, so the
    /// hot loop carries no per-probe callback. Implementations wanting a
    /// probe count accumulate `steps`.
    #[inline]
    fn chain_done(&mut self, steps: u32) {
        let _ = steps;
    }

    /// A literal token was emitted.
    #[inline]
    fn literal(&mut self) {}

    /// A run of `n` literal tokens was emitted. The engines accumulate
    /// literal counts in a register between match boundaries and flush
    /// through this batched form (same counts as `n` single
    /// [`MatchProbe::literal`] calls, one callback per run). The default
    /// forwards to `n` unit calls — see [`MatchProbe::inserted_n`].
    #[inline]
    fn literals_n(&mut self, n: u32) {
        for _ in 0..n {
            self.literal();
        }
    }

    /// A match token of `len` bytes was emitted.
    #[inline]
    fn matched(&mut self, len: u32) {
        let _ = len;
    }

    /// A compress run resolved its match-kernel dispatch to the named ISA
    /// path (`"scalar"`, `"sse2"`, `"avx2"`, `"neon"`). Fired once per
    /// engine run, before any token is produced.
    #[inline]
    fn kernel_select(&mut self, isa: &'static str) {
        let _ = isa;
    }
}

/// The disabled probe: every observation point is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl MatchProbe for NoProbe {}

/// Counting probe for the turbo engine: the Figure-5 lens for software.
#[derive(Debug, Clone, Default)]
pub struct TurboCounters {
    /// Hash-chain insertions (head-table writes).
    pub inserts: u64,
    /// Chain candidates examined (quick-reject byte compares).
    pub probes: u64,
    /// Full word-at-a-time kernel invocations (quick reject passed).
    pub kernel_runs: u64,
    /// Bytes matched across all kernel runs (including non-best candidates).
    pub kernel_bytes: u64,
    /// Literal tokens emitted.
    pub literals: u64,
    /// Match tokens emitted.
    pub matches: u64,
    /// Input bytes covered by match tokens.
    pub match_bytes: u64,
    /// Distribution of chain-walk lengths (candidates examined per search).
    pub chain_hist: Histogram,
    /// Distribution of emitted match lengths.
    pub match_len_hist: Histogram,
    /// Engine runs dispatched to the scalar (u64) match kernel.
    pub dispatch_scalar: u64,
    /// Engine runs dispatched to the SSE2 (16-byte) match kernel.
    pub dispatch_sse2: u64,
    /// Engine runs dispatched to the AVX2 (32-byte) match kernel.
    pub dispatch_avx2: u64,
    /// Engine runs dispatched to the NEON (16-byte) match kernel.
    pub dispatch_neon: u64,
}

impl MatchProbe for TurboCounters {
    #[inline]
    fn inserted(&mut self) {
        self.inserts += 1;
    }

    #[inline]
    fn inserted_n(&mut self, n: u32) {
        self.inserts += u64::from(n);
    }

    #[inline]
    fn kernel_run(&mut self, len: u32) {
        self.kernel_runs += 1;
        self.kernel_bytes += u64::from(len);
    }

    #[inline]
    fn chain_done(&mut self, steps: u32) {
        self.probes += u64::from(steps);
        self.chain_hist.record(u64::from(steps));
    }

    #[inline]
    fn literal(&mut self) {
        self.literals += 1;
    }

    #[inline]
    fn literals_n(&mut self, n: u32) {
        self.literals += u64::from(n);
    }

    #[inline]
    fn matched(&mut self, len: u32) {
        self.matches += 1;
        self.match_bytes += u64::from(len);
        self.match_len_hist.record(u64::from(len));
    }

    #[inline]
    fn kernel_select(&mut self, isa: &'static str) {
        match isa {
            "sse2" => self.dispatch_sse2 += 1,
            "avx2" => self.dispatch_avx2 += 1,
            "neon" => self.dispatch_neon += 1,
            _ => self.dispatch_scalar += 1,
        }
    }
}

impl TurboCounters {
    /// Input bytes accounted for by the emitted tokens; must equal the
    /// input length (the core observability invariant, enforced by tests).
    pub fn covered_bytes(&self) -> u64 {
        self.literals + self.match_bytes
    }

    /// Input bytes advanced per chain probe (∞-free; 0 when no probes).
    pub fn bytes_per_probe(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.covered_bytes() as f64 / self.probes as f64
        }
    }

    /// Match tokens per emitted token (0 when no tokens).
    pub fn match_ratio(&self) -> f64 {
        let tokens = self.literals + self.matches;
        if tokens == 0 {
            0.0
        } else {
            self.matches as f64 / tokens as f64
        }
    }

    /// Fold another engine's counters into this one (used by the parallel
    /// pipeline to aggregate per-worker engines).
    pub fn merge(&mut self, other: &TurboCounters) {
        self.inserts += other.inserts;
        self.probes += other.probes;
        self.kernel_runs += other.kernel_runs;
        self.kernel_bytes += other.kernel_bytes;
        self.literals += other.literals;
        self.matches += other.matches;
        self.match_bytes += other.match_bytes;
        self.chain_hist.merge(&other.chain_hist);
        self.match_len_hist.merge(&other.match_len_hist);
        self.dispatch_scalar += other.dispatch_scalar;
        self.dispatch_sse2 += other.dispatch_sse2;
        self.dispatch_avx2 += other.dispatch_avx2;
        self.dispatch_neon += other.dispatch_neon;
    }

    /// JSON form for the `telemetry.turbo` report section.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("inserts", self.inserts.into()),
            ("probes", self.probes.into()),
            ("kernel_runs", self.kernel_runs.into()),
            ("kernel_bytes", self.kernel_bytes.into()),
            ("literals", self.literals.into()),
            ("matches", self.matches.into()),
            ("match_bytes", self.match_bytes.into()),
            ("covered_bytes", self.covered_bytes().into()),
            ("bytes_per_probe", self.bytes_per_probe().into()),
            ("match_ratio", self.match_ratio().into()),
            ("chain_len", self.chain_hist.to_json()),
            ("match_len", self.match_len_hist.to_json()),
            (
                "dispatch",
                obj([
                    ("scalar", self.dispatch_scalar.into()),
                    ("sse2", self.dispatch_sse2.into()),
                    ("avx2", self.dispatch_avx2.into()),
                    ("neon", self.dispatch_neon.into()),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_probe_accumulates() {
        let mut c = TurboCounters::default();
        c.inserted();
        c.inserted_n(3);
        c.kernel_run(12);
        c.chain_done(2);
        c.matched(12);
        c.literal();
        assert_eq!(c.inserts, 4);
        assert_eq!(c.probes, 2, "chain_done accumulates the probe count");
        assert_eq!(c.kernel_runs, 1);
        assert_eq!(c.kernel_bytes, 12);
        assert_eq!(c.covered_bytes(), 13);
        assert!((c.bytes_per_probe() - 6.5).abs() < 1e-12);
        assert!((c.match_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.chain_hist.count(), 1);
        assert_eq!(c.match_len_hist.sum(), 12);
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = TurboCounters::default();
        a.matched(10);
        let mut b = TurboCounters::default();
        b.literal();
        b.chain_done(1);
        a.merge(&b);
        assert_eq!(a.covered_bytes(), 11);
        assert_eq!(a.probes, 1);
    }

    #[test]
    fn json_section_round_trips() {
        let mut c = TurboCounters::default();
        c.matched(100);
        c.literal();
        c.chain_done(1);
        let parsed = crate::json::parse(&c.to_json().render()).unwrap();
        assert_eq!(parsed.get("covered_bytes").unwrap().as_i64(), Some(101));
        assert_eq!(parsed.get("match_len").unwrap().get("max").unwrap().as_i64(), Some(100));
    }

    #[test]
    fn kernel_dispatch_accumulates() {
        let mut c = TurboCounters::default();
        c.kernel_select("avx2");
        c.kernel_select("avx2");
        c.kernel_select("scalar");
        c.kernel_select("mystery-isa");
        assert_eq!(c.dispatch_avx2, 2);
        assert_eq!(c.dispatch_scalar, 2, "unknown ISAs count as scalar");

        let mut other = TurboCounters::default();
        other.kernel_select("sse2");
        c.merge(&other);
        assert_eq!(c.dispatch_sse2, 1);

        let parsed = crate::json::parse(&c.to_json().render()).unwrap();
        let dispatch = parsed.get("dispatch").unwrap();
        assert_eq!(dispatch.get("avx2").unwrap().as_i64(), Some(2));
        assert_eq!(dispatch.get("sse2").unwrap().as_i64(), Some(1));
    }
}
