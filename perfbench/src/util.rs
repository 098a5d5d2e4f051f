//! Shared pieces: seeded randomness, timers, the layer ledger, the cycle
//! model tally and process memory readings.

use std::time::Instant;

use lzfpga_core::{HwCompressor, HwConfig, HwRunReport, HwState};
use lzfpga_deflate::Token;
use lzfpga_lzss::TurboEngine;
use lzfpga_telemetry::TurboCounters;
use lzfpga_workloads::mixed::logger_mix;
use lzfpga_workloads::{generate, Corpus};

use crate::report::{Metrics, LEDGER_MEMBERS};

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed` so the same seed always yields the same inputs and schedule.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `pieces` snippets of `corpus`, `piece_len` bytes each, every one from
/// its own sub-seed of `seed`: averaging several generator draws keeps
/// seed-to-seed differences in the input small.
pub fn corpus_bytes(corpus: Corpus, seed: u64, pieces: usize, piece_len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut data = Vec::with_capacity(pieces * piece_len);
    for _ in 0..pieces {
        data.extend(generate(corpus, rng.next(), piece_len));
    }
    data
}

/// Segment length of the `mixed` corpus.
pub const MIXED_SEGMENT: usize = 16 << 10;

/// `len` bytes of the `mixed` corpus's recipe (`mixed::logger_mix`),
/// from segment `first` of a fixed interleave of its ingredients.
///
/// `Corpus::Mixed` draws every 16 KiB segment's ingredient at random, so
/// one seed's input can hold half again as much x2e-can as another's, and
/// speed and ratio follow the draw. Here the ingredient of segment `i` is
/// fixed by the recipe's weights alone, so every seed gets exactly the
/// recipe's shares; the seed picks each segment's content.
pub fn mixed_bytes(seed: u64, first: usize, len: usize) -> Vec<u8> {
    // Smooth weighted round-robin over the integer weights: each
    // ingredient's turns are spread evenly through one cycle.
    let recipe = logger_mix();
    let mut credit = vec![0i64; recipe.len()];
    let total: i64 = recipe.iter().map(|i| i.weight as i64).sum();
    let mut order = Vec::new();
    for _ in 0..total {
        for (c, i) in credit.iter_mut().zip(&recipe) {
            *c += i.weight as i64;
        }
        let pick = (0..recipe.len()).max_by_key(|&k| (credit[k], -(k as i64))).unwrap_or(0);
        credit[pick] -= total;
        order.push(recipe[pick].corpus);
    }
    let mut data = Vec::with_capacity(len);
    let mut seg = first;
    while data.len() < len {
        let take = MIXED_SEGMENT.min(len - data.len());
        let sub_seed = Rng::new(seed ^ (seg as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)).next();
        data.extend(generate(order[seg % order.len()], sub_seed, take));
        seg += 1;
    }
    data
}

/// Run `f` and return its value with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Worker threads and client connections of the measured load. One: on a
/// host of a few shared cores, a second busy thread measures the
/// scheduler and the neighbours as much as the program. The traced run
/// still times the parallel drivers at [`nproc`] workers.
pub const LOAD_THREADS: usize = 1;

/// The host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Layer self-time accounting for a traced replay.
///
/// On-path calls are timed by the caller and charged to their layer.
/// A calibration call (an inner call re-run alone on the same input, so
/// an outer layer's self time can be its time minus the inner one) runs
/// through [`Tracer::calibrate`]; its time is excluded from the traced
/// wall. With `enabled == false` calibrations are skipped, which is the
/// untimed replay the tracing overhead is measured against.
pub struct Tracer {
    pub m: Metrics,
    pub enabled: bool,
    excluded_s: f64,
    depth: u32,
    /// Tokenizer and its reusable token buffer.
    pub engine: TurboEngine,
    pub tokens: Vec<Token>,
    /// Match-loop counters of every traced tokenize call.
    pub turbo: TurboCounters,
    /// Work done, for the engine-only rates and the frame counts.
    pub tokenized_bytes: u64,
    pub encoded_bytes: u64,
    pub inflated_bytes: u64,
    pub frames: u64,
    pub raw_frames: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            m: Metrics::default(),
            enabled,
            excluded_s: 0.0,
            depth: 0,
            engine: TurboEngine::new(),
            tokens: Vec::new(),
            turbo: TurboCounters::default(),
            tokenized_bytes: 0,
            encoded_bytes: 0,
            inflated_bytes: 0,
            frames: 0,
            raw_frames: 0,
        }
    }

    pub fn charge(&mut self, layer: &'static str, secs: f64) {
        self.m.add(layer, secs);
    }

    /// Run a calibration call (skipped when tracing is off). Nested
    /// calibrations are excluded from the wall once, by the outermost.
    pub fn calibrate<T: Default>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        if !self.enabled {
            return (T::default(), 0.0);
        }
        self.depth += 1;
        let t0 = Instant::now();
        let v = f(self);
        let t = t0.elapsed().as_secs_f64();
        self.depth -= 1;
        if self.depth == 0 {
            self.excluded_s += t;
        }
        (v, t)
    }

    /// Seconds of calibration work to take off the measured wall.
    pub fn excluded_s(&self) -> f64 {
        self.excluded_s
    }

    /// Sum of every ledger member charged so far.
    pub fn attributed(&self) -> f64 {
        LEDGER_MEMBERS.iter().map(|n| self.m.get(n)).sum()
    }
}

/// Close the ledger: charge `ledger.wall_s` and `ledger.unattributed_s`
/// (both per operation) and report whether the layers add up.
pub fn close_ledger(m: &mut Metrics, wall_s: f64, ops: f64, problems: &mut Vec<String>) {
    let attributed: f64 = LEDGER_MEMBERS.iter().map(|n| m.get(n)).sum();
    let unattributed = wall_s - attributed;
    let share = crate::report::ratio(unattributed.abs(), wall_s);
    eprintln!(
        "  ledger: wall {:.6} s, layers {:.6} s, unattributed {:.6} s ({:.2}% of wall, tolerance {}%)",
        wall_s / ops,
        attributed / ops,
        unattributed / ops,
        share * 100.0,
        crate::report::LEDGER_TOLERANCE * 100.0
    );
    if share > crate::report::LEDGER_TOLERANCE {
        problems.push(format!(
            "layer ledger does not close: unattributed {:.2}% of the traced wall",
            share * 100.0
        ));
    }
    m.scale(LEDGER_MEMBERS, ops);
    m.set("ledger.wall_s", wall_s / ops);
    m.set("ledger.unattributed_s", unattributed / ops);
}

/// Cycle-model totals over one or more `HwCompressor` runs.
#[derive(Default)]
pub struct ModelTally {
    /// Host seconds the runs took.
    pub sim_s: f64,
    pub bytes: u64,
    pub cycles: u64,
    pub states: [u64; 6],
    pub chain_steps: u64,
    pub compared_bytes: u64,
    pub prefetch_hits: u64,
    pub tokens: u64,
    pub rotations: u64,
}

impl ModelTally {
    pub fn add(&mut self, rep: &HwRunReport) {
        self.bytes += rep.input_bytes;
        self.cycles += rep.cycles;
        for (slot, state) in self.states.iter_mut().zip(STATES) {
            *slot += rep.stats.get(state);
        }
        self.chain_steps += rep.counters.chain_steps;
        self.compared_bytes += rep.counters.compared_bytes;
        self.prefetch_hits += rep.counters.prefetch_hits;
        self.tokens += rep.tokens.len() as u64;
        self.rotations += rep.counters.rotations;
    }

    pub fn cycles_per_byte(&self) -> f64 {
        crate::report::ratio(self.cycles as f64, self.bytes as f64)
    }

    /// The `core.*` per-layer figures.
    pub fn write(&self, m: &mut Metrics) {
        let b = self.bytes as f64;
        m.set("core.sim_s", self.sim_s);
        m.set("core.sim_mb_s", crate::report::ratio(b / 1e6, self.sim_s));
        let names = [
            "core.state.waiting_cpb",
            "core.state.producing_output_cpb",
            "core.state.updating_hash_cpb",
            "core.state.rotating_hash_cpb",
            "core.state.fetching_cpb",
            "core.state.finding_match_cpb",
        ];
        for (name, cycles) in names.into_iter().zip(self.states) {
            m.set(name, crate::report::ratio(cycles as f64, b));
        }
        m.set("core.chain_steps_per_byte", crate::report::ratio(self.chain_steps as f64, b));
        m.set("core.compared_bytes_per_byte", crate::report::ratio(self.compared_bytes as f64, b));
        m.set(
            "core.prefetch_hit_rate",
            crate::report::ratio(self.prefetch_hits as f64, self.tokens as f64),
        );
        m.set("core.rotations", self.rotations as f64);
    }
}

/// Figure 5 states in `HwState` discriminant order.
const STATES: [HwState; 6] = [
    HwState::Waiting,
    HwState::Output,
    HwState::HashUpdate,
    HwState::Rotate,
    HwState::Fetch,
    HwState::Match,
];

/// The paper's model over `pieces`, one fresh `HwCompressor` per piece.
pub fn model_over<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> ModelTally {
    let mut tally = ModelTally::default();
    for piece in pieces {
        let (rep, secs) = timed(|| HwCompressor::new(HwConfig::paper_fast()).compress(piece));
        tally.sim_s += secs;
        tally.add(&rep);
    }
    tally
}

/// Peak resident set of process `pid` (`"self"` for this one) in MB,
/// without file-backed and shared pages: VmHWM minus RssFile and RssShmem
/// read at the same moment. The file pages are mostly the binary's text,
/// whose residency follows the page cache rather than the program.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib = |key: &str| -> Option<f64> {
        status.lines().find(|l| l.starts_with(key))?.split_whitespace().nth(1)?.parse().ok()
    };
    Some((kib("VmHWM:")? - kib("RssFile:")? - kib("RssShmem:")?) * 1024.0 / 1e6)
}
