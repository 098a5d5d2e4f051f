//! The metric catalogue, summary statistics and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and the byte base of any rate, so `perfbench metrics` and the
//! result line can never disagree about a name. Engine-only rates live
//! under their layer prefix (`lzss.tokenize_mb_s`, `deflate.encode_mb_s`)
//! and are never spelled like the end-to-end `compress_mb_s`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One metric: name, unit, and what it means.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub meaning: &'static str,
}

const fn m(name: &'static str, unit: &'static str, meaning: &'static str) -> MetricDef {
    MetricDef { name, unit, meaning }
}

/// Byte base shared by every MB/s figure.
pub const BYTE_BASE: &str = "MB = 10^6 bytes; every rate counts uncompressed bytes \
     (compress: bytes in; decompress and range: bytes out)";

/// Metrics of an untraced run (`--trace 0`): what a user of the system sees.
/// Every workload carries every one of them; what an operation is on each
/// workload is in `WORKLOADS`.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "setup_s",
        "s",
        "median over 7 set-ups: serve = daemon spawn to first accepted handshake \
       (state-dir open and recovery included); codec-local = first pass of a fresh process",
    ),
    m(
        "compress_mb_s",
        "MB/s",
        "per block: uncompressed bytes in / summed time of the workload's compress \
       operations (serve: compress-request latency); median over the blocks",
    ),
    m(
        "decompress_mb_s",
        "MB/s",
        "per block: uncompressed bytes out / summed time of the workload's \
       decompress operations (serve: decompress-request latency); median over the blocks",
    ),
    m(
        "ratio",
        "x",
        "uncompressed bytes / compressed bytes of the workload's compress operations; \
       deterministic per seed",
    ),
    m(
        "req_per_s",
        "1/s",
        "operations completed per second of a block's wall time \
       (serve: requests; codec-local: framed calls); median over the blocks",
    ),
    m(
        "served_mb_s",
        "MB/s",
        "uncompressed bytes processed per second of a block's wall time, \
       summed over all operations; median over the blocks",
    ),
    m(
        "latency_p50_ms",
        "ms",
        "a block's median operation latency (serve: request sent to last response \
       byte, client side; codec-local: one document's compress plus decompress round); \
       median over the blocks",
    ),
    m(
        "latency_p99_ms",
        "ms",
        "a block's 99th-percentile operation latency, same samples as latency_p50_ms; \
       median over the blocks",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "peak resident set without file-backed and shared pages (VmHWM - RssFile - \
       RssShmem): the daemon's, read before drain, or the median over fresh codec-local \
       processes after 4 passes",
    ),
    m(
        "model_cycles_per_byte",
        "cycles/B",
        "the paper's cycle model (HwConfig::paper_fast) over \
       the workload's input in 256 KiB frames, outside the timed window: simulated cycles / \
       input bytes; deterministic per seed",
    ),
];

/// Metrics of a traced run (`--trace 1`). Times are self times in seconds
/// per operation (codec-local: one document's round trip; serve: one request),
/// replayed serially with a timer around each public call. A layer off a
/// workload's path reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("lzss.tokenize_s", "s", "TurboEngine::compress_into_probed self time"),
    m("lzss.tokenize_mb_s", "MB/s", "engine-only tokenizer rate: bytes in / lzss.tokenize_s"),
    m("lzss.probes_per_kb", "count/KiB", "hash-chain probes per KiB tokenized"),
    m("lzss.kernel_runs_per_kb", "count/KiB", "match-kernel runs per KiB tokenized"),
    m("lzss.match_yield", "frac", "match bytes / bytes the match kernel compared"),
    m("lzss.match_share", "frac", "match bytes / bytes tokenized"),
    m("deflate.encode_s", "s", "zlib_compress_tokens self time (its Adler-32 excluded)"),
    m("deflate.encode_mb_s", "MB/s", "engine-only encoder rate: bytes in / deflate.encode_s"),
    m("deflate.adler32_s", "s", "Adler-32 time inside zlib encode and inflate"),
    m("deflate.inflate_s", "s", "zlib inflate self time (its Adler-32 excluded)"),
    m("deflate.inflate_mb_s", "MB/s", "engine-only inflate rate: bytes out / deflate.inflate_s"),
    m("deflate.crc32_s", "s", "CRC-32 time: frame payload CRCs and whole-stream CRCs"),
    m("container.frame_s", "s", "LZFC header, index and trailer encoding (CRCs excluded)"),
    m("container.parse_s", "s", "check_structure and trailer cross-checks"),
    m("container.decode_self_s", "s", "decode_frame self time (CRC and inflate excluded)"),
    m("container.range_open_s", "s", "open_indexed: seek-index load for range reads"),
    m("container.frames", "count", "data frames per operation"),
    m("container.raw_frame_share", "frac", "frames stored raw / frames"),
    m(
        "parallel.compress_speedup",
        "x",
        "serial replay compress time / compress_frames_parallel wall at nproc workers",
    ),
    m(
        "parallel.decompress_speedup",
        "x",
        "serial replay decompress time / \
       decompress_frames_parallel wall",
    ),
    m("parallel.efficiency", "frac", "parallel.compress_speedup / workers"),
    m(
        "parallel.worker_busy_frac",
        "frac",
        "worker frame-span time / (workers x call wall), from \
       ParallelConfig::telemetry",
    ),
    m("parallel.stitch_wait_s", "s", "stitcher time blocked on the next in-order frame per call"),
    m(
        "core.sim_s",
        "s",
        "HwCompressor::compress over the workload's input (the side pass behind \
       model_cycles_per_byte; off the request path and the ledger)",
    ),
    m("core.sim_mb_s", "MB/s", "host simulation rate: bytes in / core.sim_s"),
    m("core.state.finding_match_cpb", "cycles/B", "model cycles in Finding match per byte"),
    m("core.state.producing_output_cpb", "cycles/B", "model cycles in Producing output per byte"),
    m("core.state.updating_hash_cpb", "cycles/B", "model cycles in Updating hash table per byte"),
    m("core.state.rotating_hash_cpb", "cycles/B", "model cycles in Rotating hash per byte"),
    m("core.state.waiting_cpb", "cycles/B", "model cycles in Waiting for data per byte"),
    m("core.state.fetching_cpb", "cycles/B", "model cycles in Fetching data per byte"),
    m("core.chain_steps_per_byte", "count/B", "hash-chain candidates examined per byte"),
    m("core.compared_bytes_per_byte", "count/B", "comparator bytes per input byte"),
    m("core.prefetch_hit_rate", "frac", "prefetch hits / tokens emitted"),
    m("core.rotations", "count", "head-table rotations over the model input"),
    m("server.admit_s", "s", "Admission::admit_request + RequestCtl, and the charge release"),
    m("server.proto_s", "s", "encode/read/parse of every request and response message"),
    m(
        "server.wire_s",
        "s",
        "serial client latency minus the untimed in-process replay up to the last result \
         byte: socket, queueing and pool hand-off",
    ),
    m("server.compress_p50_ms", "ms", "median client latency of compress requests (serial pass)"),
    m(
        "server.decompress_p50_ms",
        "ms",
        "median client latency of decompress requests (serial pass)",
    ),
    m("server.range_p50_ms", "ms", "median client latency of range requests (serial pass)"),
    m("server.job_s.compress", "s", "jobs::compress_job (or durable_compress) inclusive time"),
    m("server.job_s.decompress", "s", "jobs::decompress_job inclusive time"),
    m("server.job_s.range", "s", "jobs::range_job inclusive time"),
    m("server.job_self_s", "s", "job time not spent in lzss, deflate or container calls"),
    m(
        "server.store_s",
        "s",
        "SessionStore::begin + finish and durable_compress minus its codec, per request, from \
         one side replay of the log with a state dir on disk (off the ledger)",
    ),
    m("server.requests_failed", "count", "daemon counter at drain (serve --metrics)"),
    m("server.protocol_errors", "count", "daemon counter at drain (serve --metrics)"),
    m("server.panics_contained", "count", "daemon counter at drain (serve --metrics)"),
    m("ledger.wall_s", "s", "traced replay wall per operation, calibration calls excluded"),
    m("ledger.unattributed_s", "s", "ledger.wall_s minus the sum of every layer self time"),
    m("ledger.trace_overhead_frac", "frac", "traced replay wall / untimed replay wall - 1"),
];

/// Layer self times that together with `ledger.unattributed_s` must add
/// up to `ledger.wall_s`.
pub const LEDGER_MEMBERS: &[&str] = &[
    "lzss.tokenize_s",
    "deflate.encode_s",
    "deflate.adler32_s",
    "deflate.inflate_s",
    "deflate.crc32_s",
    "container.frame_s",
    "container.parse_s",
    "container.decode_self_s",
    "container.range_open_s",
    "server.admit_s",
    "server.proto_s",
    "server.job_self_s",
];

/// The ledger closes when |unattributed| is at most this share of the wall.
pub const LEDGER_TOLERANCE: f64 = 0.05;

/// The workloads, why each exists, and how its load is shaped.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "codec-local",
        "in-process library path: compress_frames_parallel then decompress_frames_parallel, \
         one worker, 256 KiB frames, over three 1 MiB documents (mixed, wiki, x2e-can). \
         lzss, deflate, container and parallel do the work; server does none. One operation is \
         one framed call; a round is one compress plus one decompress of one document, and a \
         pass runs the three in turn.",
    ),
    (
        "serve-mixed",
        "the real `lzfpga serve --workers 1` daemon, in memory. Closed loop: one \
         connection, one blocking server::Client, next request only after the last \
         reply. Seeded mix over `mixed`: 60% 4 KiB, 30% 64 KiB, 10% 1 MiB; 50% compress, \
         25% decompress, 25% range. Small requests are dominated by proto, quota, pool and \
         socket time; 1 MiB requests keep the serial compress_job on the p99.",
    ),
];

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `value` under a catalogued name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "metric {name} is not in the catalogue");
        self.values.insert(name, value);
    }

    /// Add `value` to a catalogued metric (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "metric {name} is not in the catalogue");
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Set every metric of `defs` not recorded yet to 0: a layer off this
    /// workload's path.
    pub fn fill_zeros(&mut self, defs: &[MetricDef]) {
        for def in defs {
            self.values.entry(def.name).or_insert(0.0);
        }
    }

    /// Divide every recorded value by `n` (totals to per-operation means).
    pub fn scale(&mut self, names: &[&'static str], by: f64) {
        for name in names {
            if let Some(v) = self.values.get_mut(name) {
                *v /= by;
            }
        }
    }
}

fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` in [0, 1] of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Length of one measurement block. Every throughput and latency figure
/// of an untraced run is computed per block and reported as the median
/// over the run's blocks, so a neighbour's burst on the shared host that
/// slows a few blocks moves no figure.
pub const BLOCK: Duration = Duration::from_secs(1);

/// What one measurement block saw.
#[derive(Default)]
pub struct Block {
    pub wall_s: f64,
    /// Operations completed and the uncompressed MB they processed.
    pub ops: u64,
    pub mb: f64,
    pub latency_ms: Vec<f64>,
    /// Uncompressed MB and summed seconds of the compress operations, and
    /// of the decompress operations.
    pub compress: (f64, f64),
    pub decompress: (f64, f64),
}

/// Splits a measured window into [`BLOCK`]s.
pub struct Blocks {
    done: Vec<Block>,
    cur: Block,
    started: Instant,
}

impl Blocks {
    pub fn start() -> Self {
        Blocks { done: Vec::new(), cur: Block::default(), started: Instant::now() }
    }

    /// The block being filled.
    pub fn cur(&mut self) -> &mut Block {
        &mut self.cur
    }

    /// Close the current block once it has run for [`BLOCK`].
    pub fn tick(&mut self) {
        let wall = self.started.elapsed();
        if wall >= BLOCK {
            self.cur.wall_s = wall.as_secs_f64();
            self.done.push(std::mem::take(&mut self.cur));
            self.started = Instant::now();
        }
    }

    /// The closed blocks, plus the unfinished last one when it ran at
    /// least half a block (or is the only one).
    pub fn finish(mut self) -> Vec<Block> {
        let wall = self.started.elapsed();
        if self.cur.ops > 0 && (wall >= BLOCK / 2 || self.done.is_empty()) {
            self.cur.wall_s = wall.as_secs_f64();
            self.done.push(self.cur);
        }
        self.done
    }
}

/// The throughput and latency metrics: each is the median over `blocks`
/// of that block's figure.
pub fn write_blocks(m: &mut Metrics, blocks: &[Block]) {
    let per_block = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    m.set("compress_mb_s", per_block(&|b| ratio(b.compress.0, b.compress.1)));
    m.set("decompress_mb_s", per_block(&|b| ratio(b.decompress.0, b.decompress.1)));
    m.set("req_per_s", per_block(&|b| ratio(b.ops as f64, b.wall_s)));
    m.set("served_mb_s", per_block(&|b| ratio(b.mb, b.wall_s)));
    m.set("latency_p50_ms", per_block(&|b| median(&b.latency_ms)));
    m.set("latency_p99_ms", per_block(&|b| quantile(&b.latency_ms, 0.99)));
    let served: Vec<f64> = blocks.iter().map(|b| ratio(b.mb, b.wall_s)).collect();
    eprintln!(
        "  {} blocks of {} s; served MB/s per block: min {:.2}, median {:.2}, max {:.2}",
        blocks.len(),
        BLOCK.as_secs_f64(),
        quantile(&served, 0.0),
        median(&served),
        quantile(&served, 1.0)
    );
}

/// What a run found besides its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, one line each (empty when everything held).
    pub problems: Vec<String>,
}

/// Print the human-readable table to stderr and the result line to stdout.
///
/// # Errors
/// A catalogued metric of this mode is missing or not finite: that is a
/// benchmark bug, and no result line is printed.
pub fn emit(metrics: &Metrics, outcome: &Outcome, traced: bool) -> Result<(), String> {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let mut line = String::from("{");
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let _ = write!(
        line,
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, def) in defs.iter().enumerate() {
        let value =
            *metrics.values.get(def.name).ok_or_else(|| format!("metric {} missing", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", def.name));
        }
        eprintln!("  {:<34} {:>16} {}", def.name, fmt_value(value), def.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    line.push_str("}}");
    let fail_frac = ratio(outcome.failed as f64, outcome.attempted.max(1) as f64);
    eprintln!(
        "  fail_frac = {fail_frac} ({} failed of {} attempted; a wrong byte is a failure)",
        outcome.failed, outcome.attempted
    );
    for p in &outcome.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    println!("{line}");
    Ok(())
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// `perfbench metrics`: every metric by name, unit and meaning.
pub fn print_catalogue() {
    let mut out = format!("byte base: {BYTE_BASE}\noperation per workload:\n");
    for (name, why) in WORKLOADS {
        let _ = writeln!(out, "  {name}: {why}");
    }
    out.push_str("\nend-to-end metrics (--trace 0, every workload):\n");
    for d in END_TO_END {
        let _ = writeln!(out, "  {:<24} {:<9} {}", d.name, d.unit, d.meaning);
    }
    out.push_str(
        "  fail_frac is the result line's failed / attempted (every workload; 0 on a healthy \
         build, so it is not a bounded metric)\n",
    );
    out.push_str(
        "\nper-layer metrics (--trace 1, every workload; a layer off the path reads 0):\n",
    );
    for d in PER_LAYER {
        let _ = writeln!(out, "  {:<34} {:<9} {}", d.name, d.unit, d.meaning);
    }
    let _ = writeln!(
        out,
        "\nledger: {} + ledger.unattributed_s = ledger.wall_s, closing within {}% of the wall",
        LEDGER_MEMBERS.join(" + "),
        LEDGER_TOLERANCE * 100.0
    );
    // A closed pipe (`| head`) is not an error worth a panic.
    let _ = std::io::Write::write_all(&mut std::io::stdout(), out.as_bytes());
}
