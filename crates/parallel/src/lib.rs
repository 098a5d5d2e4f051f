//! Chunk-parallel compression over multiple compressor instances.
//!
//! The paper puts **one** LZSS engine next to the CPU; a Virtex-5 has room
//! for several (Table II: ~5-7 % of the chip each), and a logging
//! aggregator with multiple input channels can run them side by side. This
//! crate models that scale-out the way `pigz` does for software deflate:
//!
//! * the input splits into fixed-size **chunks**, each compressed by an
//!   independent engine (fresh dictionary — chunk boundaries lose a little
//!   ratio, quantified in tests);
//! * every chunk becomes a run of non-final Deflate blocks; concatenated
//!   they form **one standard zlib stream** (matches never cross chunk
//!   boundaries, so block concatenation is sound), with a single Adler-32
//!   over the whole input;
//! * the output is **bit-identical for any worker count and any engine
//!   kind** — parallelism is an implementation detail, never a format
//!   change.
//!
//! **One ordered fan-out.** All four drivers — [`compress_parallel`],
//! [`compress_frames_parallel`], [`decompress_frames_parallel`] and
//! [`decode_range_parallel`] — run on one private helper: scoped worker
//! threads pull item indices from a shared atomic counter (no work
//! stealing needed — chunks are uniform), and the calling thread consumes
//! the results *in index order as they land*. Compression therefore
//! overlaps the Deflate bit-packing (or frame stitching) of chunk `i` with
//! the matching of chunks `i+1..` — a two-stage software pipeline mirroring
//! the paper's matcher→Huffman FIFO decoupling — and the decoders append
//! each frame as soon as it and its predecessors are done, holding no
//! more decoded frames than the workers are ahead. Each worker owns its
//! engine and its share of the ledgers; they merge after the join.
//!
//! Two front-ends produce the (identical) token streams:
//!
//! * [`EngineKind::Modelled`] — the cycle-accurate hardware model, whose
//!   per-chunk cycle counts feed the multi-engine *makespan* model
//!   (chunks round-robin onto `instances` engines), reproducing the
//!   near-linear scaling a multi-engine design gets until DMA saturates;
//! * [`EngineKind::Turbo`] — the word-at-a-time software fast path
//!   ([`lzfpga_lzss::turbo`]); each worker keeps one reusable
//!   [`TurboEngine`] and recycles token buffers through a freelist, so the
//!   steady state allocates nothing per chunk.
//!
//! **Observability.** With [`ParallelConfig::telemetry`] set, the run
//! additionally reports a [`PipelineTelemetry`]: per-worker busy/idle time
//! and freelist traffic, stitcher stall vs encode time, how long finished
//! chunks waited in the reorder queue, the aggregated turbo-engine match
//! counters, and a chrome://tracing span stream (one timeline row per
//! worker plus the stitcher). Telemetry never changes the output bytes —
//! it only watches the clock around the existing stages.
//!
//! **Fault tolerance.** Every per-chunk compression attempt and every
//! per-frame range decode attempt climbs one shared degradation ladder:
//! three attempts, each under [`std::panic::catch_unwind`], so a crashing
//! engine (or an injected failpoint panic) never takes the job down. On
//! the compress side the third rung is the single-threaded reference
//! compressor — token-identical to both front-ends, so the output bytes
//! stay bit-exact even for degraded chunks — and only a chunk that fails
//! all three attempts fails the job, with a typed
//! [`ParallelError::ChunkFailed`]. Every recovery action lands in the
//! job's [`FailureReport`] (`ParallelReport::failures`). Failpoints
//! ([`compress_parallel_with`]) use the same zero-cost-generic pattern as
//! the telemetry probes: production callers pay nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use lzfpga_container::{
    check_structure, decode_frame, encode_data_header, encode_index_section, encode_trailer,
    finish_stream_checks, payload_from_tokens, plan_range, ContainerError, FrameConfig, IndexEntry,
    HEADER_LEN,
};
use lzfpga_core::config::CLOCK_HZ;
use lzfpga_core::{HwCompressor, HwConfig};
use lzfpga_deflate::adler32::adler32;
use lzfpga_deflate::crc32::Crc32;
use lzfpga_deflate::encoder::{BlockKind, DeflateEncoder};
use lzfpga_deflate::token::Token;
use lzfpga_deflate::zlib::zlib_header;
use lzfpga_faults::{Failpoints, FailureReport, NoFaults};
use lzfpga_lzss::{LzssParams, TurboEngine};
use lzfpga_telemetry::{
    frame_span, span_args, stage_span, FrameEvent, FrameOutcome, PipelineTelemetry, SpanTimer,
    StitcherStats, TraceEvent, TurboCounters, WorkerStats, ROOT_SPAN,
};

/// Which compressor front-end produces the per-chunk token streams.
///
/// Both kinds emit token-for-token identical streams (enforced by tests);
/// the choice trades metrics for speed: `Modelled` yields per-chunk cycle
/// counts for the FPGA scale-out model, `Turbo` runs as fast as the host
/// allows and reports zero cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Cycle-accurate hardware model (slow, fully instrumented).
    #[default]
    Modelled,
    /// Word-at-a-time software fast path (no cycle model).
    Turbo,
}

/// Parallel compression configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Chunk size in bytes (each chunk gets a fresh dictionary).
    pub chunk_bytes: usize,
    /// Host worker threads (0 = all available cores).
    pub workers: usize,
    /// Modelled hardware engine instances on the FPGA.
    pub instances: usize,
    /// Per-engine configuration.
    pub hw: HwConfig,
    /// Token-stream front-end.
    pub engine: EngineKind,
    /// Collect pipeline telemetry (worker utilization, stitcher stalls,
    /// turbo counters, trace events) into [`ParallelReport::telemetry`].
    /// Never affects the output bytes.
    pub telemetry: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            chunk_bytes: 256 * 1024,
            workers: 0,
            instances: 4,
            hw: HwConfig::paper_fast(),
            engine: EngineKind::Modelled,
            telemetry: false,
        }
    }
}

/// Rejected [`ParallelConfig`] values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelConfigError {
    /// Chunks below 4 KiB waste all compression ratio on dictionary warm-up.
    ChunkTooSmall {
        /// The offending chunk size.
        chunk_bytes: usize,
    },
    /// At least one modelled engine instance is required.
    NoInstances,
    /// Framed chunks must fit the container's 32-bit frame fields.
    FrameTooLarge {
        /// The offending frame size.
        frame_bytes: usize,
    },
}

impl std::fmt::Display for ParallelConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParallelConfigError::ChunkTooSmall { chunk_bytes } => {
                write!(f, "chunks below 4 KiB waste all ratio (got {chunk_bytes} bytes)")
            }
            ParallelConfigError::NoInstances => write!(f, "at least one engine instance"),
            ParallelConfigError::FrameTooLarge { frame_bytes } => {
                write!(f, "frames above MAX_FRAME_BYTES do not fit LZFC headers (got {frame_bytes} bytes)")
            }
        }
    }
}

impl std::error::Error for ParallelConfigError {}

/// Why a parallel compression job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelError {
    /// The configuration failed validation (nothing ran).
    Config(ParallelConfigError),
    /// A chunk failed the whole degradation ladder (engine, retry,
    /// reference fallback).
    ChunkFailed {
        /// The chunk that could not be compressed.
        index: usize,
        /// How many attempts it consumed.
        attempts: u64,
    },
}

impl From<ParallelConfigError> for ParallelError {
    fn from(e: ParallelConfigError) -> Self {
        ParallelError::Config(e)
    }
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParallelError::Config(e) => write!(f, "parallel config: {e}"),
            ParallelError::ChunkFailed { index, attempts } => {
                write!(f, "chunk {index} failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelError::Config(e) => Some(e),
            ParallelError::ChunkFailed { .. } => None,
        }
    }
}

impl ParallelConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns an error on a sub-4-KiB chunk size or zero instances.
    ///
    /// # Panics
    /// Panics when the embedded [`HwConfig`] is invalid (its own contract).
    pub fn validate(&self) -> Result<(), ParallelConfigError> {
        if self.chunk_bytes < 4_096 {
            return Err(ParallelConfigError::ChunkTooSmall { chunk_bytes: self.chunk_bytes });
        }
        if self.instances < 1 {
            return Err(ParallelConfigError::NoInstances);
        }
        self.hw.validate();
        Ok(())
    }
}

/// Per-chunk outcome.
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Chunk index.
    pub index: usize,
    /// Input bytes in this chunk.
    pub input_bytes: u64,
    /// Engine cycles spent (DMA setup included, as in Table I). Zero for
    /// the [`EngineKind::Turbo`] front-end, which has no cycle model.
    pub cycles: u64,
    /// Tokens produced.
    pub tokens: u64,
}

/// Result of a parallel compression run.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// The single zlib stream covering the whole input.
    pub compressed: Vec<u8>,
    /// Per-chunk engine metrics, in chunk order.
    pub chunks: Vec<ChunkReport>,
    /// Makespan in cycles when the chunks run on `instances` engines
    /// (greedy round-robin assignment in chunk order).
    pub makespan_cycles: u64,
    /// Total engine cycles across all chunks (the 1-instance makespan).
    pub total_cycles: u64,
    /// Input size.
    pub input_bytes: u64,
    /// Pipeline telemetry, present when [`ParallelConfig::telemetry`] was
    /// set.
    pub telemetry: Option<PipelineTelemetry>,
    /// Fault-tolerance ledger for this job: attempts, retries, degraded
    /// chunks, caught panics, fired failpoints. `is_clean()` on healthy
    /// runs.
    pub failures: FailureReport,
}

impl ParallelReport {
    /// Compression ratio (input / output).
    pub fn ratio(&self) -> f64 {
        if self.compressed.is_empty() {
            0.0
        } else {
            self.input_bytes as f64 / self.compressed.len() as f64
        }
    }

    /// Modelled aggregate throughput of the multi-engine design, MB/s.
    pub fn mb_per_s(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.input_bytes as f64 / 1e6 * CLOCK_HZ / self.makespan_cycles as f64
        }
    }

    /// Modelled speedup over a single engine.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            1.0
        } else {
            self.total_cycles as f64 / self.makespan_cycles as f64
        }
    }
}

/// Host threads for `n` items: `workers`, or every available core when it
/// is 0, clamped to `1..=n`.
fn worker_count(workers: usize, n: usize) -> usize {
    let w = if workers == 0 {
        std::thread::available_parallelism().map_or(4, |c| c.get())
    } else {
        workers
    };
    w.clamp(1, n.max(1))
}

/// The ordered fan-out every driver runs on: [`worker_count`] scoped
/// threads each build a state with `init(worker)` and run
/// `work(&mut state, i)` for item indices pulled from one atomic counter,
/// while the calling thread hands each result to `consume(i, r)` in index
/// order as soon as it and its predecessors have landed. A `false` from
/// `consume` stops delivery (the workers drain the remaining indices
/// unobserved). Returns the worker states, in worker order, for the
/// ledgers, counters and trace events to merge after the join.
///
/// A panic escaping `init` or `work` stops the queue and wakes the
/// consumer, and is resumed on the calling thread — never a hang.
fn fan_out<S: Send, R: Send>(
    n: usize,
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize) -> R + Sync,
    mut consume: impl FnMut(usize, R) -> bool,
) -> Vec<S> {
    if n == 0 {
        return Vec::new();
    }
    /// Results waiting by index, and a panic that escaped a worker.
    struct Landed<R> {
        results: Vec<Option<R>>,
        panic: Option<Box<dyn Any + Send>>,
    }
    let next = AtomicUsize::new(0);
    let results = (0..n).map(|_| None).collect();
    let landed = Mutex::new(Landed { results, panic: None });
    let ready = Condvar::new();
    let states: Vec<Option<S>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..worker_count(workers, n))
            .map(|w| {
                let (next, landed, ready, init, work) = (&next, &landed, &ready, &init, &work);
                s.spawn(move || {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        let mut state = init(w);
                        loop {
                            // Relaxed: the counter only hands out indices;
                            // results are published through the mutex.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return state;
                            }
                            let r = work(&mut state, i);
                            landed.lock().expect("fan-out lock").results[i] = Some(r);
                            ready.notify_all();
                        }
                    }));
                    run.map_err(|panic| {
                        next.store(n, Ordering::Relaxed);
                        landed.lock().expect("fan-out lock").panic = Some(panic);
                        ready.notify_all();
                    })
                    .ok()
                })
            })
            .collect();
        for i in 0..n {
            let r = {
                let mut guard = landed.lock().expect("fan-out lock");
                loop {
                    if guard.panic.is_some() {
                        break None;
                    }
                    if let Some(r) = guard.results[i].take() {
                        break Some(r);
                    }
                    guard = ready.wait(guard).expect("fan-out lock");
                }
            };
            if !r.is_some_and(|r| consume(i, r)) {
                break;
            }
        }
        handles.into_iter().map(|h| h.join().expect("fan-out workers catch their panics")).collect()
    });
    if let Some(panic) = landed.into_inner().expect("fan-out lock").panic {
        resume_unwind(panic);
    }
    states.into_iter().flatten().collect()
}

/// The degradation ladder every per-chunk and per-frame attempt climbs, and
/// the only owner of [`FailureReport`] bookkeeping: up to three calls of
/// `rung(attempt)`, each under [`catch_unwind`], so an injected error
/// (`None`) or a panic costs one attempt, never the job. With `reference`,
/// attempt 2 is the reference fallback and `index` is recorded as
/// degraded. `failed(attempt, panicked)` observes each failed attempt.
///
/// # Errors
/// The attempts consumed when every rung failed; `index` is then recorded
/// as failed.
fn ladder<T>(
    report: &mut FailureReport,
    index: usize,
    reference: bool,
    mut rung: impl FnMut(u32) -> Option<T>,
    mut failed: impl FnMut(u32, bool),
) -> Result<T, u64> {
    for attempt in 0..3u32 {
        report.attempts += 1;
        match attempt {
            1 => report.retries += 1,
            2 if reference => {
                report.degraded_chunks.push(index);
                report.degraded_chunks.sort_unstable();
            }
            _ => {}
        }
        // Crossing the unwind boundary is sound: every rung clears or
        // replaces its output on entry and the turbo engine re-zeroes its
        // arenas per call, so a mid-attempt panic leaves no poisoned state.
        let panicked = match catch_unwind(AssertUnwindSafe(|| rung(attempt))) {
            Ok(Some(value)) => return Ok(value),
            Ok(None) => {
                report.injected_errors += 1;
                false
            }
            Err(_panic) => {
                report.worker_restarts += 1;
                true
            }
        };
        failed(attempt, panicked);
    }
    report.failed_chunks.push(index);
    report.failed_chunks.sort_unstable();
    Err(3)
}

/// The engine a compress rung runs before the reference fallback.
enum Engine<'a> {
    /// The cycle-accurate hardware model.
    Modelled(&'a HwConfig),
    /// The turbo engine; probed (no failpoints) when counters are given.
    Turbo(&'a mut TurboEngine, Option<&'a mut TurboCounters>),
}

/// One compress ladder rung: check failpoint `site` when given, then
/// tokenize `chunk` into `buf` on `engine` — or, at attempt 2, on the
/// single-threaded reference compressor, token-identical to both engines.
/// Returns the engine cycles (0 off the cycle model), `None` when a fault
/// was injected.
fn compress_rung<F: Failpoints>(
    attempt: u32,
    site: Option<&str>,
    chunk: &[u8],
    params: &LzssParams,
    engine: Engine<'_>,
    buf: &mut Vec<Token>,
    faults: &F,
) -> Option<u64> {
    if site.is_some_and(|s| faults.check(s)) {
        return None;
    }
    buf.clear();
    match engine {
        _ if attempt == 2 => *buf = lzfpga_lzss::compress(chunk, params),
        Engine::Modelled(hw) => {
            let rep = HwCompressor::new(*hw).compress(chunk);
            *buf = rep.tokens;
            return Some(rep.cycles);
        }
        Engine::Turbo(turbo, Some(counters)) => {
            turbo.compress_into_probed(chunk, params, buf, counters);
        }
        Engine::Turbo(turbo, None) => {
            turbo.compress_into_faulty(chunk, params, buf, faults).ok()?
        }
    }
    Some(0)
}

/// Run one chunk through the panic/degradation ladder the parallel
/// drivers use, standalone: attempt 0 on the turbo engine, attempt 1
/// retries it, attempt 2 falls back to the single-threaded reference
/// compressor. Every attempt runs under [`catch_unwind`]; the two engine
/// attempts check the failpoint `site` first, so injected errors and
/// panics are absorbed exactly like `compress_parallel`'s workers absorb
/// them — and the ledger in `report` records each recovery the same way
/// (`attempts`, `retries`, `degraded_chunks`, `worker_restarts`,
/// `injected_errors`). The reference rung is deliberately not injectable
/// (like the salvage rung of the range reader's ladder): it is the
/// last-resort path whose failure would fail the whole request, so drills
/// can storm the engine sites as hard as they like and still assert
/// byte-exact output.
///
/// The token stream is identical across all three rungs, so callers
/// (notably `lzfpga-server`'s per-request jobs) get byte-stable output no
/// matter how hostile the run was. `index` is the caller's chunk/frame
/// number, used only for the ledger's chunk lists.
///
/// # Errors
/// The attempts consumed, when even the reference fallback failed.
pub fn compress_chunk_ladder<F: Failpoints>(
    turbo: &mut TurboEngine,
    chunk: &[u8],
    params: &LzssParams,
    site: &str,
    faults: &F,
    report: &mut FailureReport,
    index: usize,
) -> Result<Vec<Token>, u64> {
    let mut buf = Vec::new();
    let rung = |attempt| {
        let (site, engine) = ((attempt < 2).then_some(site), Engine::Turbo(turbo, None));
        compress_rung(attempt, site, chunk, params, engine, &mut buf, faults)
    };
    ladder(report, index, true, rung, |_, _| {})?;
    Ok(buf)
}

/// One compress worker of the parallel drivers: its engine and its share
/// of the job's ledgers, merged after the join.
struct Worker {
    turbo: TurboEngine,
    counters: TurboCounters,
    failures: FailureReport,
    timer: Option<SpanTimer>,
    stats: WorkerStats,
    spawned_us: f64,
}

impl Worker {
    fn new(worker: usize, epoch: Instant, telemetry: bool) -> Self {
        let timer = telemetry.then(|| SpanTimer::new(epoch, worker as u32 + 1));
        Self {
            turbo: TurboEngine::new(),
            counters: TurboCounters::default(),
            failures: FailureReport::default(),
            spawned_us: timer.as_ref().map_or(0.0, SpanTimer::now_us),
            timer,
            stats: WorkerStats { worker, ..WorkerStats::default() },
        }
    }

    /// Fold the joined workers' ledgers and counters, append their trace
    /// events to `trace` in worker order, and return their stats.
    fn merge(
        workers: Vec<Worker>,
        trace: &mut Vec<TraceEvent>,
    ) -> (FailureReport, TurboCounters, Vec<WorkerStats>) {
        let (mut failures, mut counters) = (FailureReport::default(), TurboCounters::default());
        let mut stats = Vec::with_capacity(workers.len());
        for mut w in workers {
            failures.merge(&w.failures);
            counters.merge(&w.counters);
            trace.extend(w.timer.as_mut().map_or_else(Vec::new, SpanTimer::drain));
            stats.push(w.stats);
        }
        (failures, counters, stats)
    }

    /// Climb the compress ladder for chunk `i` into `buf` on `cfg`'s
    /// engine, checking `site` before every rung, the reference rung
    /// included. With `fault_spans`, each failed attempt is traced as a
    /// `fault` span on frame `i`'s branch of the span tree.
    #[allow(clippy::too_many_arguments)]
    fn compress<F: Failpoints>(
        &mut self,
        i: usize,
        chunk: &[u8],
        cfg: &ParallelConfig,
        site: &str,
        fault_spans: bool,
        buf: &mut Vec<Token>,
        faults: &F,
    ) -> Result<u64, u64> {
        let params = cfg.hw.as_lzss_params();
        let Worker { turbo, counters, failures, timer, .. } = self;
        let mut attempt_start_us = timer.as_ref().map_or(0.0, SpanTimer::now_us);
        let rung = |attempt| {
            let engine = match cfg.engine {
                EngineKind::Modelled => Engine::Modelled(&cfg.hw),
                EngineKind::Turbo => Engine::Turbo(turbo, cfg.telemetry.then_some(&mut *counters)),
            };
            compress_rung(attempt, Some(site), chunk, &params, engine, buf, faults)
        };
        ladder(failures, i, true, rung, |attempt, panicked| {
            let Some(t) = timer.as_mut().filter(|_| fault_spans) else { return };
            let frame_id = frame_span(i as u64);
            let kind = if panicked { "panic" } else { "fault" };
            t.complete(
                format!("{kind} frame {i} attempt {attempt}"),
                "fault",
                attempt_start_us,
                span_args(stage_span(frame_id, 8 + attempt), frame_id),
            );
            attempt_start_us = t.now_us();
        })
    }
}

/// One finished chunk waiting for the stitcher.
struct ChunkDone {
    tokens: Vec<Token>,
    cycles: u64,
    /// Completion time in µs since the run epoch (0 when telemetry is off);
    /// lets the stitcher measure how long the chunk sat in the queue.
    done_us: f64,
}

/// Compress `data` chunk-parallel into one standard zlib stream.
///
/// The output bytes depend only on `cfg.chunk_bytes` and `cfg.hw` — never
/// on `cfg.workers`, `cfg.instances`, or `cfg.engine`.
///
/// # Errors
/// Returns [`ParallelError::Config`] when `cfg` fails validation, and
/// [`ParallelError::ChunkFailed`] when a chunk exhausts the degradation
/// ladder (engine → retry → reference fallback).
pub fn compress_parallel(
    data: &[u8],
    cfg: &ParallelConfig,
) -> Result<ParallelReport, ParallelError> {
    compress_parallel_with(data, cfg, &NoFaults)
}

/// [`compress_parallel`] with failpoints active.
///
/// Sites: `parallel.worker.chunk` fires once per per-chunk attempt (so hit
/// counts walk the ladder: retry, then reference fallback); the turbo
/// front-end additionally routes through `turbo.compress.enter` /
/// `turbo.compress.exit` (except when telemetry is on, where the probed
/// compress path is used instead). Injected panics are caught by the
/// worker's unwind isolation and count as `worker_restarts`; injected
/// errors count as `injected_errors`. All fired faults are drained into
/// [`ParallelReport::failures`].
pub fn compress_parallel_with<F: Failpoints>(
    data: &[u8],
    cfg: &ParallelConfig,
    faults: &F,
) -> Result<ParallelReport, ParallelError> {
    cfg.validate()?;
    let chunks: Vec<&[u8]> =
        if data.is_empty() { vec![&[]] } else { data.chunks(cfg.chunk_bytes).collect() };
    let n_chunks = chunks.len();
    // Turbo workers take token buffers back from the stitcher through the
    // freelist, so steady-state chunks allocate nothing.
    let freelist: Mutex<Vec<Vec<Token>>> = Mutex::new(Vec::new());
    let epoch = Instant::now();

    let mut enc = DeflateEncoder::new();
    let mut reports = Vec::with_capacity(n_chunks);
    let mut stitch_timer = cfg.telemetry.then(|| SpanTimer::new(epoch, 0));
    let mut stitcher = StitcherStats::default();
    let mut stitch_error: Option<ParallelError> = None;
    let mut wait_start_us = stitch_timer.as_ref().map_or(0.0, SpanTimer::now_us);
    let work = |st: &mut Worker, i: usize| -> Result<ChunkDone, u64> {
        let start_us = st.timer.as_ref().map_or(0.0, SpanTimer::now_us);
        let mut tokens = Vec::new();
        if cfg.engine == EngineKind::Turbo {
            let popped = freelist.lock().expect("freelist lock").pop();
            if popped.is_some() {
                st.stats.freelist_hits += 1;
            } else {
                st.stats.freelist_misses += 1;
            }
            tokens = popped.unwrap_or_default();
        }
        // Degraded Modelled chunks report 0 cycles.
        let cycles =
            st.compress(i, chunks[i], cfg, "parallel.worker.chunk", false, &mut tokens, faults)?;
        let mut done_us = 0.0;
        if let Some(t) = st.timer.as_mut() {
            let mut args = span_args(frame_span(i as u64), ROOT_SPAN);
            args.push(("bytes", chunks[i].len().into()));
            args.push(("tokens", tokens.len().into()));
            st.stats.busy_s +=
                t.complete(format!("compress chunk {i}"), "compress", start_us, args);
            st.stats.chunks += 1;
            st.stats.input_bytes += chunks[i].len() as u64;
            done_us = t.now_us();
            st.stats.idle_s = ((done_us - st.spawned_us) / 1e6 - st.stats.busy_s).max(0.0);
        }
        Ok(ChunkDone { tokens, cycles, done_us })
    };
    // Stitch: per-chunk block runs, in order, overlapping the workers.
    let stitch = |i: usize, done: Result<ChunkDone, u64>| {
        let done = match done {
            Ok(done) => done,
            Err(attempts) => {
                stitch_error = Some(ParallelError::ChunkFailed { index: i, attempts });
                return false;
            }
        };
        let last = i + 1 == n_chunks;
        if let Some(t) = stitch_timer.as_mut() {
            let frame_id = frame_span(i as u64);
            stitcher.stall_s += t.complete(
                format!("wait chunk {i}"),
                "stall",
                wait_start_us,
                span_args(stage_span(frame_id, 1), frame_id),
            );
            stitcher.queue_wait_s += ((t.now_us() - done.done_us) / 1e6).max(0.0);
            let enc_start_us = t.now_us();
            enc.write_block(&done.tokens, BlockKind::FixedHuffman, last);
            stitcher.encode_s += t.complete(
                format!("encode chunk {i}"),
                "encode",
                enc_start_us,
                span_args(stage_span(frame_id, 0), frame_id),
            );
            wait_start_us = t.now_us();
        } else {
            enc.write_block(&done.tokens, BlockKind::FixedHuffman, last);
        }
        reports.push(ChunkReport {
            index: i,
            input_bytes: chunks[i].len() as u64,
            cycles: done.cycles,
            tokens: done.tokens.len() as u64,
        });
        if cfg.engine == EngineKind::Turbo {
            let mut buf = done.tokens;
            buf.clear();
            let mut list = freelist.lock().expect("freelist lock");
            list.push(buf);
            stitcher.freelist_peak = stitcher.freelist_peak.max(list.len() as u64);
        }
        true
    };
    let workers =
        fan_out(n_chunks, cfg.workers, |w| Worker::new(w, epoch, cfg.telemetry), work, stitch);

    let mut trace_events = stitch_timer.as_mut().map_or_else(Vec::new, SpanTimer::drain);
    let (mut failures, turbo, worker_stats) = Worker::merge(workers, &mut trace_events);
    failures.injected = faults.drain_events();
    if let Some(err) = stitch_error {
        return Err(err);
    }

    let telemetry = stitch_timer.map(|_| {
        let wall_s = epoch.elapsed().as_secs_f64();
        // Root file span: every chunk span parents here, so the whole job
        // renders as one causal tree in chrome://tracing.
        let mut root_args = span_args(ROOT_SPAN, 0);
        root_args.push(("bytes", (data.len() as u64).into()));
        root_args.push(("chunks", (n_chunks as u64).into()));
        trace_events.insert(
            0,
            TraceEvent {
                name: "parallel compress".to_string(),
                cat: "file",
                tid: 0,
                ts_us: 0.0,
                dur_us: wall_s * 1e6,
                args: root_args,
            },
        );
        PipelineTelemetry { wall_s, workers: worker_stats, stitcher, turbo, trace_events }
    });

    // zlib framing: header, the stitched blocks, single Adler trailer.
    let mut compressed = zlib_header(cfg.hw.window_size.max(256), 1).to_vec();
    compressed.extend_from_slice(&enc.finish());
    compressed.extend_from_slice(&adler32(data).to_be_bytes());

    // Makespan on `instances` engines, chunks assigned round-robin.
    let mut engine_load = vec![0u64; cfg.instances];
    for r in &reports {
        engine_load[r.index % cfg.instances] += r.cycles;
    }
    let makespan = engine_load.into_iter().max().unwrap_or(0);
    let total: u64 = reports.iter().map(|r| r.cycles).sum();

    Ok(ParallelReport {
        compressed,
        chunks: reports,
        makespan_cycles: makespan,
        total_cycles: total,
        input_bytes: data.len() as u64,
        telemetry,
        failures,
    })
}

/// One finished LZFC frame waiting for the framed stitcher.
struct FrameDone {
    /// Complete frame bytes: header + stored payload.
    frame: Vec<u8>,
    codec: &'static str,
    cycles: u64,
    tokens: u64,
    encode_us: f64,
    /// Worker pickup time in µs since the run epoch ([`FrameEvent::start_us`]).
    start_us: f64,
}

/// Result of a chunk-parallel framed (LZFC) compression run.
#[derive(Debug, Clone)]
pub struct FramedParallelReport {
    /// The complete LZFC stream (frames + trailer), byte-identical to what
    /// a single-threaded [`lzfpga_container::FrameWriter`] produces with
    /// the same frame size and engine parameters.
    pub framed: Vec<u8>,
    /// Data frames in the stream.
    pub frames: u32,
    /// Input size.
    pub input_bytes: u64,
    /// Per-chunk engine metrics, in frame order.
    pub chunks: Vec<ChunkReport>,
    /// Fault-tolerance ledger (same ladder as [`compress_parallel`]).
    pub failures: FailureReport,
    /// Per-frame telemetry, when [`FrameConfig::collect_events`] was set.
    pub events: Vec<FrameEvent>,
    /// Aggregated turbo-engine match counters (kernel dispatch, match-loop
    /// counts), present when [`ParallelConfig::telemetry`] was set.
    pub counters: Option<TurboCounters>,
    /// Causal chrome://tracing spans (one root file span, one span per
    /// frame, stage children), when [`ParallelConfig::telemetry`] was set.
    /// Empty on plain runs.
    pub trace_events: Vec<TraceEvent>,
}

/// Compress `data` chunk-parallel into one LZFC framed stream: every
/// chunk becomes exactly one independently decodable frame.
///
/// Chunk boundaries *are* frame boundaries — `cfg.chunk_bytes` is ignored
/// in favor of `frame_cfg.frame_bytes`. The output depends only on the
/// frame size and engine parameters, never on worker count or engine kind.
///
/// # Errors
/// [`ParallelError::Config`] for a rejected configuration (frames below
/// 4 KiB or above the container's header range), [`ParallelError::ChunkFailed`]
/// when a frame exhausts the degradation ladder.
pub fn compress_frames_parallel(
    data: &[u8],
    cfg: &ParallelConfig,
    frame_cfg: &FrameConfig,
) -> Result<FramedParallelReport, ParallelError> {
    compress_frames_parallel_with(data, cfg, frame_cfg, &NoFaults)
}

/// [`compress_frames_parallel`] with failpoints active.
///
/// Site `parallel.frame.chunk` fires once per per-frame attempt, walking
/// the same ladder as `parallel.worker.chunk`: retry on the configured
/// engine, then the reference compressor (token-identical, so degraded
/// frames keep the output bytes exact).
pub fn compress_frames_parallel_with<F: Failpoints>(
    data: &[u8],
    cfg: &ParallelConfig,
    frame_cfg: &FrameConfig,
    faults: &F,
) -> Result<FramedParallelReport, ParallelError> {
    if frame_cfg.frame_bytes > lzfpga_container::MAX_FRAME_BYTES {
        return Err(
            ParallelConfigError::FrameTooLarge { frame_bytes: frame_cfg.frame_bytes }.into()
        );
    }
    let eff = ParallelConfig { chunk_bytes: frame_cfg.frame_bytes, ..*cfg };
    eff.validate()?;
    // Unlike the zlib path, an empty input has zero frames (the stream is
    // a bare trailer), matching FrameWriter exactly.
    let chunks: Vec<&[u8]> = data.chunks(eff.chunk_bytes).collect();
    let n_chunks = chunks.len();
    let params = eff.hw.as_lzss_params();
    let epoch = Instant::now();

    let mut framed = Vec::new();
    let mut entries: Vec<IndexEntry> = Vec::with_capacity(n_chunks);
    let mut ustart = 0u64;
    let mut reports = Vec::with_capacity(n_chunks);
    let mut events = Vec::new();
    let mut stitch_error: Option<ParallelError> = None;
    let mut stitch_timer = eff.telemetry.then(|| SpanTimer::new(epoch, 0));
    let mut wait_start_us = stitch_timer.as_ref().map_or(0.0, SpanTimer::now_us);
    let work = |st: &mut Worker, i: usize| -> Result<FrameDone, u64> {
        let t0 = Instant::now();
        let start_us = epoch.elapsed().as_secs_f64() * 1e6;
        let frame_id = frame_span(i as u64);
        let mut buf = Vec::new();
        let cycles =
            st.compress(i, chunks[i], &eff, "parallel.frame.chunk", true, &mut buf, faults)?;
        if let Some(t) = st.timer.as_mut() {
            t.complete(
                format!("tokens frame {i}"),
                "compress",
                start_us,
                span_args(stage_span(frame_id, 0), frame_id),
            );
        }
        let enc_start_us = st.timer.as_ref().map_or(0.0, SpanTimer::now_us);
        let (codec, payload) = payload_from_tokens(&buf, chunks[i], &params);
        let ulen =
            u32::try_from(chunks[i].len()).expect("frame_bytes validated <= MAX_FRAME_BYTES");
        let seq = u32::try_from(i).expect("frame count exceeds u32");
        let header = encode_data_header(seq, codec, ulen, &payload);
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&header);
        frame.extend_from_slice(&payload);
        if let Some(t) = st.timer.as_mut() {
            t.complete(
                format!("encode frame {i}"),
                "encode",
                enc_start_us,
                span_args(stage_span(frame_id, 1), frame_id),
            );
            let mut args = span_args(frame_id, ROOT_SPAN);
            args.push(("bytes", chunks[i].len().into()));
            args.push(("payload_bytes", payload.len().into()));
            t.complete(format!("frame {i}"), "frame", start_us, args);
        }
        Ok(FrameDone {
            frame,
            codec: codec.as_str(),
            cycles,
            tokens: buf.len() as u64,
            encode_us: t0.elapsed().as_secs_f64() * 1e6,
            start_us,
        })
    };
    // Stitch frames in order while later chunks are still compressing.
    let stitch = |i: usize, done: Result<FrameDone, u64>| {
        let done = match done {
            Ok(done) => done,
            Err(attempts) => {
                stitch_error = Some(ParallelError::ChunkFailed { index: i, attempts });
                return false;
            }
        };
        if let Some(t) = stitch_timer.as_mut() {
            let frame_id = frame_span(i as u64);
            t.complete(
                format!("wait frame {i}"),
                "stall",
                wait_start_us,
                span_args(stage_span(frame_id, 4), frame_id),
            );
        }
        let ulen = chunks[i].len() as u64;
        entries.push(IndexEntry { header_start: framed.len() as u64, ustart });
        ustart += ulen;
        framed.extend_from_slice(&done.frame);
        if frame_cfg.collect_events {
            events.push(FrameEvent {
                seq: i as u32,
                uncompressed_bytes: ulen,
                payload_bytes: (done.frame.len() - HEADER_LEN) as u64,
                codec: done.codec,
                crc_us: 0.0,
                encode_us: done.encode_us,
                start_us: done.start_us,
                outcome: FrameOutcome::Written,
            });
        }
        reports.push(ChunkReport {
            index: i,
            input_bytes: ulen,
            cycles: done.cycles,
            tokens: done.tokens,
        });
        wait_start_us = stitch_timer.as_ref().map_or(0.0, SpanTimer::now_us);
        true
    };
    let workers =
        fan_out(n_chunks, eff.workers, |w| Worker::new(w, epoch, eff.telemetry), work, stitch);

    let mut trace_events = stitch_timer.as_mut().map_or_else(Vec::new, SpanTimer::drain);
    let (mut failures, counters, _) = Worker::merge(workers, &mut trace_events);
    failures.injected = faults.drain_events();
    if let Some(err) = stitch_error {
        return Err(err);
    }

    // The causal span tree: stitcher spans + worker spans under one root
    // file span that the frame spans parent to.
    if eff.telemetry {
        let mut root_args = span_args(ROOT_SPAN, 0);
        root_args.push(("bytes", (data.len() as u64).into()));
        root_args.push(("frames", (n_chunks as u64).into()));
        trace_events.insert(
            0,
            TraceEvent {
                name: "frame compress".to_string(),
                cat: "file",
                tid: 0,
                ts_us: 0.0,
                dur_us: epoch.elapsed().as_secs_f64() * 1e6,
                args: root_args,
            },
        );
    }

    // Seek index + trailer, byte-identical to FrameWriter's finalize
    // (which accumulates the CRC incrementally).
    if frame_cfg.index && n_chunks > 0 {
        let section = encode_index_section(&entries, data.len() as u64, framed.len() as u64);
        framed.extend_from_slice(&section);
    }
    let mut crc = Crc32::new();
    crc.update(data);
    framed.extend_from_slice(&encode_trailer(n_chunks as u32, data.len() as u64, crc.finish()));

    Ok(FramedParallelReport {
        framed,
        frames: n_chunks as u32,
        input_bytes: data.len() as u64,
        chunks: reports,
        failures,
        events,
        counters: eff
            .telemetry
            .then_some(counters)
            .filter(|c| c.kernel_runs > 0 || c.literals > 0 || c.matches > 0),
        trace_events,
    })
}

/// Strictly decode an LZFC stream with frame payloads verified and
/// decompressed in parallel (`workers` = 0 uses all cores).
///
/// The serial structure scan comes first — headers are cheap — then the
/// per-frame CRC + decode work (the expensive part) fans out, each frame
/// appended as soon as it and its predecessors are decoded, and the
/// trailer cross-checks run over the reassembled output. Equivalent to
/// [`lzfpga_container::unframe`] on every input, valid or not.
///
/// # Errors
/// Exactly the [`ContainerError`] the serial decoder would report; when
/// several frames are damaged, the lowest-numbered frame's error wins.
pub fn decompress_frames_parallel(bytes: &[u8], workers: usize) -> Result<Vec<u8>, ContainerError> {
    let structure = check_structure(bytes)?;
    let mut out = Vec::new();
    let mut crc = Crc32::new();
    let mut result = Ok(());
    let decode = |_: &mut (), i: usize| decode_frame(bytes, &structure.frames[i]);
    fan_out(
        structure.frames.len(),
        workers,
        |_| (),
        decode,
        |_, decoded| match decoded {
            Ok(data) => {
                crc.update(&data);
                out.extend_from_slice(&data);
                true
            }
            Err(e) => {
                result = Err(e);
                false
            }
        },
    );
    result?;
    finish_stream_checks(&structure, out.len() as u64, crc.finish())?;
    Ok(out)
}

/// Decode exactly the bytes `range.start..range.end` of the stream's
/// original input, fanning the covering frames out across `workers`
/// threads (`workers` = 0 uses all cores).
///
/// The plan comes from [`lzfpga_container::plan_range`]: the seek index
/// when the stream carries a truthful one, a strict structure scan
/// otherwise — either way only the frames covering the range are read,
/// CRC-checked and inflated, so the work is O(frames-in-range) regardless
/// of stream size. The result is byte-identical to
/// `decompress_frames_parallel(bytes)[start..end]` with range ends clamped
/// to the stream's total.
///
/// # Errors
/// The strict decoder's [`ContainerError`] for damaged streams (the
/// lowest-numbered damaged covering frame wins); for degraded serves over
/// damaged streams use [`lzfpga_container::open_indexed`] instead.
pub fn decode_range_parallel(
    bytes: &[u8],
    range: std::ops::Range<u64>,
    workers: usize,
) -> Result<Vec<u8>, ContainerError> {
    decode_range_parallel_with(bytes, range, workers, &NoFaults, &mut FailureReport::default())
}

/// [`decode_range_parallel`] with failpoints active on the decode side.
///
/// Site `parallel.range.frame` fires once per per-frame decode attempt;
/// each frame gets the same bounded ladder the compress side uses (three
/// attempts under [`catch_unwind`], so injected errors count as
/// `injected_errors` and injected panics as `worker_restarts` in
/// `report`), but with no reference rung: `decode_frame` is
/// deterministic, so a real stream error is final on the first attempt
/// that is not injected away. A frame whose every attempt was injected
/// away is reported as [`ContainerError::RangeUnavailable`] at that
/// frame's first uncompressed offset, and its index in the plan lands in
/// `report.failed_chunks` — the bytes could not be produced, and refusing
/// the range is the only answer that never serves wrong bytes.
///
/// # Errors
/// The strict decoder's typed error for damaged streams, or the
/// `RangeUnavailable` refusal described above.
pub fn decode_range_parallel_with<F: Failpoints>(
    bytes: &[u8],
    range: std::ops::Range<u64>,
    workers: usize,
    faults: &F,
    report: &mut FailureReport,
) -> Result<Vec<u8>, ContainerError> {
    let (plan, clamped) = plan_range(bytes, range)?;
    if plan.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity((clamped.end - clamped.start) as usize);
    let mut result = Ok(());
    let decode = |local: &mut FailureReport, i: usize| {
        let rung =
            |_| (!faults.check("parallel.range.frame")).then(|| decode_frame(bytes, &plan[i].0));
        ladder(local, i, false, rung, |_, _| {})
            .unwrap_or(Err(ContainerError::RangeUnavailable { offset: plan[i].1 }))
    };
    let ledgers = fan_out(
        plan.len(),
        workers,
        |_| FailureReport::default(),
        decode,
        |i, decoded| match decoded {
            Ok(data) => {
                // decode_frame verified data.len() == the header's ulen, and
                // the planner verified the header against the frame map —
                // the slice arithmetic cannot go out of bounds.
                let fstart = plan[i].1;
                let fend = fstart + data.len() as u64;
                let lo = (clamped.start.max(fstart) - fstart) as usize;
                let hi = (clamped.end.min(fend) - fstart) as usize;
                out.extend_from_slice(&data[lo..hi]);
                true
            }
            Err(e) => {
                result = Err(e);
                false
            }
        },
    );
    for local in &ledgers {
        report.merge(local);
    }
    result?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lzfpga_core::pipeline::compress_to_zlib;
    use lzfpga_deflate::zlib::zlib_decompress;
    use lzfpga_workloads::{generate, Corpus};

    fn cfg(chunk: usize, workers: usize, instances: usize) -> ParallelConfig {
        ParallelConfig {
            chunk_bytes: chunk,
            workers,
            instances,
            hw: HwConfig::paper_fast(),
            engine: EngineKind::Modelled,
            telemetry: false,
        }
    }

    fn turbo_cfg(chunk: usize, workers: usize) -> ParallelConfig {
        ParallelConfig { engine: EngineKind::Turbo, ..cfg(chunk, workers, 1) }
    }

    #[test]
    fn output_is_valid_zlib() {
        let data = generate(Corpus::Wiki, 5, 700_000);
        let rep = compress_parallel(&data, &cfg(128 * 1024, 0, 4)).unwrap();
        assert_eq!(zlib_decompress(&rep.compressed).unwrap(), data);
        assert_eq!(rep.chunks.len(), 6);
    }

    #[test]
    fn worker_count_never_changes_the_bytes() {
        let data = generate(Corpus::X2e, 9, 400_000);
        let baseline = compress_parallel(&data, &cfg(64 * 1024, 1, 1)).unwrap();
        for workers in [2usize, 3, 8] {
            let rep = compress_parallel(&data, &cfg(64 * 1024, workers, workers)).unwrap();
            assert_eq!(rep.compressed, baseline.compressed, "workers = {workers}");
        }
    }

    #[test]
    fn turbo_engine_is_byte_identical_to_the_model() {
        let data = generate(Corpus::Mixed, 11, 500_000);
        let modelled = compress_parallel(&data, &cfg(64 * 1024, 1, 1)).unwrap();
        for workers in [1usize, 2, 4] {
            let turbo = compress_parallel(&data, &turbo_cfg(64 * 1024, workers)).unwrap();
            assert_eq!(turbo.compressed, modelled.compressed, "workers = {workers}");
        }
    }

    #[test]
    fn turbo_reports_no_cycles() {
        let data = generate(Corpus::Wiki, 3, 100_000);
        let rep = compress_parallel(&data, &turbo_cfg(32 * 1024, 2)).unwrap();
        assert_eq!(rep.total_cycles, 0);
        assert_eq!(rep.makespan_cycles, 0);
        assert!((rep.speedup() - 1.0).abs() < f64::EPSILON);
        assert_eq!(rep.mb_per_s(), 0.0);
    }

    #[test]
    fn single_chunk_matches_the_pipeline_exactly() {
        let data = generate(Corpus::LogLines, 3, 100_000);
        let par = compress_parallel(&data, &cfg(1 << 20, 2, 2)).unwrap();
        let single = compress_to_zlib(&data, &HwConfig::paper_fast());
        assert_eq!(par.compressed, single.compressed);
    }

    #[test]
    fn chunking_costs_a_little_ratio() {
        let data = generate(Corpus::Wiki, 7, 600_000);
        let whole = compress_parallel(&data, &cfg(1 << 20, 0, 1)).unwrap();
        let chopped = compress_parallel(&data, &cfg(16 * 1024, 0, 1)).unwrap();
        assert!(chopped.compressed.len() >= whole.compressed.len());
        // ... but only a little: the dictionary warms up in a few KB.
        assert!(
            (chopped.compressed.len() as f64) < whole.compressed.len() as f64 * 1.10,
            "{} vs {}",
            chopped.compressed.len(),
            whole.compressed.len()
        );
    }

    #[test]
    fn multi_engine_speedup_is_near_linear() {
        let data = generate(Corpus::Wiki, 2, 1_200_000);
        let rep4 = compress_parallel(&data, &cfg(64 * 1024, 0, 4)).unwrap();
        assert!(rep4.speedup() > 3.0, "speedup {}", rep4.speedup());
        assert!(rep4.mb_per_s() > 120.0, "{} MB/s", rep4.mb_per_s());
        let rep1 = compress_parallel(&data, &cfg(64 * 1024, 0, 1)).unwrap();
        assert_eq!(rep1.makespan_cycles, rep1.total_cycles);
    }

    #[test]
    fn empty_input_yields_a_valid_empty_stream() {
        let rep = compress_parallel(b"", &cfg(8 * 1024, 2, 2)).unwrap();
        assert_eq!(zlib_decompress(&rep.compressed).unwrap(), b"");
    }

    #[test]
    fn tiny_chunks_rejected() {
        let err = compress_parallel(b"x", &cfg(1024, 1, 1)).unwrap_err();
        assert!(matches!(
            err,
            ParallelError::Config(ParallelConfigError::ChunkTooSmall { chunk_bytes: 1024 })
        ));
        assert!(err.to_string().contains("below 4 KiB"));
    }

    #[test]
    fn zero_instances_rejected() {
        let err = compress_parallel(b"x", &cfg(8 * 1024, 1, 0)).unwrap_err();
        assert!(matches!(err, ParallelError::Config(ParallelConfigError::NoInstances)));
    }

    #[test]
    fn telemetry_is_opt_in_and_never_changes_the_bytes() {
        let data = generate(Corpus::Mixed, 13, 300_000);
        let plain = compress_parallel(&data, &turbo_cfg(32 * 1024, 3)).unwrap();
        assert!(plain.telemetry.is_none());
        let observed = compress_parallel(
            &data,
            &ParallelConfig { telemetry: true, ..turbo_cfg(32 * 1024, 3) },
        )
        .unwrap();
        assert_eq!(observed.compressed, plain.compressed);
        assert!(observed.telemetry.is_some());
    }

    #[test]
    fn telemetry_accounts_for_every_chunk_and_byte() {
        let data = generate(Corpus::Wiki, 8, 400_000);
        let rep = compress_parallel(
            &data,
            &ParallelConfig { telemetry: true, ..turbo_cfg(64 * 1024, 2) },
        )
        .unwrap();
        let t = rep.telemetry.as_ref().unwrap();

        // Workers: every chunk and input byte shows up exactly once.
        assert_eq!(t.workers.len(), 2);
        assert_eq!(t.workers.iter().map(|w| w.chunks).sum::<u64>(), rep.chunks.len() as u64);
        assert_eq!(t.workers.iter().map(|w| w.input_bytes).sum::<u64>(), data.len() as u64);
        let allocs: u64 = t.workers.iter().map(|w| w.freelist_misses).sum();
        let reuses: u64 = t.workers.iter().map(|w| w.freelist_hits).sum();
        assert_eq!(allocs + reuses, rep.chunks.len() as u64);
        assert!(allocs >= 1, "first chunk per worker must allocate");

        // Turbo counters cover the whole input (chunk dictionaries are
        // independent, so coverage still sums to the input size).
        assert_eq!(t.turbo.covered_bytes(), data.len() as u64);
        let tokens: u64 = rep.chunks.iter().map(|c| c.tokens).sum();
        assert_eq!(t.turbo.literals + t.turbo.matches, tokens);

        // The stitcher encoded every chunk; spans exist for each stage.
        let encode_spans =
            t.trace_events.iter().filter(|e| e.cat == "encode" && e.tid == 0).count();
        assert_eq!(encode_spans, rep.chunks.len());
        let compress_spans = t.trace_events.iter().filter(|e| e.cat == "compress").count();
        assert_eq!(compress_spans, rep.chunks.len());
        assert!(t.trace_events.iter().all(|e| e.dur_us >= 0.0 && e.ts_us >= 0.0));
        assert!(t.wall_s > 0.0);
        assert!(t.stitcher.encode_s > 0.0);
        assert!(t.stitcher.freelist_peak >= 1);
    }

    #[test]
    fn clean_runs_report_no_failures() {
        let data = generate(Corpus::Wiki, 4, 120_000);
        let rep = compress_parallel(&data, &turbo_cfg(32 * 1024, 2)).unwrap();
        assert!(rep.failures.is_clean());
        assert_eq!(rep.failures.attempts, rep.chunks.len() as u64);
    }

    #[test]
    fn injected_worker_panic_still_yields_correct_bytes() {
        use lzfpga_faults::{FailPlan, FailRule};
        // The acceptance drill: 8 chunks on 4 workers, one injected panic.
        let data = generate(Corpus::Mixed, 21, 256_000);
        let clean = compress_parallel(&data, &turbo_cfg(32 * 1024, 4)).unwrap();
        assert_eq!(clean.chunks.len(), 8);

        let plan = FailPlan::new(7).rule(FailRule::new("parallel.worker.chunk").on_hit(3).panics());
        let rep = compress_parallel_with(&data, &turbo_cfg(32 * 1024, 4), &plan).unwrap();
        assert_eq!(rep.compressed, clean.compressed);
        assert_eq!(zlib_decompress(&rep.compressed).unwrap(), data);

        // Exactly the injected fault shows up, nothing else: one panic,
        // one retry that succeeds, no degradation to the reference engine.
        assert_eq!(rep.failures.attempts, 9);
        assert_eq!(rep.failures.retries, 1);
        assert_eq!(rep.failures.worker_restarts, 1);
        assert_eq!(rep.failures.injected_errors, 0);
        assert!(rep.failures.degraded_chunks.is_empty());
        assert!(rep.failures.failed_chunks.is_empty());
        assert_eq!(rep.failures.injected.len(), 1);
        assert_eq!(rep.failures.injected[0].site, "parallel.worker.chunk");
    }

    #[test]
    fn repeated_faults_degrade_a_chunk_to_the_reference_engine() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = generate(Corpus::Wiki, 6, 256_000);
        let clean = compress_parallel(&data, &turbo_cfg(32 * 1024, 1)).unwrap();
        assert_eq!(clean.chunks.len(), 8);

        // Workers = 1 makes the global hit order deterministic: hit 3 is
        // chunk 2's first attempt, hit 4 its retry, so chunk 2 degrades.
        let plan = FailPlan::new(11)
            .rule(FailRule::new("parallel.worker.chunk").on_hit(3).times(2).errors());
        let rep = compress_parallel_with(&data, &turbo_cfg(32 * 1024, 1), &plan).unwrap();
        assert_eq!(rep.compressed, clean.compressed, "reference fallback is token-identical");
        assert_eq!(rep.failures.attempts, 10);
        assert_eq!(rep.failures.retries, 1);
        assert_eq!(rep.failures.injected_errors, 2);
        assert_eq!(rep.failures.degraded_chunks, vec![2]);
        assert!(rep.failures.failed_chunks.is_empty());
        assert_eq!(rep.failures.worker_restarts, 0);
    }

    #[test]
    fn a_chunk_that_fails_every_attempt_fails_the_job() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = generate(Corpus::LogLines, 2, 40_000);
        let plan = FailPlan::new(3)
            .rule(FailRule::new("parallel.worker.chunk").on_hit(1).times(3).errors());
        let err = compress_parallel_with(&data, &turbo_cfg(8 * 1024, 1), &plan).unwrap_err();
        assert!(matches!(err, ParallelError::ChunkFailed { index: 0, attempts: 3 }));
        assert_eq!(err.to_string(), "chunk 0 failed after 3 attempts");
    }

    #[test]
    fn modelled_engine_survives_injected_faults_too() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = generate(Corpus::X2e, 8, 100_000);
        let clean = compress_parallel(&data, &cfg(32 * 1024, 1, 1)).unwrap();
        let plan = FailPlan::new(5).rule(FailRule::new("parallel.worker.chunk").on_hit(2).panics());
        let rep = compress_parallel_with(&data, &cfg(32 * 1024, 1, 1), &plan).unwrap();
        assert_eq!(rep.compressed, clean.compressed);
        assert_eq!(rep.failures.worker_restarts, 1);
        assert_eq!(rep.failures.retries, 1);
    }

    #[test]
    fn modelled_engine_telemetry_reports_worker_time_without_turbo_counters() {
        let data = generate(Corpus::X2e, 5, 150_000);
        let rep =
            compress_parallel(&data, &ParallelConfig { telemetry: true, ..cfg(32 * 1024, 2, 2) })
                .unwrap();
        let t = rep.telemetry.as_ref().unwrap();
        assert!(t.workers.iter().map(|w| w.busy_s).sum::<f64>() > 0.0);
        assert_eq!(t.turbo.covered_bytes(), 0, "modelled path has no turbo probes");
        assert_eq!(t.workers.iter().map(|w| w.freelist_hits + w.freelist_misses).sum::<u64>(), 0);
    }

    #[test]
    fn framed_parallel_matches_the_single_threaded_frame_writer() {
        use lzfpga_container::FrameWriter;
        use std::io::Write as _;
        let data = generate(Corpus::Mixed, 31, 500_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 64 * 1024, collect_events: false, ..FrameConfig::default() };
        let mut w =
            FrameWriter::new(Vec::new(), frame_cfg, HwConfig::paper_fast().as_lzss_params())
                .unwrap();
        w.write_all(&data).unwrap();
        let (serial, _) = w.finish().unwrap();
        for workers in [1usize, 2, 4] {
            let rep = compress_frames_parallel(&data, &turbo_cfg(64 * 1024, workers), &frame_cfg)
                .unwrap();
            assert_eq!(rep.framed, serial, "workers = {workers}");
        }
        // The modelled engine is token-identical, so the frames match too.
        let modelled = compress_frames_parallel(&data, &cfg(64 * 1024, 2, 2), &frame_cfg).unwrap();
        assert_eq!(modelled.framed, serial);
        assert!(modelled.chunks.iter().map(|c| c.cycles).sum::<u64>() > 0);
    }

    #[test]
    fn framed_parallel_roundtrips_through_both_decoders() {
        let data = generate(Corpus::Wiki, 33, 700_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 128 * 1024, collect_events: true, ..FrameConfig::default() };
        let rep = compress_frames_parallel(&data, &turbo_cfg(128 * 1024, 0), &frame_cfg).unwrap();
        assert_eq!(rep.frames, 6);
        assert_eq!(rep.events.len(), 6);
        assert_eq!(lzfpga_container::unframe(&rep.framed).unwrap(), data);
        for workers in [0usize, 1, 3] {
            assert_eq!(
                decompress_frames_parallel(&rep.framed, workers).unwrap(),
                data,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn framed_telemetry_builds_one_causal_span_tree() {
        let data = generate(Corpus::Mixed, 5, 300_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 64 * 1024, collect_events: true, ..FrameConfig::default() };
        let cfg = ParallelConfig { telemetry: true, ..turbo_cfg(64 * 1024, 3) };
        let plain = compress_frames_parallel(&data, &turbo_cfg(64 * 1024, 3), &frame_cfg).unwrap();
        let rep = compress_frames_parallel(&data, &cfg, &frame_cfg).unwrap();
        assert_eq!(rep.framed, plain.framed, "telemetry never changes bytes");
        assert!(plain.trace_events.is_empty());
        assert!(plain.counters.is_none());

        // Counters aggregate the probed engines across all frames.
        let counters = rep.counters.as_ref().expect("telemetry collects counters");
        assert_eq!(counters.covered_bytes(), data.len() as u64);

        // One root span, one frame span per frame parented to it, stage
        // children parented to their frame.
        let span_of = |e: &TraceEvent, key: &str| {
            e.args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| v.as_i64()).unwrap_or(-1)
        };
        let roots: Vec<_> = rep.trace_events.iter().filter(|e| span_of(e, "parent") == 0).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(span_of(roots[0], "span_id"), i64::from(ROOT_SPAN as u32));
        for i in 0..rep.frames as u64 {
            let id = frame_span(i) as i64;
            let frame = rep
                .trace_events
                .iter()
                .find(|e| e.cat == "frame" && span_of(e, "span_id") == id)
                .unwrap_or_else(|| panic!("frame span {i} missing"));
            assert_eq!(span_of(frame, "parent"), i64::from(ROOT_SPAN as u32));
            let children = rep.trace_events.iter().filter(|e| span_of(e, "parent") == id).count();
            assert!(children >= 2, "frame {i} wants tokens+encode stage children");
        }
        // Frame events carry pickup timestamps for serial tree rebuilds.
        assert!(rep.events.iter().all(|e| e.start_us >= 0.0));
    }

    #[test]
    fn framed_parallel_empty_input_is_a_bare_trailer() {
        let frame_cfg = FrameConfig::default();
        let rep = compress_frames_parallel(b"", &turbo_cfg(256 * 1024, 2), &frame_cfg).unwrap();
        assert_eq!(rep.frames, 0);
        assert_eq!(rep.framed.len(), HEADER_LEN);
        assert_eq!(decompress_frames_parallel(&rep.framed, 2).unwrap(), b"");
    }

    #[test]
    fn framed_parallel_survives_injected_panics_byte_exactly() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = generate(Corpus::LogLines, 35, 256_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 32 * 1024, collect_events: false, ..FrameConfig::default() };
        let clean = compress_frames_parallel(&data, &turbo_cfg(32 * 1024, 4), &frame_cfg).unwrap();
        let plan = FailPlan::new(9).rule(FailRule::new("parallel.frame.chunk").on_hit(3).panics());
        let rep = compress_frames_parallel_with(&data, &turbo_cfg(32 * 1024, 4), &frame_cfg, &plan)
            .unwrap();
        assert_eq!(rep.framed, clean.framed);
        assert_eq!(rep.failures.worker_restarts, 1);
        assert_eq!(rep.failures.retries, 1);
        assert_eq!(rep.failures.injected[0].site, "parallel.frame.chunk");
        // A frame that fails every rung fails the job with its index.
        let plan = FailPlan::new(4)
            .rule(FailRule::new("parallel.frame.chunk").on_hit(1).times(3).errors());
        let err = compress_frames_parallel_with(&data, &turbo_cfg(32 * 1024, 1), &frame_cfg, &plan)
            .unwrap_err();
        assert!(matches!(err, ParallelError::ChunkFailed { index: 0, attempts: 3 }));
    }

    #[test]
    fn framed_parallel_rejects_bad_frame_sizes() {
        let small =
            FrameConfig { frame_bytes: 1024, collect_events: false, ..FrameConfig::default() };
        assert!(matches!(
            compress_frames_parallel(b"x", &turbo_cfg(32 * 1024, 1), &small),
            Err(ParallelError::Config(ParallelConfigError::ChunkTooSmall { chunk_bytes: 1024 }))
        ));
        let huge = FrameConfig {
            frame_bytes: lzfpga_container::MAX_FRAME_BYTES + 1,
            collect_events: false,
            ..FrameConfig::default()
        };
        let err = compress_frames_parallel(b"x", &turbo_cfg(32 * 1024, 1), &huge).unwrap_err();
        assert!(err.to_string().contains("MAX_FRAME_BYTES"));
    }

    #[test]
    fn parallel_decode_reports_the_lowest_damaged_frame() {
        let data = generate(Corpus::JsonTelemetry, 37, 300_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 32 * 1024, collect_events: false, ..FrameConfig::default() };
        let rep = compress_frames_parallel(&data, &turbo_cfg(32 * 1024, 2), &frame_cfg).unwrap();
        let spans = lzfpga_container::frame_spans(&rep.framed).unwrap();
        let mut bad = rep.framed.clone();
        bad[spans[2].payload_start] ^= 0x40;
        bad[spans[5].payload_start] ^= 0x40;
        let err = decompress_frames_parallel(&bad, 4).unwrap_err();
        assert!(
            matches!(err, ContainerError::PayloadCrc { seq: 2, .. }),
            "expected frame 2 first, got {err}"
        );
    }

    #[test]
    fn range_decode_ladder_absorbs_faults_and_refuses_exhausted_frames() {
        use lzfpga_faults::{FailPlan, FailRule};
        const FRAME: usize = 16 * 1024;
        let data = generate(Corpus::Mixed, 41, 8 * FRAME);
        let frame_cfg =
            FrameConfig { frame_bytes: FRAME, collect_events: false, ..FrameConfig::default() };
        let framed =
            compress_frames_parallel(&data, &turbo_cfg(FRAME, 1), &frame_cfg).unwrap().framed;
        // Starts inside frame 0, so plan index k is frame k.
        let (start, end) = (1_000u64, (8 * FRAME - 1_000) as u64);
        let want = &data[start as usize..end as usize];
        let decode = |plan: &FailPlan, report: &mut FailureReport| {
            decode_range_parallel_with(&framed, start..end, 1, plan, report)
        };

        // One injected error, then one injected panic, both on frame 3
        // (hits 4 and 5 with one worker): the third attempt serves it.
        let plan = FailPlan::new(3)
            .rule(FailRule::new("parallel.range.frame").on_hit(4).errors())
            .rule(FailRule::new("parallel.range.frame").on_hit(5).panics());
        let mut report = FailureReport::default();
        assert_eq!(decode(&plan, &mut report).unwrap(), want);
        assert_eq!(report.attempts, 8 + 2);
        assert_eq!(report.retries, 1);
        assert_eq!(report.injected_errors, 1);
        assert_eq!(report.worker_restarts, 1);
        assert!(report.degraded_chunks.is_empty(), "the decode ladder has no reference rung");
        assert!(report.failed_chunks.is_empty());

        // Three injected failures on frame 5 exhaust its ladder: the range
        // is refused at the frame's first uncompressed offset.
        let plan = FailPlan::new(5)
            .rule(FailRule::new("parallel.range.frame").on_hit(6).times(3).errors());
        let mut report = FailureReport::default();
        let err = decode(&plan, &mut report).unwrap_err();
        assert_eq!(err, ContainerError::RangeUnavailable { offset: 5 * FRAME as u64 });
        assert_eq!(report.failed_chunks, vec![5]);
        assert_eq!(report.injected_errors, 3);

        // A really damaged covering frame is final on its first attempt:
        // the strict error, and no retry counted.
        let spans = lzfpga_container::frame_spans(&framed).unwrap();
        let mut bad = framed.clone();
        bad[spans[2].payload_start] ^= 0x40;
        let mut report = FailureReport::default();
        let err =
            decode_range_parallel_with(&bad, start..end, 1, &NoFaults, &mut report).unwrap_err();
        assert!(matches!(err, ContainerError::PayloadCrc { seq: 2, .. }), "got {err}");
        assert_eq!(report.retries, 0);
        assert_eq!(report.injected_errors + report.worker_restarts, 0);
        assert!(report.failed_chunks.is_empty());
    }

    #[test]
    fn fan_out_consumes_in_index_order() {
        for workers in [1usize, 2, 8] {
            for n in [0usize, 1, 37] {
                let mut seen = Vec::new();
                // With two or more threads, index 0 waits for the last
                // index, so every other result lands before it.
                let rendezvous = std::sync::Barrier::new(2);
                let work = |ran: &mut usize, i: usize| {
                    if workers.min(n) > 1 && (i == 0 || i == n - 1) {
                        rendezvous.wait();
                    }
                    *ran += 1;
                    i * i
                };
                let states = fan_out(
                    n,
                    workers,
                    |_| 0usize,
                    work,
                    |i, r| {
                        assert_eq!(r, i * i, "result {i} delivered with its own index");
                        seen.push(i);
                        true
                    },
                );
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "workers {workers}, n {n}");
                assert_eq!(states.len(), workers.min(n), "one state per worker");
                assert_eq!(states.iter().sum::<usize>(), n, "every index ran exactly once");
            }
        }
    }

    #[test]
    fn fan_out_consumer_can_stop_delivery() {
        let mut seen = Vec::new();
        let states = fan_out(
            37,
            4,
            |_| 0usize,
            |ran, _| *ran += 1,
            |i, ()| {
                seen.push(i);
                i < 5
            },
        );
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5], "nothing is delivered after a false");
        assert_eq!(states.iter().sum::<usize>(), 37, "the workers drain the queue and join");
    }

    #[test]
    fn fan_out_resumes_a_worker_panic_instead_of_hanging() {
        for workers in [1usize, 2, 8] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    fan_out(
                        37,
                        workers,
                        |_| (),
                        |(), i| assert_ne!(i, 2, "work panicked"),
                        |_, ()| true,
                    )
                }));
                let msg = caught.err().and_then(|p| p.downcast_ref::<String>().cloned());
                tx.send(msg).unwrap();
            });
            let msg = rx.recv_timeout(std::time::Duration::from_secs(60)).expect("fan_out hung");
            assert!(
                msg.is_some_and(|m| m.contains("work panicked")),
                "workers {workers}: the caller gets the worker's panic"
            );
        }
    }

    #[test]
    fn cycle_accounting_sums() {
        let data = generate(Corpus::SensorFrames, 4, 300_000);
        let rep = compress_parallel(&data, &cfg(64 * 1024, 0, 3)).unwrap();
        let sum: u64 = rep.chunks.iter().map(|c| c.cycles).sum();
        assert_eq!(sum, rep.total_cycles);
        assert!(rep.makespan_cycles <= rep.total_cycles);
        assert!(rep.makespan_cycles >= rep.total_cycles / 3);
    }
}
