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
//! Host-side parallelism uses `std::thread::scope` with a shared atomic
//! work queue (no work stealing needed — chunks are uniform). The stitcher
//! runs on the calling thread and consumes chunk results *in order as they
//! land*, so the Deflate bit-packing of chunk `i` overlaps the matching of
//! chunks `i+1..` — a two-stage software pipeline mirroring the paper's
//! matcher→Huffman FIFO decoupling.
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
//! **Fault tolerance.** Every per-chunk compression attempt runs under
//! [`std::panic::catch_unwind`], so a crashing engine (or an injected
//! failpoint panic) never takes the job down. A failed chunk climbs a
//! degradation ladder: retry once on the same engine, then fall back to
//! the single-threaded reference compressor — which is token-identical to
//! both front-ends, so the output bytes stay bit-exact even for degraded
//! chunks. Only a chunk that fails all three attempts fails the job, with
//! a typed [`ParallelError::ChunkFailed`]. Every recovery action lands in
//! the job's [`FailureReport`] (`ParallelReport::failures`). Failpoints
//! ([`compress_parallel_with`]) use the same zero-cost-generic pattern as
//! the telemetry probes: production callers pay nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
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
use lzfpga_faults::{Failpoints, FailureReport, InjectedFault, NoFaults};
use lzfpga_lzss::TurboEngine;
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

/// One finished chunk waiting for the stitcher.
struct ChunkDone {
    tokens: Vec<Token>,
    cycles: u64,
    /// Completion time in µs since the run epoch (0 when telemetry is off);
    /// lets the stitcher measure how long the chunk sat in the queue.
    done_us: f64,
}

/// What a worker files into a chunk's slot.
enum SlotState {
    /// The chunk compressed (possibly after retries/degradation).
    Done(ChunkDone),
    /// All three ladder attempts failed.
    Failed {
        /// Attempts consumed on this chunk.
        attempts: u64,
    },
}

type Slot = Option<SlotState>;

/// What one worker hands back for the telemetry report.
type WorkerYield = (WorkerStats, TurboCounters, Vec<TraceEvent>);

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
    params: &lzfpga_lzss::LzssParams,
    site: &str,
    faults: &F,
    report: &mut FailureReport,
    index: usize,
) -> Result<Vec<Token>, u64> {
    let mut buf: Vec<Token> = Vec::new();
    let mut attempts = 0u64;
    for attempt in 0..3u32 {
        attempts += 1;
        report.attempts += 1;
        match attempt {
            1 => report.retries += 1,
            2 => {
                report.degraded_chunks.push(index);
                report.degraded_chunks.sort_unstable();
            }
            _ => {}
        }
        // Same unwind-isolation soundness argument as the pipeline
        // workers: buf is cleared on entry and the turbo engine re-zeroes
        // its arenas per call, so a mid-compress panic poisons nothing.
        let result = catch_unwind(AssertUnwindSafe(|| -> Result<(), InjectedFault> {
            buf.clear();
            if attempt == 2 {
                buf = lzfpga_lzss::compress(chunk, params);
                return Ok(());
            }
            if faults.check(site) {
                return Err(InjectedFault { site: "ladder" });
            }
            turbo.compress_into_faulty(chunk, params, &mut buf, faults)?;
            Ok(())
        }));
        match result {
            Ok(Ok(())) => return Ok(buf),
            Ok(Err(_injected)) => report.injected_errors += 1,
            Err(_panic) => report.worker_restarts += 1,
        }
    }
    report.failed_chunks.push(index);
    report.failed_chunks.sort_unstable();
    Err(attempts)
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
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        cfg.workers
    }
    .clamp(1, n_chunks);

    // Workers pull chunk indices from a shared atomic counter and file the
    // token stream into its index's slot; the stitcher (this thread) waits
    // on the condvar for the next in-order slot and encodes it while later
    // chunks are still being matched. Turbo workers recycle token buffers
    // through the freelist, so steady-state chunks allocate nothing.
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Slot>> = Mutex::new((0..n_chunks).map(|_| None).collect());
    let ready = Condvar::new();
    let freelist: Mutex<Vec<Vec<Token>>> = Mutex::new(Vec::new());
    let params = cfg.hw.as_lzss_params();
    let epoch = Instant::now();
    let worker_yields: Mutex<Vec<WorkerYield>> = Mutex::new(Vec::new());
    let failure_acc: Mutex<FailureReport> = Mutex::new(FailureReport::default());

    let mut enc = DeflateEncoder::new();
    let mut reports = Vec::with_capacity(n_chunks);
    let mut stitch_timer = cfg.telemetry.then(|| SpanTimer::new(epoch, 0));
    let mut stitcher = StitcherStats::default();
    let mut stitch_error: Option<ParallelError> = None;
    std::thread::scope(|s| {
        for w in 0..workers {
            let (next, slots, ready, freelist, params, chunks, worker_yields, failure_acc) =
                (&next, &slots, &ready, &freelist, &params, &chunks, &worker_yields, &failure_acc);
            s.spawn(move || {
                let mut turbo = TurboEngine::new();
                let mut counters = TurboCounters::default();
                let mut stats = WorkerStats { worker: w, ..WorkerStats::default() };
                let mut timer = cfg.telemetry.then(|| SpanTimer::new(epoch, w as u32 + 1));
                let spawned_us = timer.as_ref().map_or(0.0, SpanTimer::now_us);
                let mut local = FailureReport::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    let start_us = timer.as_ref().map_or(0.0, SpanTimer::now_us);
                    let popped = if cfg.engine == EngineKind::Turbo {
                        let popped = freelist.lock().expect("freelist lock").pop();
                        if popped.is_some() {
                            stats.freelist_hits += 1;
                        } else {
                            stats.freelist_misses += 1;
                        }
                        popped
                    } else {
                        None
                    };
                    let mut buf = popped.unwrap_or_default();

                    // Degradation ladder: attempt 0 on the configured
                    // engine, attempt 1 retries it, attempt 2 falls back
                    // to the reference compressor (token-identical, so
                    // the output bytes do not change; cycle counts for a
                    // degraded Modelled chunk read 0).
                    let mut outcome: Option<u64> = None;
                    let mut chunk_attempts = 0u64;
                    for attempt in 0..3u32 {
                        chunk_attempts += 1;
                        local.attempts += 1;
                        match attempt {
                            1 => local.retries += 1,
                            2 => local.degraded_chunks.push(i),
                            _ => {}
                        }
                        // The buffer and engine cross the unwind boundary,
                        // which is sound here: `buf` is cleared on entry and
                        // the turbo engine re-zeroes its arenas per call, so
                        // a mid-compress panic leaves no poisoned state.
                        let result =
                            catch_unwind(AssertUnwindSafe(|| -> Result<u64, InjectedFault> {
                                if faults.check("parallel.worker.chunk") {
                                    return Err(InjectedFault { site: "parallel.worker.chunk" });
                                }
                                buf.clear();
                                if attempt == 2 {
                                    buf = lzfpga_lzss::compress(chunks[i], params);
                                    return Ok(0);
                                }
                                match cfg.engine {
                                    EngineKind::Modelled => {
                                        let rep = HwCompressor::new(cfg.hw).compress(chunks[i]);
                                        buf = rep.tokens;
                                        Ok(rep.cycles)
                                    }
                                    EngineKind::Turbo => {
                                        if cfg.telemetry {
                                            turbo.compress_into_probed(
                                                chunks[i],
                                                params,
                                                &mut buf,
                                                &mut counters,
                                            );
                                        } else {
                                            turbo.compress_into_faulty(
                                                chunks[i], params, &mut buf, faults,
                                            )?;
                                        }
                                        Ok(0)
                                    }
                                }
                            }));
                        match result {
                            Ok(Ok(cycles)) => {
                                outcome = Some(cycles);
                                break;
                            }
                            Ok(Err(_injected)) => local.injected_errors += 1,
                            Err(_panic) => local.worker_restarts += 1,
                        }
                    }

                    let Some(cycles) = outcome else {
                        local.failed_chunks.push(i);
                        slots.lock().expect("slot lock")[i] =
                            Some(SlotState::Failed { attempts: chunk_attempts });
                        ready.notify_all();
                        continue;
                    };
                    let tokens = buf;
                    let done_us = if let Some(t) = timer.as_mut() {
                        let mut args = span_args(frame_span(i as u64), ROOT_SPAN);
                        args.push(("bytes", chunks[i].len().into()));
                        args.push(("tokens", tokens.len().into()));
                        stats.busy_s +=
                            t.complete(format!("compress chunk {i}"), "compress", start_us, args);
                        stats.chunks += 1;
                        stats.input_bytes += chunks[i].len() as u64;
                        t.now_us()
                    } else {
                        0.0
                    };
                    slots.lock().expect("slot lock")[i] =
                        Some(SlotState::Done(ChunkDone { tokens, cycles, done_us }));
                    ready.notify_all();
                }
                failure_acc.lock().expect("failure lock").merge(&local);
                if let Some(mut t) = timer {
                    let lifetime_s = (t.now_us() - spawned_us) / 1e6;
                    stats.idle_s = (lifetime_s - stats.busy_s).max(0.0);
                    worker_yields.lock().expect("telemetry lock").push((
                        stats,
                        counters,
                        t.drain(),
                    ));
                }
            });
        }

        // Stitch: per-chunk block runs, in order, overlapping the workers.
        for (i, chunk) in chunks.iter().enumerate() {
            let wait_start_us = stitch_timer.as_ref().map_or(0.0, SpanTimer::now_us);
            let state = {
                let mut guard = slots.lock().expect("slot lock");
                loop {
                    if let Some(state) = guard[i].take() {
                        break state;
                    }
                    guard = ready.wait(guard).expect("slot lock");
                }
            };
            let done = match state {
                SlotState::Done(done) => done,
                SlotState::Failed { attempts } => {
                    // Workers keep draining the remaining chunk indices so
                    // the scope joins promptly; the job reports the first
                    // failed chunk.
                    stitch_error = Some(ParallelError::ChunkFailed { index: i, attempts });
                    break;
                }
            };
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
                enc.write_block(&done.tokens, BlockKind::FixedHuffman, i + 1 == n_chunks);
                stitcher.encode_s += t.complete(
                    format!("encode chunk {i}"),
                    "encode",
                    enc_start_us,
                    span_args(stage_span(frame_id, 0), frame_id),
                );
            } else {
                enc.write_block(&done.tokens, BlockKind::FixedHuffman, i + 1 == n_chunks);
            }
            reports.push(ChunkReport {
                index: i,
                input_bytes: chunk.len() as u64,
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
        }
    });

    let mut failures = failure_acc.into_inner().expect("failure lock");
    failures.injected = faults.drain_events();
    if let Some(err) = stitch_error {
        return Err(err);
    }

    let telemetry = stitch_timer.map(|mut t| {
        let mut yields = worker_yields.into_inner().expect("telemetry lock");
        yields.sort_by_key(|(stats, _, _)| stats.worker);
        let mut turbo = TurboCounters::default();
        let mut trace_events = t.drain();
        let mut worker_stats = Vec::with_capacity(yields.len());
        for (stats, counters, events) in yields {
            turbo.merge(&counters);
            trace_events.extend(events);
            worker_stats.push(stats);
        }
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
    let workers = if eff.workers == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        eff.workers
    }
    .clamp(1, n_chunks.max(1));

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<FrameDone, u64>>>> =
        Mutex::new((0..n_chunks).map(|_| None).collect());
    let ready = Condvar::new();
    let params = eff.hw.as_lzss_params();
    let epoch = Instant::now();
    let failure_acc: Mutex<FailureReport> = Mutex::new(FailureReport::default());
    let counter_acc: Mutex<TurboCounters> = Mutex::new(TurboCounters::default());
    let trace_acc: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

    let mut framed = Vec::new();
    let mut entries: Vec<IndexEntry> = Vec::with_capacity(n_chunks);
    let mut ustart = 0u64;
    let mut reports = Vec::with_capacity(n_chunks);
    let mut events = Vec::new();
    let mut stitch_error: Option<ParallelError> = None;
    let mut stitch_timer = eff.telemetry.then(|| SpanTimer::new(epoch, 0));
    std::thread::scope(|s| {
        for w in 0..workers.min(n_chunks) {
            let (next, slots, ready, params, chunks, failure_acc, counter_acc, trace_acc) =
                (&next, &slots, &ready, &params, &chunks, &failure_acc, &counter_acc, &trace_acc);
            s.spawn(move || {
                let mut turbo = TurboEngine::new();
                let mut counters = eff.telemetry.then(TurboCounters::default);
                let mut timer = eff.telemetry.then(|| SpanTimer::new(epoch, w as u32 + 1));
                let mut local = FailureReport::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    let t0 = Instant::now();
                    let start_us = epoch.elapsed().as_secs_f64() * 1e6;
                    let frame_id = frame_span(i as u64);
                    let mut buf: Vec<Token> = Vec::new();
                    let mut outcome: Option<u64> = None;
                    let mut chunk_attempts = 0u64;
                    for attempt in 0..3u32 {
                        chunk_attempts += 1;
                        local.attempts += 1;
                        match attempt {
                            1 => local.retries += 1,
                            2 => local.degraded_chunks.push(i),
                            _ => {}
                        }
                        let attempt_start_us = timer.as_ref().map_or(0.0, SpanTimer::now_us);
                        // Same unwind-isolation soundness argument as the
                        // zlib path: buf is cleared on entry and the turbo
                        // engine re-zeroes its arenas per call.
                        let result =
                            catch_unwind(AssertUnwindSafe(|| -> Result<u64, InjectedFault> {
                                if faults.check("parallel.frame.chunk") {
                                    return Err(InjectedFault { site: "parallel.frame.chunk" });
                                }
                                buf.clear();
                                if attempt == 2 {
                                    buf = lzfpga_lzss::compress(chunks[i], params);
                                    return Ok(0);
                                }
                                match eff.engine {
                                    EngineKind::Modelled => {
                                        let rep = HwCompressor::new(eff.hw).compress(chunks[i]);
                                        buf = rep.tokens;
                                        Ok(rep.cycles)
                                    }
                                    EngineKind::Turbo => {
                                        if let Some(c) = counters.as_mut() {
                                            turbo.compress_into_probed(
                                                chunks[i], params, &mut buf, c,
                                            );
                                        } else {
                                            turbo.compress_into_faulty(
                                                chunks[i], params, &mut buf, faults,
                                            )?;
                                        }
                                        Ok(0)
                                    }
                                }
                            }));
                        match result {
                            Ok(Ok(cycles)) => {
                                outcome = Some(cycles);
                                break;
                            }
                            Ok(Err(_injected)) => {
                                local.injected_errors += 1;
                                if let Some(t) = timer.as_mut() {
                                    // Failed attempts stay on the frame's
                                    // branch of the span tree, so injected
                                    // faults are visible in the causal view.
                                    t.complete(
                                        format!("fault frame {i} attempt {attempt}"),
                                        "fault",
                                        attempt_start_us,
                                        span_args(stage_span(frame_id, 8 + attempt), frame_id),
                                    );
                                }
                            }
                            Err(_panic) => {
                                local.worker_restarts += 1;
                                if let Some(t) = timer.as_mut() {
                                    t.complete(
                                        format!("panic frame {i} attempt {attempt}"),
                                        "fault",
                                        attempt_start_us,
                                        span_args(stage_span(frame_id, 8 + attempt), frame_id),
                                    );
                                }
                            }
                        }
                    }
                    let state = match outcome {
                        Some(cycles) => {
                            if let Some(t) = timer.as_mut() {
                                t.complete(
                                    format!("tokens frame {i}"),
                                    "compress",
                                    start_us,
                                    span_args(stage_span(frame_id, 0), frame_id),
                                );
                            }
                            let enc_start_us = timer.as_ref().map_or(0.0, SpanTimer::now_us);
                            let (codec, payload) = payload_from_tokens(&buf, chunks[i], params);
                            let payload_len = payload.len();
                            let ulen = u32::try_from(chunks[i].len())
                                .expect("frame_bytes validated <= MAX_FRAME_BYTES");
                            let seq = u32::try_from(i).expect("frame count exceeds u32");
                            let header = encode_data_header(seq, codec, ulen, &payload);
                            let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
                            frame.extend_from_slice(&header);
                            frame.extend_from_slice(&payload);
                            if let Some(t) = timer.as_mut() {
                                t.complete(
                                    format!("encode frame {i}"),
                                    "encode",
                                    enc_start_us,
                                    span_args(stage_span(frame_id, 1), frame_id),
                                );
                                let mut args = span_args(frame_id, ROOT_SPAN);
                                args.push(("bytes", chunks[i].len().into()));
                                args.push(("payload_bytes", payload_len.into()));
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
                        }
                        None => {
                            local.failed_chunks.push(i);
                            Err(chunk_attempts)
                        }
                    };
                    slots.lock().expect("slot lock")[i] = Some(state);
                    ready.notify_all();
                }
                failure_acc.lock().expect("failure lock").merge(&local);
                if let Some(c) = counters {
                    counter_acc.lock().expect("counter lock").merge(&c);
                }
                if let Some(mut t) = timer {
                    trace_acc.lock().expect("trace lock").extend(t.drain());
                }
            });
        }

        // Stitch frames in order while later chunks are still compressing.
        for (i, chunk) in chunks.iter().enumerate() {
            let wait_start_us = stitch_timer.as_ref().map_or(0.0, SpanTimer::now_us);
            let state = {
                let mut guard = slots.lock().expect("slot lock");
                loop {
                    if let Some(state) = guard[i].take() {
                        break state;
                    }
                    guard = ready.wait(guard).expect("slot lock");
                }
            };
            let done = match state {
                Ok(done) => done,
                Err(attempts) => {
                    stitch_error = Some(ParallelError::ChunkFailed { index: i, attempts });
                    break;
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
            entries.push(IndexEntry { header_start: framed.len() as u64, ustart });
            ustart += chunk.len() as u64;
            framed.extend_from_slice(&done.frame);
            if frame_cfg.collect_events {
                events.push(FrameEvent {
                    seq: i as u32,
                    uncompressed_bytes: chunk.len() as u64,
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
                input_bytes: chunk.len() as u64,
                cycles: done.cycles,
                tokens: done.tokens,
            });
        }
    });

    let mut failures = failure_acc.into_inner().expect("failure lock");
    failures.injected = faults.drain_events();
    if let Some(err) = stitch_error {
        return Err(err);
    }

    // Assemble the causal span tree: stitcher spans + worker spans under
    // one root file span that the frame spans parent to.
    let trace_events = match stitch_timer {
        Some(mut t) => {
            let mut list = t.drain();
            list.extend(trace_acc.into_inner().expect("trace lock"));
            let mut root_args = span_args(ROOT_SPAN, 0);
            root_args.push(("bytes", (data.len() as u64).into()));
            root_args.push(("frames", (n_chunks as u64).into()));
            list.insert(
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
            list
        }
        None => Vec::new(),
    };

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
            .then(|| counter_acc.into_inner().expect("counter lock"))
            .filter(|c| c.kernel_runs > 0 || c.literals > 0 || c.matches > 0),
        trace_events,
    })
}

/// Strictly decode an LZFC stream with frame payloads verified and
/// decompressed in parallel (`workers` = 0 uses all cores).
///
/// The serial structure scan comes first — headers are cheap — then the
/// per-frame CRC + decode work (the expensive part) fans out, and the
/// trailer cross-checks run over the reassembled output. Equivalent to
/// [`lzfpga_container::unframe`] on every input, valid or not.
///
/// # Errors
/// Exactly the [`ContainerError`] the serial decoder would report; when
/// several frames are damaged, the lowest-numbered frame's error wins.
pub fn decompress_frames_parallel(bytes: &[u8], workers: usize) -> Result<Vec<u8>, ContainerError> {
    let structure = check_structure(bytes)?;
    let n = structure.frames.len();
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(4, |w| w.get())
    } else {
        workers
    }
    .clamp(1, n.max(1));

    type DecodeSlot = Option<Result<Vec<u8>, ContainerError>>;
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<DecodeSlot>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            let (next, slots, structure) = (&next, &slots, &structure);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let decoded = decode_frame(bytes, &structure.frames[i]);
                slots.lock().expect("slot lock")[i] = Some(decoded);
            });
        }
    });

    let slots = slots.into_inner().expect("slot lock");
    let mut out = Vec::new();
    let mut crc = Crc32::new();
    for slot in slots {
        let data = slot.expect("every frame index was claimed")?;
        crc.update(&data);
        out.extend_from_slice(&data);
    }
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
/// `report`). A frame whose every attempt was injected away is reported
/// as [`ContainerError::RangeUnavailable`] at that frame's first
/// uncompressed offset — the bytes could not be produced, and refusing
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
    let n = plan.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(4, |w| w.get())
    } else {
        workers
    }
    .clamp(1, n);

    type DecodeSlot = Option<Result<Vec<u8>, ContainerError>>;
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<DecodeSlot>> = Mutex::new((0..n).map(|_| None).collect());
    let failure_acc: Mutex<&mut FailureReport> = Mutex::new(report);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (next, slots, plan, failure_acc) = (&next, &slots, &plan, &failure_acc);
            s.spawn(move || {
                let mut local = FailureReport::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // The decode-side ladder: three attempts, each behind
                    // the failpoint and an unwind boundary. decode_frame
                    // itself is deterministic, so a real stream error is
                    // final on the first non-injected attempt.
                    let mut decoded: DecodeSlot = None;
                    for attempt in 0..3u32 {
                        local.attempts += 1;
                        if attempt == 1 {
                            local.retries += 1;
                        }
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            if faults.check("parallel.range.frame") {
                                return Err(());
                            }
                            Ok(decode_frame(bytes, &plan[i].0))
                        }));
                        match result {
                            Ok(Ok(r)) => {
                                decoded = Some(r);
                                break;
                            }
                            Ok(Err(())) => local.injected_errors += 1,
                            Err(_panic) => local.worker_restarts += 1,
                        }
                    }
                    let decoded = decoded.unwrap_or_else(|| {
                        local.failed_chunks.push(i);
                        Err(ContainerError::RangeUnavailable { offset: plan[i].1 })
                    });
                    slots.lock().expect("slot lock")[i] = Some(decoded);
                }
                local.failed_chunks.sort_unstable();
                failure_acc.lock().expect("failure lock").merge(&local);
            });
        }
    });

    let slots = slots.into_inner().expect("slot lock");
    let mut out = Vec::with_capacity((clamped.end - clamped.start) as usize);
    for (slot, &(_, fstart)) in slots.into_iter().zip(&plan) {
        let data = slot.expect("every frame index was claimed")?;
        // decode_frame verified data.len() == the header's ulen, and the
        // planner verified the header against the frame map — the slice
        // arithmetic below cannot go out of bounds.
        let fend = fstart + data.len() as u64;
        let lo = (clamped.start.max(fstart) - fstart) as usize;
        let hi = (clamped.end.min(fend) - fstart) as usize;
        out.extend_from_slice(&data[lo..hi]);
    }
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
    fn cycle_accounting_sums() {
        let data = generate(Corpus::SensorFrames, 4, 300_000);
        let rep = compress_parallel(&data, &cfg(64 * 1024, 0, 3)).unwrap();
        let sum: u64 = rep.chunks.iter().map(|c| c.cycles).sum();
        assert_eq!(sum, rep.total_cycles);
        assert!(rep.makespan_cycles <= rep.total_cycles);
        assert!(rep.makespan_cycles >= rep.total_cycles / 3);
    }
}
