//! `codec-local`: the in-process library path, plus the serial layer
//! replay of a framed compress and decompress that every traced run
//! (serve's calibration included) attributes codec time with.

use std::io::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use lzfpga_container::{
    check_structure, decode_frame, encode_data_header, encode_index_section, encode_trailer,
    finish_stream_checks, payload_from_tokens, Codec, FrameConfig, FrameSpan, FrameWriter,
    IndexEntry,
};
use lzfpga_core::HwConfig;
use lzfpga_deflate::zlib::{zlib_compress_tokens, zlib_decompress_limited};
use lzfpga_deflate::{adler32, crc32, BlockKind, Crc32, Limits};
use lzfpga_lzss::LzssParams;
use lzfpga_parallel::{
    compress_frames_parallel, decompress_frames_parallel, EngineKind, ParallelConfig,
};
use lzfpga_workloads::Corpus;

use crate::report::{median, ratio, write_blocks, Blocks, Metrics, Outcome};
use crate::util::{
    corpus_bytes, mixed_bytes, model_over, nproc, peak_rss_mb, timed, Tracer, LOAD_THREADS,
};
use crate::{RunArgs, SETUP_REPEATS};

/// Frame size of every framed call in the benchmark.
pub const FRAME_BYTES: usize = 256 << 10;
/// Bytes of each corpus document in the codec-local input.
const SEGMENT_BYTES: usize = 1 << 20;
/// Rounds each fresh process runs: the first is timed for `setup_s`, and
/// the peak resident set is read after the last, once the allocator's
/// per-thread arenas have settled.
const COLD_ROUNDS: usize = 4;

pub fn params() -> LzssParams {
    HwConfig::paper_fast().as_lzss_params()
}

pub fn parallel_config(workers: usize, telemetry: bool) -> ParallelConfig {
    ParallelConfig {
        workers,
        engine: EngineKind::Turbo,
        hw: HwConfig::paper_fast(),
        telemetry,
        ..ParallelConfig::default()
    }
}

pub fn frame_config(frame_bytes: usize) -> FrameConfig {
    FrameConfig { frame_bytes, ..FrameConfig::default() }
}

/// mixed ‖ wiki ‖ x2e-can, 1 MiB each, from `seed`; wiki and x2e-can
/// as 16 snippets of 64 KiB, each from its own sub-seed.
pub fn input(seed: u64) -> Vec<u8> {
    let mut data = mixed_bytes(seed, 0, SEGMENT_BYTES);
    for corpus in [Corpus::Wiki, Corpus::X2e] {
        data.extend(corpus_bytes(corpus, seed, 16, SEGMENT_BYTES / 16));
    }
    data
}

/// The serial `FrameWriter` stream the parallel driver must reproduce.
pub fn frame_writer_oracle(data: &[u8], frame_bytes: usize) -> Result<Vec<u8>, String> {
    let mut w = FrameWriter::new(Vec::new(), frame_config(frame_bytes), params())
        .map_err(|e| format!("FrameWriter: {e}"))?;
    w.write_all(data).map_err(|e| format!("FrameWriter: {e}"))?;
    let (bytes, _) = w.finish().map_err(|e| format!("FrameWriter: {e}"))?;
    Ok(bytes)
}

/// One framed compress, call by call, each public call timed and charged
/// to its layer. Produces the same bytes as `compress_frames_parallel`.
pub fn traced_compress(tr: &mut Tracer, data: &[u8], frame_bytes: usize) -> Vec<u8> {
    let params = params();
    let mut framed = Vec::new();
    let mut entries = Vec::new();
    let mut ustart = 0u64;
    for (i, chunk) in data.chunks(frame_bytes).enumerate() {
        let mut tokens = std::mem::take(&mut tr.tokens);
        tokens.clear();
        let ((), t) = if tr.enabled {
            timed(|| tr.engine.compress_into_probed(chunk, &params, &mut tokens, &mut tr.turbo))
        } else {
            timed(|| tr.engine.compress_into(chunk, &params, &mut tokens))
        };
        tr.charge("lzss.tokenize_s", t);
        tr.tokenized_bytes += chunk.len() as u64;

        let ((codec, payload), t_payload) = timed(|| payload_from_tokens(&tokens, chunk, &params));
        let (_, t_encode) = tr.calibrate(|_| {
            zlib_compress_tokens(&tokens, chunk, BlockKind::FixedHuffman, params.window_size)
        });
        let (_, t_adler) = tr.calibrate(|_| adler32(chunk));
        tr.charge("container.frame_s", t_payload - t_encode);
        tr.charge("deflate.encode_s", t_encode - t_adler);
        tr.charge("deflate.adler32_s", t_adler);
        tr.encoded_bytes += chunk.len() as u64;

        let seq = u32::try_from(i).expect("frame count fits u32");
        let ulen = u32::try_from(chunk.len()).expect("frame fits u32");
        let (header, t_header) = timed(|| encode_data_header(seq, codec, ulen, &payload));
        let (_, t_crc) = tr.calibrate(|_| crc32(&payload));
        tr.charge("container.frame_s", t_header - t_crc);
        tr.charge("deflate.crc32_s", t_crc);

        entries.push(IndexEntry { header_start: framed.len() as u64, ustart });
        ustart += chunk.len() as u64;
        framed.extend_from_slice(&header);
        framed.extend_from_slice(&payload);
        tr.frames += 1;
        tr.raw_frames += u64::from(codec == Codec::Raw);
        tr.tokens = tokens;
    }
    if !entries.is_empty() {
        let (section, t) =
            timed(|| encode_index_section(&entries, data.len() as u64, framed.len() as u64));
        tr.charge("container.frame_s", t);
        framed.extend_from_slice(&section);
    }
    let (crc, t) = timed(|| {
        let mut c = Crc32::new();
        c.update(data);
        c.finish()
    });
    tr.charge("deflate.crc32_s", t);
    let frames = u32::try_from(entries.len()).expect("frame count fits u32");
    let (trailer, t) = timed(|| encode_trailer(frames, data.len() as u64, crc));
    tr.charge("container.frame_s", t);
    framed.extend_from_slice(&trailer);
    framed
}

/// One strict framed decompress, call by call, the same calls
/// `decompress_frames_parallel` and `jobs::decompress_job` make.
pub fn traced_decompress(tr: &mut Tracer, framed: &[u8]) -> Result<Vec<u8>, String> {
    let (structure, t) = timed(|| check_structure(framed));
    tr.charge("container.parse_s", t);
    let structure = structure.map_err(|e| format!("check_structure: {e}"))?;
    let mut out = Vec::new();
    let mut crc = Crc32::new();
    for span in &structure.frames {
        let data = traced_frame(tr, framed, span)?;
        let ((), t) = timed(|| crc.update(&data));
        tr.charge("deflate.crc32_s", t);
        out.extend_from_slice(&data);
    }
    let (checked, t) = timed(|| finish_stream_checks(&structure, out.len() as u64, crc.finish()));
    tr.charge("container.parse_s", t);
    checked.map_err(|e| format!("stream checks: {e}"))?;
    Ok(out)
}

/// `decode_frame` of one frame, split into its CRC, inflate, Adler-32
/// and container self time.
pub fn traced_frame(tr: &mut Tracer, framed: &[u8], span: &FrameSpan) -> Result<Vec<u8>, String> {
    let (data, t_decode) = timed(|| decode_frame(framed, span));
    let data = data.map_err(|e| format!("decode_frame: {e}"))?;
    let payload = &framed[span.payload_start..span.end];
    let (_, t_crc) = tr.calibrate(|_| crc32(payload));
    let (t_inflate, t_adler) = if span.record.codec() == Some(Codec::Raw) {
        (0.0, 0.0)
    } else {
        let limits = Limits::none().with_max_output_bytes(u64::from(span.record.ulen));
        let (_, t_inflate) =
            tr.calibrate(|_| zlib_decompress_limited(payload, &limits).unwrap_or_default());
        let (_, t_adler) = tr.calibrate(|_| adler32(&data));
        tr.inflated_bytes += data.len() as u64;
        (t_inflate, t_adler)
    };
    tr.charge("container.decode_self_s", t_decode - t_crc - t_inflate);
    tr.charge("deflate.inflate_s", t_inflate - t_adler);
    tr.charge("deflate.adler32_s", t_adler);
    tr.charge("deflate.crc32_s", t_crc);
    Ok(data)
}

/// Engine-only rates and work counts from a tracer's counters and the
/// layer totals already in `m`.
pub fn write_codec_counts(tr: &Tracer, m: &mut Metrics) {
    let c = &tr.turbo;
    let kib = tr.tokenized_bytes as f64 / 1024.0;
    m.set("lzss.tokenize_mb_s", ratio(tr.tokenized_bytes as f64 / 1e6, m.get("lzss.tokenize_s")));
    m.set("lzss.probes_per_kb", ratio(c.probes as f64, kib));
    m.set("lzss.kernel_runs_per_kb", ratio(c.kernel_runs as f64, kib));
    m.set("lzss.match_yield", ratio(c.match_bytes as f64, c.kernel_bytes as f64));
    m.set("lzss.match_share", ratio(c.match_bytes as f64, tr.tokenized_bytes as f64));
    m.set("deflate.encode_mb_s", ratio(tr.encoded_bytes as f64 / 1e6, m.get("deflate.encode_s")));
    m.set(
        "deflate.inflate_mb_s",
        ratio(tr.inflated_bytes as f64 / 1e6, m.get("deflate.inflate_s")),
    );
    m.set("container.raw_frame_share", ratio(tr.raw_frames as f64, tr.frames as f64));
}

/// One parallel compress + decompress round: (compress s, decompress s,
/// framed bytes, decompressed bytes).
fn round(data: &[u8], workers: usize) -> Result<(f64, f64, Vec<u8>, Vec<u8>), String> {
    let cfg = parallel_config(workers, false);
    let (framed, tc) = timed(|| compress_frames_parallel(data, &cfg, &frame_config(FRAME_BYTES)));
    let framed = framed.map_err(|e| format!("compress_frames_parallel: {e}"))?.framed;
    let (out, td) = timed(|| decompress_frames_parallel(&framed, workers));
    let out = out.map_err(|e| format!("decompress_frames_parallel: {e}"))?;
    Ok((tc, td, framed, out))
}

/// The input's three corpus documents; one round compresses and
/// decompresses one document, and a pass runs all three in turn.
fn documents(data: &[u8]) -> Vec<&[u8]> {
    data.chunks(SEGMENT_BYTES).collect()
}

/// `perfbench cold --input FILE`: `COLD_ROUNDS` passes over the file in
/// this fresh process; prints the first pass's seconds and the peak
/// resident set in MB.
pub fn cold_main(input: &Path) -> Result<(), String> {
    let data = std::fs::read(input).map_err(|e| format!("{}: {e}", input.display()))?;
    let mut first = None;
    for _ in 0..COLD_ROUNDS {
        let mut pass_s = 0.0;
        for doc in documents(&data) {
            let (tc, td, _, out) = round(doc, LOAD_THREADS)?;
            if out != doc {
                return Err("cold round decompressed wrong bytes".into());
            }
            pass_s += tc + td;
        }
        first.get_or_insert(pass_s);
    }
    let rss = peak_rss_mb("self").ok_or("no VmHWM in /proc/self/status")?;
    println!("{} {rss}", first.unwrap_or_default());
    Ok(())
}

/// `setup_s` and `peak_rss_mb`: medians over `SETUP_REPEATS` fresh
/// `perfbench cold` processes.
fn cold_passes(args: &RunArgs, data: &[u8]) -> Result<(f64, f64), String> {
    let input = args.work_dir.join(format!("cold-{}.bin", std::process::id()));
    std::fs::write(&input, data).map_err(|e| format!("{}: {e}", input.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut secs, mut rss) = (Vec::new(), Vec::new());
    let mut result = Ok(());
    for _ in 0..SETUP_REPEATS {
        let out = match Command::new(&exe).arg("cold").arg("--input").arg(&input).output() {
            Ok(out) => out,
            Err(e) => {
                result = Err(format!("spawning the cold pass: {e}"));
                break;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut fields = text.split_whitespace().map(str::parse::<f64>);
        match (out.status.success(), fields.next(), fields.next()) {
            (true, Some(Ok(s)), Some(Ok(r))) => {
                secs.push(s);
                rss.push(r);
            }
            _ => {
                let stderr = String::from_utf8_lossy(&out.stderr);
                result = Err(format!("cold pass failed: {}", stderr.trim()));
                break;
            }
        }
    }
    let _ = std::fs::remove_file(&input);
    result.map(|()| (median(&secs), median(&rss)))
}

pub fn run(args: &RunArgs, m: &mut Metrics, oc: &mut Outcome) -> Result<(), String> {
    let data = input(args.seed);
    let docs = documents(&data);
    let oracles = docs
        .iter()
        .map(|doc| frame_writer_oracle(doc, FRAME_BYTES))
        .collect::<Result<Vec<_>, _>>()?;
    let model = model_over(data.chunks(FRAME_BYTES));
    m.set("model_cycles_per_byte", model.cycles_per_byte());
    let workers = if args.trace { nproc() } else { LOAD_THREADS };
    eprintln!(
        "codec-local: {} documents of {} bytes (mixed, wiki, x2e-can), {workers} workers, {} KiB \
         frames",
        docs.len(),
        SEGMENT_BYTES,
        FRAME_BYTES >> 10
    );
    if args.trace {
        return run_traced(args, &docs, workers, &oracles, &model, m, oc);
    }
    let (setup_s, rss_mb) = cold_passes(args, &data)?;
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", rss_mb);
    m.set("ratio", ratio(data.len() as f64, oracles.iter().map(Vec::len).sum::<usize>() as f64));

    // One warm-up pass, checked but not timed.
    let mut warm = Blocks::start();
    pass(&docs, &oracles, &mut warm, oc);
    let mut blocks = Blocks::start();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        pass(&docs, &oracles, &mut blocks, oc);
    }
    let blocks = blocks.finish();
    write_blocks(m, &blocks);
    eprintln!(
        "  {} blocks, {} rounds",
        blocks.len(),
        blocks.iter().map(|b| b.latency_ms.len()).sum::<usize>()
    );
    Ok(())
}

/// One pass: a round per document, in turn, each checked against the
/// input and the oracle and recorded in `blocks`. Whole passes, so every
/// document carries the same share of the rounds.
fn pass(docs: &[&[u8]], oracles: &[Vec<u8>], blocks: &mut Blocks, oc: &mut Outcome) {
    for (&doc, oracle) in docs.iter().zip(oracles) {
        oc.attempted += 2;
        match round(doc, LOAD_THREADS) {
            Ok((c, d, framed, out)) => {
                let mb = doc.len() as f64 / 1e6;
                let b = blocks.cur();
                b.ops += 2;
                b.mb += 2.0 * mb;
                b.latency_ms.push((c + d) * 1e3);
                b.compress.0 += mb;
                b.compress.1 += c;
                b.decompress.0 += mb;
                b.decompress.1 += d;
                if framed != *oracle {
                    oc.failed += 1;
                    oc.problems
                        .push("parallel framed bytes differ from the FrameWriter oracle".into());
                }
                if out != doc {
                    oc.failed += 1;
                    oc.problems.push("decompressed bytes differ from the input".into());
                }
            }
            Err(e) => {
                oc.failed += 2;
                oc.problems.push(e);
            }
        }
        blocks.tick();
    }
}

fn run_traced(
    args: &RunArgs,
    docs: &[&[u8]],
    workers: usize,
    oracles: &[Vec<u8>],
    model: &crate::util::ModelTally,
    m: &mut Metrics,
    oc: &mut Outcome,
) -> Result<(), String> {
    let mut traced = Tracer::new(true);
    let mut plain = Tracer::new(false);
    let (mut plain_c, mut plain_d, mut par_c, mut par_d) = (0.0, 0.0, 0.0, 0.0);
    let (mut plain_wall, mut traced_wall, mut rounds) = (0.0, 0.0, 0u64);
    let (mut busy, mut stitch) = (0.0, 0.0);
    let telemetry_cfg = parallel_config(workers, true);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while rounds == 0 || Instant::now() < deadline {
        for (&doc, oracle) in docs.iter().zip(oracles) {
            // The untimed replay (no calibration, no probe) and the traced
            // one, in alternating order so neither always runs on warmer
            // caches.
            let mut order = [&mut plain, &mut traced];
            if rounds % 2 == 1 {
                order.reverse();
            }
            for t in order {
                let before = t.excluded_s();
                let (framed, t1) = timed(|| traced_compress(t, doc, FRAME_BYTES));
                let (out, t2) = timed(|| traced_decompress(t, &framed));
                let wall = t1 + t2 - (t.excluded_s() - before);
                if t.enabled {
                    traced_wall += wall;
                } else {
                    plain_c += t1;
                    plain_d += t2;
                    plain_wall += wall;
                }
                oc.attempted += 2;
                oc.failed += u64::from(framed != *oracle) + u64::from(out.as_deref() != Ok(doc));
            }

            // The parallel drivers, untraced and with their own telemetry.
            let (c, d, framed, out) = round(doc, workers)?;
            par_c += c;
            par_d += d;
            oc.attempted += 2;
            oc.failed += u64::from(framed != *oracle) + u64::from(out != doc);
            let (rep, t) =
                timed(|| compress_frames_parallel(doc, &telemetry_cfg, &frame_config(FRAME_BYTES)));
            let rep = rep.map_err(|e| format!("compress_frames_parallel: {e}"))?;
            oc.attempted += 1;
            oc.failed += u64::from(rep.framed != *oracle);
            let (frame_us, stall_us) =
                rep.trace_events.iter().fold((0.0, 0.0), |(f, s), e| match e.cat {
                    "frame" => (f + e.dur_us, s),
                    "stall" => (f, s + e.dur_us),
                    _ => (f, s),
                });
            busy += ratio(frame_us / 1e6, workers.min(rep.frames as usize) as f64 * t);
            stitch += stall_us / 1e6;
            rounds += 1;
        }
    }
    if oc.failed > 0 {
        oc.problems.push("a replayed or parallel round produced wrong bytes".into());
    }
    let n = rounds as f64;
    *m = std::mem::take(&mut traced.m);
    write_codec_counts(&traced, m);
    m.set("container.frames", traced.frames as f64 / n);
    crate::util::close_ledger(m, traced_wall, n, &mut oc.problems);
    m.set("ledger.trace_overhead_frac", traced_wall / plain_wall - 1.0);
    let cs = ratio(plain_c, par_c);
    m.set("parallel.compress_speedup", cs);
    m.set("parallel.decompress_speedup", ratio(plain_d, par_d));
    m.set("parallel.efficiency", cs / workers as f64);
    m.set("parallel.worker_busy_frac", busy / n);
    m.set("parallel.stitch_wait_s", stitch / n);
    model.write(m);
    eprintln!("  {rounds} traced rounds, {workers} workers");
    Ok(())
}
