//! `serve-mixed`: the real `lzfpga serve` daemon under a closed loop of
//! one blocking `server::Client` connection, and an in-process replay
//! of the same request log for the layer ledger.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lzfpga_container::{check_structure, open_indexed};
use lzfpga_core::HwConfig;
use lzfpga_deflate::crc32;
use lzfpga_faults::NoFaults;
use lzfpga_parallel::compress_frames_parallel;
use lzfpga_server::jobs::{compress_job, decompress_job, range_job};
use lzfpga_server::proto::{
    encode_request, encode_response, parse_request, parse_response, read_message, MAX_WIRE_BYTES,
};
use lzfpga_server::store::durable_compress;
use lzfpga_server::{
    Admission, Client, JobLedger, QuotaConfig, Request, RequestCtl, Response, SessionOp,
    SessionStore,
};
use lzfpga_telemetry::JsonValue;

use crate::codec::{
    frame_config, parallel_config, params, traced_compress, traced_frame, write_codec_counts,
    FRAME_BYTES,
};
use crate::report::{median, ratio, write_blocks, Block, Blocks, Metrics, Outcome};
use crate::util::{
    mixed_bytes, model_over, peak_rss_mb, timed, Rng, Tracer, LOAD_THREADS, MIXED_SEGMENT,
};
use crate::{RunArgs, SETUP_REPEATS};

/// Request size classes and how many distinct inputs each has. The 4 KiB
/// and 64 KiB counts are whole cycles of the `mixed` recipe's interleave
/// (10 segments), so their inputs hold its exact shares.
const SIZES: [usize; 3] = [4 << 10, 64 << 10, 1 << 20];
const TEMPLATES: [usize; 3] = [60, 30, 4];
/// One schedule cycle of 40 requests: (size class, compress, decompress,
/// range) counts, so every 40 requests hold exactly 60% / 30% / 10% by
/// size and 50% / 25% / 25% by kind.
const CYCLE: [(usize, usize, usize, usize); 3] = [(0, 12, 6, 6), (1, 6, 3, 3), (2, 2, 1, 1)];
/// Schedule length: 24 000 requests, more than a run issues, so a run never
/// repeats the order of its large requests, on which the daemon's peak
/// memory depends.
const SCHEDULE_CYCLES: usize = 600;
/// Requests in the traced run's replay log.
const TRACE_CYCLES: usize = 10;
/// Per-request response credit, as `lzfpga client` grants.
const CREDIT: u64 = 1 << 20;
/// The daemon's response chunk size (its `ServerConfig::chunk_bytes`).
const CHUNK_BYTES: usize = 256 << 10;
/// Warm-up before the measured window (connections, pool threads, caches).
const WARMUP: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Compress,
    Decompress,
    Range,
}

/// One distinct request input and its local `compress_frames_parallel`
/// stream.
struct Template {
    data: Vec<u8>,
    framed: Vec<u8>,
}

#[derive(Clone, Copy)]
struct Req {
    op: Op,
    class: usize,
    tpl: usize,
    start: u64,
    end: u64,
}

struct Traffic {
    templates: [Vec<Template>; 3],
    schedule: Vec<Req>,
}

impl Traffic {
    fn new(seed: u64) -> Result<Traffic, String> {
        let mut rng = Rng::new(seed);
        let cfg = parallel_config(LOAD_THREADS, false);
        let mut templates: [Vec<Template>; 3] = Default::default();
        // Every input starts on a segment of its own, each class after the
        // last, so no two inputs share bytes.
        let mut segment = 0;
        for (class, list) in templates.iter_mut().enumerate() {
            for _ in 0..TEMPLATES[class] {
                let data = mixed_bytes(seed, segment, SIZES[class]);
                segment += SIZES[class].div_ceil(MIXED_SEGMENT);
                let framed = compress_frames_parallel(&data, &cfg, &frame_config(FRAME_BYTES))
                    .map_err(|e| format!("compress_frames_parallel: {e}"))?
                    .framed;
                list.push(Template { data, framed });
            }
        }
        let mut schedule = Vec::new();
        // Templates are used round-robin per class and kind, so every one
        // carries the same share of the traffic whatever the seed.
        let mut next_tpl = [[0usize; 3]; 3];
        for _ in 0..SCHEDULE_CYCLES {
            let mut cycle = Vec::new();
            for (class, c, d, r) in CYCLE {
                let kinds = [(Op::Compress, c), (Op::Decompress, d), (Op::Range, r)];
                for (op, count) in kinds {
                    for _ in 0..count {
                        let size = SIZES[class] as u64;
                        let start = rng.below((size - size / 4) as usize) as u64;
                        let slot = &mut next_tpl[class][op as usize];
                        let tpl = *slot % TEMPLATES[class];
                        *slot += 1;
                        cycle.push(Req { op, class, tpl, start, end: start + size / 4 });
                    }
                }
            }
            rng.shuffle(&mut cycle);
            schedule.extend(cycle);
        }
        Ok(Traffic { templates, schedule })
    }

    fn template(&self, r: &Req) -> &Template {
        &self.templates[r.class][r.tpl]
    }

    /// The result bytes the daemon must return for `r`.
    fn expected(&self, r: &Req) -> &[u8] {
        let t = self.template(r);
        match r.op {
            Op::Compress => &t.framed,
            Op::Decompress => &t.data,
            Op::Range => &t.data[r.start as usize..r.end as usize],
        }
    }

    /// Uncompressed bytes a request processes (in for compress, out otherwise).
    fn uncompressed(&self, r: &Req) -> u64 {
        match r.op {
            Op::Compress | Op::Decompress => self.template(r).data.len() as u64,
            Op::Range => r.end - r.start,
        }
    }

    /// Input / output bytes over the schedule's compress requests.
    fn ratio(&self) -> f64 {
        let (mut i, mut o) = (0u64, 0u64);
        for r in self.schedule.iter().filter(|r| r.op == Op::Compress) {
            i += self.template(r).data.len() as u64;
            o += self.template(r).framed.len() as u64;
        }
        ratio(i as f64, o as f64)
    }
}

/// Send `r` and wait for its last response byte.
fn issue(client: &mut Client, tr: &Traffic, r: &Req) -> Result<Vec<u8>, String> {
    let t = tr.template(r);
    let frame = FRAME_BYTES as u32;
    match r.op {
        Op::Compress => client.compress(&t.data, frame, 0),
        Op::Decompress => client.decompress(&t.framed, t.data.len() as u64, 0),
        Op::Range => client.range(&t.framed, r.start, r.end, r.end - r.start, 0),
    }
    .map_err(|e| format!("request failed: {e}"))
}

/// A running `lzfpga serve` child. Dropping it kills the process if it
/// is still running, waits for it, and removes its files.
struct Daemon {
    child: Child,
    addr: String,
    /// Path stem of the port, metrics and log files.
    base: PathBuf,
}

impl Daemon {
    /// Spawn the daemon and complete one handshake; returns the seconds
    /// from spawn to the accepted handshake.
    fn spawn(args: &RunArgs, tag: &str) -> Result<(Daemon, f64), String> {
        let base = args.work_dir.join(format!("serve-{}-{tag}", std::process::id()));
        let port_file = base.with_extension("port");
        let log = base.with_extension("log");
        let _ = std::fs::remove_file(&port_file);
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(&args.lzfpga);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--allow-shutdown", "--workers"])
            .arg(LOAD_THREADS.to_string())
            .arg("--port-file")
            .arg(&port_file)
            .arg("--metrics")
            .arg(base.with_extension("jsonl"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        let t0 = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("spawning {}: {e}", args.lzfpga.display()))?;
        let mut daemon = Daemon { child, addr: String::new(), base };
        while daemon.addr.is_empty() {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                daemon.addr = addr.trim().to_string();
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("lzfpga serve exited at start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("lzfpga serve did not write its port file".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Client::connect(daemon.addr.as_str(), "setup", CREDIT)
            .map_err(|e| format!("handshake with lzfpga serve: {e}"))?;
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    /// Drain over a fresh connection (an idle one may have been closed by
    /// the daemon's idle timeout), wait for exit, and return the daemon's
    /// counters from its `--metrics` file.
    fn drain(mut self) -> Result<ServerCounts, String> {
        Client::connect(self.addr.as_str(), "control", CREDIT)
            .and_then(|mut c| c.shutdown_server(5_000))
            .map_err(|e| format!("drain request: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let log = std::fs::read_to_string(self.base.with_extension("log"));
                    return Err(format!(
                        "lzfpga serve did not exit cleanly: {}",
                        log.unwrap_or_default().trim()
                    ));
                }
            }
        }
        std::fs::read_to_string(self.base.with_extension("jsonl"))
            .ok()
            .and_then(|t| ServerCounts::parse(&t))
            .ok_or_else(|| "lzfpga serve left no metrics snapshot".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        for ext in ["port", "jsonl", "log"] {
            let _ = std::fs::remove_file(self.base.with_extension(ext));
        }
    }
}

/// Daemon counters from the final `metrics` event of `serve --metrics`.
#[derive(Default)]
struct ServerCounts {
    requests_done: u64,
    requests_failed: u64,
    protocol_errors: u64,
    panics_contained: u64,
}

impl ServerCounts {
    fn parse(jsonl: &str) -> Option<ServerCounts> {
        let line = jsonl.lines().rev().find(|l| l.contains("\"metrics\""))?;
        let v = lzfpga_telemetry::json::parse(line).ok()?;
        let counters = v.get("counters")?;
        let get = |name: &str| counters.get(name).and_then(JsonValue::as_i64).unwrap_or(0) as u64;
        Some(ServerCounts {
            requests_done: get("server_requests_done"),
            requests_failed: get("server_requests_failed"),
            protocol_errors: get("server_protocol_errors"),
            panics_contained: get("server_panics_contained"),
        })
    }
}

/// Session directories and `.part` files left under a state dir.
fn leftovers(state_dir: &Path) -> (usize, usize) {
    let sessions: Vec<PathBuf> = std::fs::read_dir(state_dir.join("sessions"))
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    let parts = sessions
        .iter()
        .filter_map(|d| std::fs::read_dir(d).ok())
        .flatten()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "part"))
        .count();
    (sessions.len(), parts)
}

/// Closed loop over one connection: one request at a time, each taking
/// the next schedule entry once the last reply is complete, until
/// `window` has passed. Every reply is checked against the local oracle.
fn closed_loop(
    client: &mut Client,
    tr: &Traffic,
    next: &mut usize,
    window: Duration,
    oc: &mut Outcome,
) -> Vec<Block> {
    let mut blocks = Blocks::start();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let r = tr.schedule[*next % tr.schedule.len()];
        *next += 1;
        oc.attempted += 1;
        let (got, latency_s) = timed(|| issue(client, tr, &r));
        match got {
            Ok(bytes) if bytes == tr.expected(&r) => {
                let mb = tr.uncompressed(&r) as f64 / 1e6;
                let b = blocks.cur();
                b.ops += 1;
                b.mb += mb;
                b.latency_ms.push(latency_s * 1e3);
                match r.op {
                    Op::Compress => b.compress = (b.compress.0 + mb, b.compress.1 + latency_s),
                    Op::Decompress => {
                        b.decompress = (b.decompress.0 + mb, b.decompress.1 + latency_s)
                    }
                    Op::Range => {}
                }
            }
            Ok(_) => {
                oc.failed += 1;
                oc.problems.push("served bytes differ from the local oracle".to_string());
            }
            Err(e) => {
                oc.failed += 1;
                oc.problems.push(e);
                break;
            }
        }
        blocks.tick();
    }
    blocks.finish()
}

pub fn run(args: &RunArgs, m: &mut Metrics, oc: &mut Outcome) -> Result<(), String> {
    let traffic = Traffic::new(args.seed)?;
    let model = model_over(traffic.templates[2].iter().flat_map(|t| t.data.chunks(FRAME_BYTES)));
    m.set("model_cycles_per_byte", model.cycles_per_byte());
    eprintln!(
        "serve-mixed: lzfpga serve --workers {n}, closed loop over {n} connection, {} KiB frames",
        FRAME_BYTES >> 10,
        n = LOAD_THREADS
    );
    if args.trace {
        run_traced(args, &traffic, m, oc)?;
        model.write(m);
        Ok(())
    } else {
        run_load(args, &traffic, m, oc)
    }
}

fn run_load(
    args: &RunArgs,
    traffic: &Traffic,
    m: &mut Metrics,
    oc: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        let (daemon, secs) = Daemon::spawn(args, &format!("s{k}"))?;
        setups.push(secs);
        if k + 1 < SETUP_REPEATS {
            daemon.drain()?;
        } else {
            live = Some(daemon);
        }
    }
    let daemon = live.expect("at least one set-up");
    m.set("setup_s", median(&setups));

    let mut client = Client::connect(daemon.addr.as_str(), "t0", CREDIT)
        .map_err(|e| format!("connecting the load client: {e}"))?;
    let mut next = 0;
    closed_loop(&mut client, traffic, &mut next, WARMUP, oc);
    let blocks =
        closed_loop(&mut client, traffic, &mut next, Duration::from_secs_f64(args.seconds), oc);
    let rss = peak_rss_mb(&daemon.child.id().to_string()).ok_or("no VmHWM for the daemon")?;
    drop(client);
    let counts = daemon.drain()?;
    if counts.requests_failed + counts.protocol_errors + counts.panics_contained > 0 {
        oc.problems.push(format!(
            "daemon counted {} failed requests, {} protocol errors, {} panics",
            counts.requests_failed, counts.protocol_errors, counts.panics_contained
        ));
    }
    write_blocks(m, &blocks);
    m.set("ratio", traffic.ratio());
    m.set("peak_rss_mb", rss);
    eprintln!(
        "  {} requests in {} blocks over one connection; daemon done {}",
        blocks.iter().map(|b| b.ops).sum::<u64>(),
        blocks.len(),
        counts.requests_done
    );
    Ok(())
}

/// In-process state of a replay: the daemon's admission controller and,
/// for the durable side replay, a session store.
struct Replay<'a> {
    traffic: &'a Traffic,
    admission: Arc<Admission>,
    store: Option<SessionStore>,
}

impl Replay<'_> {
    /// Run request `i` of the log through the daemon's layers in process,
    /// charging each call to `t`. Returns the result bytes and the seconds
    /// spent after the last result byte (session finish, charge release),
    /// which a client never waits for.
    fn one(&self, t: &mut Tracer, i: usize, r: &Req) -> Result<(Vec<u8>, f64), String> {
        let tpl = self.traffic.template(r);
        let req_id = i as u64 + 1;
        let request = match r.op {
            Op::Compress => Request::Compress {
                req: req_id,
                deadline_ms: 0,
                frame_bytes: FRAME_BYTES as u32,
                data: tpl.data.clone(),
            },
            Op::Decompress => Request::Decompress {
                req: req_id,
                deadline_ms: 0,
                max_result: tpl.data.len() as u64,
                data: tpl.framed.clone(),
            },
            Op::Range => Request::Range {
                req: req_id,
                deadline_ms: 0,
                start: r.start,
                end: r.end,
                max_result: r.end - r.start,
                data: tpl.framed.clone(),
            },
        };
        let request = wire_roundtrip_request(t, &request)?;
        let (payload, max_result) = match &request {
            Request::Compress { data, .. } => (data, 0),
            Request::Decompress { data, max_result, .. }
            | Request::Range { data, max_result, .. } => (data, *max_result),
            _ => return Err("replayed an unexpected request kind".into()),
        };
        let (ctl, t_admit) = timed(|| {
            self.admission
                .admit_request("replay", payload.len() as u64 + max_result)
                .map(|charge| RequestCtl::new(charge, 0))
        });
        t.charge("server.admit_s", t_admit);
        let ctl = ctl.map_err(|code| format!("admission refused the replay: {}", code.as_str()))?;
        let mut ledger = JobLedger::default();
        let hw = HwConfig::paper_fast();
        let mut session = None;
        if let (Some(store), Op::Compress | Op::Decompress) = (&self.store, r.op) {
            let op = if r.op == Op::Compress { SessionOp::Compress } else { SessionOp::Decompress };
            let fb = if r.op == Op::Compress { FRAME_BYTES as u32 } else { 0 };
            let (begun, secs) =
                timed(|| store.begin(op, "replay", fb, max_result, payload, &NoFaults));
            t.charge("server.store_s", secs);
            session = Some(begun.map_err(|e| format!("SessionStore::begin: {e}"))?);
        }
        let before = t.attributed();
        let (out, job_s) = match (r.op, &session) {
            (Op::Compress, Some((_, dir))) => timed(|| {
                durable_compress(
                    dir,
                    payload,
                    FRAME_BYTES as u32,
                    params(),
                    &ctl,
                    &NoFaults,
                    &mut ledger,
                )
            }),
            (Op::Compress, None) => {
                timed(|| compress_job(payload, FRAME_BYTES, &hw, &ctl, &NoFaults, &mut ledger))
            }
            (Op::Decompress, _) => timed(|| decompress_job(payload, max_result, &ctl, &mut ledger)),
            (Op::Range, _) => timed(|| {
                range_job(
                    payload,
                    r.start..r.end,
                    max_result,
                    CHUNK_BYTES as u64,
                    &ctl,
                    &NoFaults,
                    &mut ledger,
                )
            }),
        };
        let out = out.map_err(|f| format!("job failed: {}", f.detail))?;
        // The job's codec calls, re-run alone on the same input.
        t.calibrate(|t| match r.op {
            Op::Compress => drop(traced_compress(t, payload, FRAME_BYTES)),
            Op::Decompress => drop(crate::codec::traced_decompress(t, payload)),
            Op::Range => traced_range(t, payload, r.start..r.end),
        });
        let inner = t.attributed() - before;
        let (kind, self_layer) = match (r.op, session.is_some()) {
            (Op::Compress, true) => ("server.job_s.compress", "server.store_s"),
            (Op::Compress, false) => ("server.job_s.compress", "server.job_self_s"),
            (Op::Decompress, _) => ("server.job_s.decompress", "server.job_self_s"),
            (Op::Range, _) => ("server.job_s.range", "server.job_self_s"),
        };
        t.charge(kind, job_s);
        t.charge(self_layer, job_s - inner);

        let (crc, secs) = timed(|| crc32(&out));
        t.charge("deflate.crc32_s", secs);
        let received =
            wire_roundtrip_response(t, req_id, &out, crc, session.as_ref().map(|s| s.0))?;
        let mut after_s = 0.0;
        if let (Some(store), Some((token, _))) = (&self.store, &session) {
            let ((), secs) = timed(|| store.finish(*token));
            t.charge("server.store_s", secs);
            after_s += secs;
        }
        let ((), secs) = timed(|| drop(ctl));
        t.charge("server.admit_s", secs);
        Ok((received, after_s + secs))
    }
}

/// Encode `request` as the client does and read it back as the daemon
/// does, charging `server.proto_s`.
fn wire_roundtrip_request(t: &mut Tracer, request: &Request) -> Result<Request, String> {
    let (parsed, secs) = timed(|| {
        let wire = encode_request(request);
        let raw = read_message(&mut wire.as_slice(), MAX_WIRE_BYTES)?
            .ok_or(lzfpga_server::ProtoError::UnexpectedEof)?;
        parse_request(&raw)
    });
    t.charge("server.proto_s", secs);
    parsed.map_err(|e| format!("request codec: {e}"))
}

/// Send `out` as the daemon's Data chunks and Done (plus the durable
/// Session announcement), with the client's credit grants, through the
/// wire codec; the client side checks the CRC as `Client` does.
fn wire_roundtrip_response(
    t: &mut Tracer,
    req: u64,
    out: &[u8],
    crc: u32,
    token: Option<u64>,
) -> Result<Vec<u8>, String> {
    let mut responses = Vec::new();
    if let Some(token) = token {
        responses.push(Response::Session { req, token });
    }
    for (k, chunk) in out.chunks(CHUNK_BYTES).enumerate() {
        let offset = (k * CHUNK_BYTES) as u64;
        responses.push(Response::Data { req, offset, bytes: chunk.to_vec() });
    }
    responses.push(Response::Done { req, total: out.len() as u64, crc });
    let mut received = Vec::with_capacity(out.len());
    for rsp in &responses {
        let (parsed, secs) = timed(|| {
            let wire = encode_response(rsp);
            let raw = read_message(&mut wire.as_slice(), MAX_WIRE_BYTES)?
                .ok_or(lzfpga_server::ProtoError::UnexpectedEof)?;
            parse_response(&raw)
        });
        t.charge("server.proto_s", secs);
        match parsed.map_err(|e| format!("response codec: {e}"))? {
            Response::Data { bytes, .. } => {
                let n = bytes.len() as u64;
                received.extend_from_slice(&bytes);
                wire_roundtrip_request(t, &Request::Credit { req, bytes: n })?;
            }
            Response::Done { crc, .. } => {
                let (ok, secs) = timed(|| crc32(&received) == crc);
                t.charge("deflate.crc32_s", secs);
                if !ok {
                    return Err("replayed result failed its CRC".into());
                }
            }
            _ => {}
        }
    }
    Ok(received)
}

/// The codec calls a range read makes: the index load, then each frame
/// overlapping the range verified and decoded.
fn traced_range(t: &mut Tracer, framed: &[u8], range: std::ops::Range<u64>) {
    let (reader, secs) = timed(|| open_indexed(framed));
    t.charge("container.range_open_s", secs);
    drop(reader);
    let Ok(structure) = check_structure(framed) else { return };
    let mut ustart = 0u64;
    for span in &structure.frames {
        let uend = ustart + u64::from(span.record.ulen);
        if uend > range.start && ustart < range.end {
            let _ = traced_frame(t, framed, span);
        }
        ustart = uend;
    }
}

fn run_traced(
    args: &RunArgs,
    traffic: &Traffic,
    m: &mut Metrics,
    oc: &mut Outcome,
) -> Result<(), String> {
    let log = &traffic.schedule[..TRACE_CYCLES * 40];
    let (daemon, _) = Daemon::spawn(args, "trace")?;
    let mut client =
        Client::connect(daemon.addr.as_str(), "t0", CREDIT).map_err(|e| format!("connect: {e}"))?;
    let replay = Replay { traffic, admission: Admission::new(QuotaConfig::default()), store: None };
    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut client_s = 0.0;
    let mut walls = [0.0; 2];
    // Untimed replay time up to each request's last result byte: what the
    // client latency of the same request contains besides the wire.
    let mut before_last_byte_s = 0.0;
    let mut tracer = Tracer::new(true);
    let mut plain = Tracer::new(false);
    let mut passes = 0u32;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Whole passes over the log until the time is spent, so every count
    // is an exact multiple of one pass's.
    while passes == 0 || Instant::now() < deadline {
        // Client pass: the real daemon, one connection, serial.
        for r in log {
            oc.attempted += 1;
            let (got, secs) = timed(|| issue(&mut client, traffic, r));
            match got {
                Ok(bytes) if bytes == traffic.expected(r) => {}
                Ok(_) => {
                    oc.failed += 1;
                    oc.problems.push("served bytes differ from the local oracle".into());
                }
                Err(e) => {
                    oc.failed += 1;
                    oc.problems.push(e);
                }
            }
            client_s += secs;
            lat[r.op as usize].push(secs * 1e3);
        }
        // In-process replay of the same log, untimed and traced, in
        // alternating order so neither always runs on warmer caches.
        let mut order = [&mut plain, &mut tracer];
        if passes % 2 == 1 {
            order.reverse();
        }
        for t in order {
            for (i, r) in log.iter().enumerate() {
                oc.attempted += 1;
                let before = t.excluded_s();
                let (got, secs) = timed(|| replay.one(t, i, r));
                walls[usize::from(t.enabled)] += secs - (t.excluded_s() - before);
                match got {
                    Ok((bytes, after_s)) if bytes == traffic.expected(r) => {
                        if !t.enabled {
                            before_last_byte_s += secs - after_s;
                        }
                    }
                    Ok(_) => {
                        oc.failed += 1;
                        oc.problems.push("replayed job bytes differ from the local oracle".into());
                    }
                    Err(e) => {
                        oc.failed += 1;
                        oc.problems.push(e);
                    }
                }
            }
        }
        passes += 1;
    }
    drop(client);
    let counts = daemon.drain()?;
    let store_s = durable_side_replay(args, traffic, log, oc)?;
    let n = (log.len() as u32 * passes) as f64;
    *m = std::mem::take(&mut tracer.m);
    write_codec_counts(&tracer, m);
    m.set("container.frames", tracer.frames as f64 / n);
    m.scale(&["server.job_s.compress", "server.job_s.decompress", "server.job_s.range"], n);
    crate::util::close_ledger(m, walls[1], n, &mut oc.problems);
    m.set("ledger.trace_overhead_frac", walls[1] / walls[0] - 1.0);
    m.set("server.wire_s", (client_s - before_last_byte_s) / n);
    m.set("server.store_s", store_s);
    m.set("server.requests_failed", counts.requests_failed as f64);
    m.set("server.protocol_errors", counts.protocol_errors as f64);
    m.set("server.panics_contained", counts.panics_contained as f64);
    m.set("server.compress_p50_ms", median(&lat[0]));
    m.set("server.decompress_p50_ms", median(&lat[1]));
    m.set("server.range_p50_ms", median(&lat[2]));
    eprintln!("  {passes} passes over a {}-request log; client wall {client_s:.3} s", log.len());
    Ok(())
}

/// `store` is idle in serve-mixed. One side replay of the log through a
/// `SessionStore` on the disk filesystem (under the work dir), as
/// `lzfpga serve --state-dir` runs it, gives what journaling costs per
/// request: `begin` + `finish`, plus `durable_compress` minus its codec
/// calls. It stays off the ledger. Afterwards no session dir or `.part`
/// file may remain.
fn durable_side_replay(
    args: &RunArgs,
    traffic: &Traffic,
    log: &[Req],
    oc: &mut Outcome,
) -> Result<f64, String> {
    let dir = args.work_dir.join(format!("state-{}", std::process::id()));
    let store = SessionStore::open(&dir).map_err(|e| format!("SessionStore::open: {e}"))?;
    let replay =
        Replay { traffic, admission: Admission::new(QuotaConfig::default()), store: Some(store) };
    let mut side = Tracer::new(true);
    for (i, r) in log.iter().enumerate() {
        oc.attempted += 1;
        match replay.one(&mut side, i, r) {
            Ok((bytes, _)) if bytes == traffic.expected(r) => {}
            Ok(_) => {
                oc.failed += 1;
                oc.problems.push("durable replay bytes differ from the local oracle".into());
            }
            Err(e) => {
                oc.failed += 1;
                oc.problems.push(e);
            }
        }
    }
    let (sessions, parts) = leftovers(&dir);
    if sessions + parts > 0 {
        oc.problems
            .push(format!("durable replay left {sessions} session dirs and {parts} .part files"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(side.m.get("server.store_s") / log.len() as f64)
}
