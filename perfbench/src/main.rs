//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --lzfpga BIN --work-dir DIR
//! perfbench metrics          # every metric by name, unit and meaning
//! perfbench cold --input FILE   # codec-local rounds in a fresh process (setup_s)
//! ```
//!
//! `perfbench/run.py` builds this package and `lzfpga`, then calls `run`.
//! Inputs come from `lzfpga_workloads::generate` with `--seed`; the same
//! seed always gives the same inputs, request schedule and exact counts.
//! Load is generated from this one process over one worker thread and one
//! connection, and every throughput and latency figure is a median over
//! 1 s blocks of the run. The last stdout line is the JSON result;
//! everything human-readable goes to stderr.

mod codec;
mod report;
mod serve;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metrics, Outcome};

/// Set-ups per run; `setup_s` and the in-process `peak_rss_mb` are their
/// medians.
pub const SETUP_REPEATS: usize = 7;

/// Arguments of one measured run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub lzfpga: PathBuf,
    pub work_dir: PathBuf,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..]),
        Some("cold") => flag(&argv[1..], "--input").and_then(|p| codec::cold_main(Path::new(p))),
        Some("metrics") => {
            report::print_catalogue();
            Ok(())
        }
        _ => Err("usage: perfbench run|cold|metrics [options]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Value of `--name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad --seed {s}"))
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = RunArgs {
        workload: flag(argv, "--workload")?.to_string(),
        seed: parse_seed(flag(argv, "--seed")?)?,
        seconds: flag(argv, "--seconds")?.parse().map_err(|_| "bad --seconds".to_string())?,
        trace: match flag(argv, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
        lzfpga: PathBuf::from(flag(argv, "--lzfpga")?),
        work_dir: PathBuf::from(flag(argv, "--work-dir")?),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(&args.work_dir).map_err(|e| format!("work dir: {e}"))?;
    eprintln!(
        "perfbench {} seed {} for {} s, trace {}, nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc()
    );
    let mut m = Metrics::default();
    let mut oc = Outcome { attempted: 0, failed: 0, problems: Vec::new() };
    match args.workload.as_str() {
        "codec-local" => codec::run(&args, &mut m, &mut oc)?,
        "serve-mixed" => serve::run(&args, &mut m, &mut oc)?,
        other => return Err(format!("unknown workload {other} (one of codec-local, serve-mixed)")),
    }
    check_exact(&args, &m, &mut oc.problems)?;
    if args.trace {
        m.fill_zeros(report::PER_LAYER);
    }
    report::emit(&m, &oc, args.trace)
}

/// Metrics that are pure functions of the program and the seed. A value
/// that differs from an earlier run of the same binaries at the same seed
/// is a benchmark or determinism bug, never noise.
const EXACT: &[&str] = &[
    "ratio",
    "model_cycles_per_byte",
    "lzss.probes_per_kb",
    "lzss.kernel_runs_per_kb",
    "lzss.match_yield",
    "lzss.match_share",
    "container.frames",
    "container.raw_frame_share",
    "core.state.finding_match_cpb",
    "core.state.producing_output_cpb",
    "core.state.updating_hash_cpb",
    "core.state.rotating_hash_cpb",
    "core.state.waiting_cpb",
    "core.state.fetching_cpb",
    "core.chain_steps_per_byte",
    "core.compared_bytes_per_byte",
    "core.prefetch_hit_rate",
    "core.rotations",
];

/// Compare this run's exact metrics with the record an earlier run of the
/// same binaries (fingerprinted by CRC-32) left for this workload and
/// seed, or leave the record for the next run.
fn check_exact(args: &RunArgs, m: &Metrics, problems: &mut Vec<String>) -> Result<(), String> {
    let mut fingerprint = lzfpga_deflate::Crc32::new();
    for bin in [std::env::current_exe().map_err(|e| e.to_string())?, args.lzfpga.clone()] {
        fingerprint.update(&std::fs::read(&bin).map_err(|e| format!("{}: {e}", bin.display()))?);
    }
    let dir = args.work_dir.join("exact");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{}-{}-{}-{:08x}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace),
        fingerprint.finish()
    ));
    let mut now = String::new();
    for name in EXACT {
        now.push_str(&format!("{name} {:016x}\n", m.get(name).to_bits()));
    }
    match std::fs::read_to_string(&path) {
        Ok(before) if before != now => {
            for (a, b) in before.lines().zip(now.lines()).filter(|(a, b)| a != b) {
                problems
                    .push(format!("benchmark bug: exact metric drifted between runs: {a} -> {b}"));
            }
        }
        Ok(_) => eprintln!("  exact metrics repeat bit-exactly ({})", path.display()),
        Err(_) => std::fs::write(&path, now).map_err(|e| e.to_string())?,
    }
    Ok(())
}
