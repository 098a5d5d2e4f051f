#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

Run from the repository root. Builds `lzfpga` (the daemon the serve
workloads spawn) from the repository workspace and the `perfbench`
package beside this file, both in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs `perfbench run`, pinned to one CPU
when untraced. The last line of stdout is the JSON result; progress and
the metric table go to stderr.
Exits non-zero without a result when the program cannot be built.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("codec-local", "serve-mixed")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr so stdout's last line stays the result.
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if res.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no repository workspace next to perfbench/ to build")
    cargo_build(target, "-p", "lzfpga-cli")
    cargo_build(target, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    bench = os.path.join(target, "release", "perfbench")
    if argv == ["--list-metrics"]:
        sys.exit(subprocess.run([bench, "metrics"]).returncode)
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1 | --list-metrics")
    if opts["--workload"] not in WORKLOADS:
        fail(f"unknown workload {opts['--workload']!r}; one of {', '.join(WORKLOADS)}")
    cmd = [bench, "run", *argv, "--lzfpga", os.path.join(target, "release", "lzfpga"),
           "--work-dir", os.path.join(target, "perfbench-work")]
    if opts["--trace"] == "0":
        # The measured load runs one thread at a time (client, daemon
        # connection thread, pool worker hand off to each other). On one
        # CPU each hand-off is a plain context switch; spread over CPUs it
        # waits for an idle CPU to wake, which on a shared host takes as
        # long as the host is busy. The traced run keeps every CPU for the
        # parallel drivers.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Own process group, so a run that overstays takes its daemon with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=175))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded 175 s")


if __name__ == "__main__":
    main(sys.argv[1:])
