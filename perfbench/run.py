#!/usr/bin/env python3
"""Builds the pimdnn benchmark from source and runs one workload.

    python3 perfbench/run.py --workload yolo_stream --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first call builds a Release binary
under .bench_build/perfbench (a minute or so); later calls rebuild only
what changed. Build output goes to build.log there,
not to standard output, so the benchmark's last line stays its JSON result.
Per-run records (run record, all metrics, span totals) and traced runs'
span logs are written to .bench_build/perfbench/out.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# The benchmark process must end within 180 s; leave room for the build
# check that precedes it.
RUN_TIMEOUT_S = 170


def run_logged(cmd, log):
    """Runs a build step with its output appended to `log`; exits on failure."""
    with open(log, "a") as out:
        code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
    if code != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    # Configuring every time is cheap once cached and recovers a tree whose
    # first configure failed.
    run_logged(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], log)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs], log)


def commit():
    """The checkout's git commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["yolo_stream", "yolo_frame_416", "ebnn_scale", "all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    build()
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--commit", commit(), "--out", os.path.join(BUILD, "out")]
    sys.stdout.flush()
    try:
        # `all` runs three workloads in one process; give it their budget.
        timeout = RUN_TIMEOUT_S * (3 if a.workload == "all" else 1)
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the benchmark and waited for it.
        sys.exit("perfbench: run timed out")


if __name__ == "__main__":
    sys.exit(main())
