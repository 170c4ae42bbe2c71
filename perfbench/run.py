#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <flat-matrix|sharded-churn|router-tcp>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR if
set, else .bench_build; traced runs write their spans to .bench_out/.
The benchmark's own output is passed through unchanged: its last line is
the JSON result. Exits non-zero, without a result, when the library
sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def git_sha(root):
    """The checkout's commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(root, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as f:
                    return f.read().strip()
            with open(os.path.join(root, ".git", "packed-refs")) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def build(root, build_dir):
    """Configures and builds the perfbench target; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(root),
           "--out-dir", os.path.join(root, ".bench_out")]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
