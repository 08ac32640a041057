#!/usr/bin/env python3
"""Builds the MATE benchmark binary from source and runs one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload nary_join --seed 1 --seconds 25 --trace 0

Every run configures and builds perfbench/CMakeLists.txt (the engine plus
the benchmark binary, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; after the first run
that is an up-to-date check of a few seconds. Build output goes to stderr,
so the last stdout line is the binary's one JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("nary_join", "wt_served", "od_budget")
# Runs are expected to end within 180 s: a hung run is killed before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(out_dir):
    # Configuring an already configured tree is a quick no-op, and always
    # doing it recovers from a configure that failed half way.
    if not run_quiet(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", out_dir, "--target", "mate_perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(out_dir, "mate_perfbench")
    return binary if os.path.exists(binary) else None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def src_digest():
    """Content digest of the engine sources: names the program version even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "work"),
           "--pinned", os.path.join(HERE, "pinned_digests.txt"),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
