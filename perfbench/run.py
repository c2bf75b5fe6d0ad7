#!/usr/bin/env python3
"""Build and run the speculation-runtime benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload long_stream --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the repository's src/) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload.  The last line of stdout is the result object; --trace 1 also
writes the run's spans to <build>/spans/<workload>-seed<N>.json.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("long_stream", "sharded_fanout", "chaos_stream", "contended_registry")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "ocsp_perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return cmake_dir / "ocsp_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no runtime sources under {root}; nothing to benchmark")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    state_dir = build_dir / "state" / digest
    spans_dir = build_dir / "spans"
    state_dir.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", str(state_dir)]
    if args.trace:
        cmd += ["--spans-out",
                str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
