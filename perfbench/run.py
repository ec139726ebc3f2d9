#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/CMakeLists.txt, Release) from the
checkout's sources into .bench_build/, prepares the certified registry
cache file the warm workloads prewarm from (untimed, kept per build), then
runs one workload. The last line of standard output is the JSON result;
build output goes to standard error. Exits nonzero, without a result, when
the build or the preparation fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_small", "serve_mixed", "compile_cold")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def checked(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {' '.join(cmd)}: {e}")
        return False
    return done.returncode == 0


def build(root, build_dir):
    if not (build_dir / "Makefile").exists():
        if not checked(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-G", "Unix Makefiles",
                        "-DCMAKE_BUILD_TYPE=Release"], 60):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not checked(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "oscs_perfbench"], 540):
        return None
    binary = build_dir / "oscs_perfbench"
    return binary if binary.exists() else None


def prepared_cache(binary, out_dir):
    """The registry cache file for this exact build, made once."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = out_dir / f"registry-{digest}.cache"
    if path.exists():
        return path
    tmp = out_dir / f"registry-{digest}.cache.tmp"
    if not checked([str(binary), "--prep", str(tmp)], 120):
        return None
    os.replace(tmp, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_build"
    binary = build(root, out_dir / "perfbench")
    if binary is None:
        log("run.py: build failed")
        return 1
    cache = prepared_cache(binary, out_dir)
    if cache is None:
        log("run.py: registry preparation failed")
        return 1
    sys.stdout.flush()
    try:
        done = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--cache-file", str(cache)],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: workload timed out")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
