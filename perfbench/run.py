#!/usr/bin/env python3
"""Builds the maze benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch_1rank --seed 1 --seconds 15 --trace 0

Run from the repository root. The steps:
  1. configure and build perfbench/ (the maze libraries from src/, the input
     generator and the benchmark program) in .bench_build/perfbench, Release;
  2. generate the seeded Graph500 RMAT input (scale 16, edge factor 16) into
     .bench_out/;
  3. run the benchmark program, which checks every output and prints the metrics; its
     last stdout line is the result JSON.

The exit code is the benchmark program's: non-zero on a correctness violation, a
path-changing MAZE_* variable in the environment, or a failed build.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("batch_1rank", "batch_16rank", "serve_mixed")
SCALE = 16
EDGE_FACTOR = 16
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Runs cmd with output appended to log; returns True on success."""
    with open(log, "a") as f:
        f.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        f.flush()
        try:
            return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=timeout, cwd=ROOT).returncode == 0
        except subprocess.TimeoutExpired:
            return False


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"maze sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure once; `cmake --build` re-runs it when a CMakeLists.txt changes.
    ok = (BUILD_DIR / "CMakeCache.txt").is_file() or run_logged(
        ["cmake", "-S", ROOT / "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    ok = ok and run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs,
                            "--target", "perfbench_gen", "perfbench"],
                           log, BUILD_TIMEOUT_S)
    if not ok:
        tail = log.read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build failed; full log in {log}")


def source_digest():
    """sha256 over the program and benchmark sources (a git sha stand-in for
    checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    OUT_DIR.mkdir(exist_ok=True)
    graph = OUT_DIR / f"input-seed{args.seed}.bin"
    try:
        gen = subprocess.run(
            [BUILD_DIR / "perfbench_gen", "--seed", str(args.seed), "--scale",
             str(SCALE), "--edge-factor", str(EDGE_FACTOR), "--out", graph],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=RUN_TIMEOUT_S)
        print(gen.stdout, end="")
        if gen.returncode != 0:
            fail("input generation failed")
        sys.stdout.flush()
        bench = subprocess.run(
            [BUILD_DIR / "perfbench", "--workload", args.workload,
             "--input", graph, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--out-dir",
             OUT_DIR, "--src-digest", source_digest()],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    finally:
        graph.unlink(missing_ok=True)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
