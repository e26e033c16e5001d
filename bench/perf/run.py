#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage (from the repository root):

  python3 bench/perf/run.py --workload <paper40|scale1000|disrupted40> \
      --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds bench/perf in Release under
.bench_build/perf (about a minute on four cores); later calls only check
that the build is current. The workload runs in its own process on one
thread. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
host and build. Build output goes to standard error. Exit code 0 means the
workload ran to its end; any other code means no result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("paper40", "scale1000", "disrupted40")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def build_dir() -> Path:
    return ROOT / ".bench_build" / "perf"


def build() -> Path:
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=120)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=600)
    exe = out / "perf_bench"
    if not exe.is_file():
        raise RuntimeError(f"build produced no {exe}")
    return exe


def git_sha() -> str:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        exe = build()
    except (OSError, subprocess.SubprocessError, RuntimeError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: workload did not finish within 170 s", file=sys.stderr)
        return 1
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        print(f"run.py: perf_bench exited {res.returncode}", file=sys.stderr)
        return 1
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"run.py: unreadable perf_bench output: {e}", file=sys.stderr)
        return 1
    info = raw.get("info", {})
    for msg in info.get("errors", []) + info.get("cell_errors", []):
        print(f"run.py: check failed: {msg}", file=sys.stderr)

    host = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": info.get("rounds"),
        "nproc": os.cpu_count(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "flags": info.get("flags"),
        "git_sha": git_sha(),
    }
    print(json.dumps({"host": host}))
    print(json.dumps({k: raw[k] for k in RESULT_KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
