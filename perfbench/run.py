#!/usr/bin/env python3
"""Builds and runs the GeoDP end-to-end benchmark.

  python3 perfbench/run.py --workload train_cnn --seed 1 --seconds 35 --trace 0

Configures and builds perfbench/ (which compiles the library from src/) in
.bench_build/perfbench on first use, then runs one workload. Diagnostics go
to stderr; the last line of stdout is the run's JSON result. Exits non-zero
without printing a result when the build or the run fails.

Workloads: train_cnn, geodp_release, train_lr_durable.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (spans go to .bench_build/traces/). --canary-part-us N is a
benchmark-only mode that busy-waits N microseconds after every thread-pool
part, to show which workloads the pool layer moves.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "geodp_perfbench"
WORKLOADS = ("train_cnn", "geodp_release", "train_lr_durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(command, log_path, timeout):
    """Runs a build step with its output in log_path; True on success."""
    with open(log_path, "w") as out:
        try:
            done = subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"{command[0]} failed: {error}")
            return False
    if done.returncode != 0:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-30:]
        log(f"{' '.join(command)} exited {done.returncode}:\n"
            + "\n".join(tail))
        return False
    return True


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        if not run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                           "-DCMAKE_BUILD_TYPE=Release"],
                          BUILD_DIR / "configure.log", BUILD_TIMEOUT_S):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    return run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      BUILD_DIR / "build.log", BUILD_TIMEOUT_S)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--canary-part-us", type=int, default=0)
    return parser.parse_args()


def main():
    args = parse_args()
    if not build():
        return 1
    work_dir = BUILD_ROOT / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work_dir)]
    if args.trace == "1":
        trace_dir = BUILD_ROOT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    if args.canary_part_us:
        command += ["--canary-part-us", str(args.canary_part_us)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"benchmark run failed: {error}")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"benchmark exited {done.returncode} without a result")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark printed no JSON result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("benchmark result has unexpected keys")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
