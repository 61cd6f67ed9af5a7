#!/usr/bin/env python3
"""End-to-end benchmark of the emcalc calculus compiler.

    python3 perfbench/run.py --workload adhoc|payroll|prepared \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (with the library from src/) into .bench_build/perfbench
on first use, then runs one workload in a sanitized environment. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

# The executor's morsel pool is pinned to this many threads (fewer when the
# machine has fewer cores), so runs are comparable across machines.
POOL_THREADS = 2

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def sanitized_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("EMCALC_")}
    threads = max(1, min(POOL_THREADS, os.cpu_count() or 1))
    env["EMCALC_HARDWARE_THREADS"] = str(threads)
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["adhoc", "payroll", "prepared"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"emcalc sources not found under {root / 'src'}")
        return 1
    build_dir = root / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not build(root, build_dir):
        return 1

    trace_out = build_dir / f"trace-{args.workload}-{args.seed}.json"
    cmd = [str(build_dir / "emcalc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, env=sanitized_env(), cwd=str(root),
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not lines:
        log(f"benchmark exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
