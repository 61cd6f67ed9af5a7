#!/usr/bin/env python3
"""Steadiness and determinism checks for the perfbench benchmark.

Spread: runs one workload once per seed (untraced) and prints, for each
end-to-end metric, the median and the inter-quartile range as a share of
the median next to the metric's bound from BENCHMARK.json:

    python3 perfbench/check_spread.py spread --workload adhoc --runs 10

Determinism: runs the traced benchmark twice with one seed and checks that
every count metric (unit count or bytes, plus attempted/failed) is
identical, then runs a held-out seed and checks the metric names match:

    python3 perfbench/check_spread.py determinism --workload payroll

Run from the repository root.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Counts the determinism check compares; timings and ratios vary run to run.
COUNT_UNITS = ("count", "bytes")
# A high-water mark of tracked bytes: it depends on how the morsel pool's
# threads interleave their allocations, so it is measured, not counted.
MEASURED_PEAKS = {"exec.peak_bytes"}


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correct=false\n"
                         + done.stdout)
    return result


def spread(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for i in range(args.runs):
        seed = args.seed_base + i
        start = time.monotonic()
        metrics = run(args.workload, seed, seconds, 0)["metrics"]
        wall = time.monotonic() - start
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.1f} s): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(metrics.items())),
            flush=True)
    worst = 0.0
    for name, vals in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            worst = max(worst, share / bound)
            flag = "ok" if share < bound / 3 else (
                "within bound" if share <= bound else "TOO NOISY")
        print(f"{args.workload:9s} {name:18s} median={med:12.4f} "
              f"iqr/median={share:.4f} bound={bound} {flag}")
    print(f"worst spread/bound: {worst:.3f}")


def determinism(args):
    a = run(args.workload, args.seed_base, args.seconds or 2, 1)
    b = run(args.workload, args.seed_base, args.seconds or 2, 1)
    c = run(args.workload, args.seed_base + 1000, args.seconds or 2, 1)
    bad = []
    for key in ("attempted", "failed"):
        if a[key] != b[key]:
            bad.append(f"{key}: {a[key]} != {b[key]}")
    for name, m in a["metrics"].items():
        if m["unit"] not in COUNT_UNITS or name in MEASURED_PEAKS:
            continue
        if m["value"] != b["metrics"][name]["value"]:
            bad.append(f"{name}: {m['value']} != "
                       f"{b['metrics'][name]['value']}")
    if set(a["metrics"]) != set(c["metrics"]):
        bad.append("metric names differ under the held-out seed")
    for line in bad:
        print("NOT DETERMINISTIC:", line)
    checked = sum(1 for n, m in a["metrics"].items()
                  if m["unit"] in COUNT_UNITS and n not in MEASURED_PEAKS)
    print(f"{args.workload}: {checked} count metrics compared, "
          f"{len(bad)} differences")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["spread", "determinism"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds (spread), 2 (determinism)")
    args = parser.parse_args()
    if args.mode == "spread":
        spread(args)
        return 0
    return determinism(args)


if __name__ == "__main__":
    sys.exit(main())
