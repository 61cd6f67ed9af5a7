#!/usr/bin/env python3
"""Perf-regression gate over BENCH_perf.json (JSON Lines, bench_flat_exec).

Usage: check_perf_regression.py BASELINE CURRENT [--threshold 0.7]

Raw rows/sec numbers are machine-dependent, so the gate compares *ratios*:
for every gated (data, op, variant) series, speedup = variant rows_per_sec
divided by the same run's legacy_layout rows_per_sec for that (data, op).
A series regresses when current_speedup / baseline_speedup falls below the
threshold (0.7 = a >30% slowdown relative to the in-run legacy baseline).

Only the single-threaded variants are gated (flat_layout and flat_t1) —
multi-thread numbers on shared CI runners are too noisy to gate on, and
flat_hw depends on the core count. When a
file holds duplicate records for a series (appended re-runs), the latest
record per (bench, data, op, variant, threads) wins. The full delta
table is always printed, gated or not.

With --obs BENCH_obs.json, the observability overhead verdicts from
bench_obs_overhead are also gated: every record in that file carries a
"pass" flag computed against an in-run ratio (tracing overhead <2% of
query wall, flight-recorder overhead <1%), so any "pass": false fails
the gate regardless of machine speed.

The current file's bench:"verify_overhead" records (stage-boundary plan
verification cost, emitted by bench_flat_exec) are gated the same way:
each carries a self-judged "pass" flag (compile-phase overhead <2%), and
any "pass": false fails the gate. Baselines predating the verifier are
fine — the gate only fires on records that exist.

The sort-work gate compares counts, not times: bench_flat_exec emits one
bench:"sort_work" record per query (paper corpus q1-q6 and the E9
payroll queries) carrying rows_sorted, the rows the operators' final
normalizes actually sorted. A query fails when its current rows_sorted
exceeds the same query's record in the baseline, or when the baseline has
a record for it and the current file has none (bench_flat_exec prints
"!!" and emits no record when a query fails to run). The count is
deterministic on any host, so there is no threshold. A query found only
in the current file is informational (baselines predating it pass).

Exit status: 0 when no gated series regresses, 1 otherwise.
"""

import argparse
import json
import sys

GATED_VARIANTS = ("flat_layout", "flat_t1")
BASELINE_VARIANT = "legacy_layout"


def load_series(path):
    """(data, op, variant) -> rows_per_sec for bench=flat_exec records.

    Files may hold several records per series (a binary re-run that
    appended before truncate-on-rerun landed, or deliberate repeat runs):
    the *latest* record per (bench, data, op, variant, threads) wins, so
    stale duplicates never shadow the current numbers.
    """
    latest = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("bench") != "flat_exec":
                continue
            full_key = (rec["data"], rec["op"], rec["variant"],
                        rec.get("threads"))
            latest[full_key] = float(rec["rows_per_sec"])
    series = {}
    for (data, op, variant, _threads), rps in latest.items():
        series[(data, op, variant)] = rps
    if not series:
        raise SystemExit(f"error: no flat_exec records in {path}")
    return series


def speedups(series):
    """(data, op, variant) -> rows_per_sec / same-run legacy rows_per_sec."""
    out = {}
    for (data, op, variant), rps in series.items():
        if variant == BASELINE_VARIANT:
            continue
        legacy = series.get((data, op, BASELINE_VARIANT))
        if not legacy or rps <= 0:
            continue
        out[(data, op, variant)] = rps / legacy
    return out


def check_obs(path):
    """Gate the self-judging verdicts in BENCH_obs.json.

    Every obs_overhead record carries a "pass" flag (tracing <2% of query
    wall; flight_recorder variant <1%). Returns the list of failing
    (variant, query) pairs.
    """
    failures = []
    total = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("bench") != "obs_overhead":
                continue
            total += 1
            variant = rec.get("variant", "?")
            query = rec.get("query", "?")
            pct = rec.get("overhead_pct")
            verdict = "ok" if rec.get("pass") else "FAIL"
            print(f"  obs {variant:<16} {pct:>8.4f}%  {verdict}  {query}")
            if not rec.get("pass"):
                failures.append((variant, query))
    if total == 0:
        print(f"  obs: no obs_overhead records in {path}")
        failures.append(("obs_overhead", "missing records"))
    return failures


def check_verify_overhead(path):
    """Gate the self-judging verify_overhead verdicts in `path`.

    Every verify_overhead record carries a "pass" flag (stage-boundary
    verification adds <2% to the compile phase). Returns the failing
    records; files without such records (pre-verifier baselines) pass.
    """
    failures = []
    total = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("bench") != "verify_overhead":
                continue
            total += 1
            pct = rec.get("overhead_pct", 0.0)
            verdict = "ok" if rec.get("pass") else "FAIL"
            print(f"  verify_overhead {pct:>8.4f}%  {verdict}  "
                  f"({rec.get('compiles', '?')} queries, "
                  f"small {rec.get('small_pct', 0.0):.2f}% / "
                  f"chain {rec.get('chain_pct', 0.0):.2f}%)")
            if not rec.get("pass"):
                failures.append(pct)
    if total == 0:
        print("  verify_overhead: no records (pre-verifier file) — skipped")
    return failures


def load_sort_work(path):
    """query -> rows_sorted for bench=sort_work records (latest wins)."""
    work = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("bench") == "sort_work":
                work[rec["query"]] = int(rec["rows_sorted"])
    return work


def check_sort_work(baseline_path, current_path):
    """Gate rows_sorted per query against the baseline.

    Returns the failing (query, baseline, current) triples. A baselined
    query with no current record fails (current is None); a query with no
    baseline record is listed but not gated.
    """
    base = load_sort_work(baseline_path)
    cur = load_sort_work(current_path)
    failures = []
    if not base and not cur:
        print("  sort_work: no records in either file — skipped")
    for query in sorted(set(base) | set(cur)):
        b, c = base.get(query), cur.get(query)
        if b is None:
            verdict = "info (not in baseline)"
        elif c is None:
            verdict = "MISSING"
            failures.append((query, b, c))
        elif c > b:
            verdict = "FAIL"
            failures.append((query, b, c))
        else:
            verdict = "ok"
        print(f"  sort_work {query:<10} base {str(b):>8}  "
              f"current {str(c):>8}  {verdict}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.7,
                        help="fail when current/baseline speedup ratio "
                             "drops below this (default 0.7 = -30%%)")
    parser.add_argument("--obs", metavar="BENCH_OBS_JSON",
                        help="also gate observability overhead verdicts "
                             "(fail on any \"pass\": false record)")
    args = parser.parse_args()

    base = speedups(load_series(args.baseline))
    cur = speedups(load_series(args.current))

    rows = []
    failures = []
    for key in sorted(set(base) | set(cur)):
        data, op, variant = key
        b, c = base.get(key), cur.get(key)
        gated = variant in GATED_VARIANTS
        if b is None or c is None:
            rows.append((data, op, variant, b, c, None,
                         "MISSING" if gated else "skip"))
            if gated:
                failures.append(key)
            continue
        ratio = c / b
        if not gated:
            verdict = "info"
        elif ratio < args.threshold:
            verdict = "FAIL"
            failures.append(key)
        else:
            verdict = "ok"
        rows.append((data, op, variant, b, c, ratio, verdict))

    fmt = "{:<6} {:<14} {:<14} {:>10} {:>10} {:>8}  {}"
    print(fmt.format("data", "op", "variant", "base", "current", "ratio",
                     "verdict"))
    for data, op, variant, b, c, ratio, verdict in rows:
        print(fmt.format(
            data, op, variant,
            f"{b:.2f}x" if b is not None else "-",
            f"{c:.2f}x" if c is not None else "-",
            f"{ratio:.3f}" if ratio is not None else "-",
            verdict))

    obs_failures = []
    if args.obs:
        print()
        print(f"observability overhead gate ({args.obs}):")
        obs_failures = check_obs(args.obs)

    print()
    print(f"stage-boundary verification overhead gate ({args.current}):")
    verify_failures = check_verify_overhead(args.current)

    print()
    print("sort-work gate (rows_sorted per query, current <= baseline):")
    sort_failures = check_sort_work(args.baseline, args.current)

    print()
    if failures:
        print(f"FAIL: {len(failures)} gated series regressed past "
              f"{(1 - args.threshold) * 100:.0f}% (threshold "
              f"{args.threshold}):")
        for data, op, variant in failures:
            print(f"  {data}/{op}/{variant}")
    if obs_failures:
        print(f"FAIL: {len(obs_failures)} observability overhead "
              f"verdicts failed:")
        for variant, query in obs_failures:
            print(f"  {variant}: {query}")
    if verify_failures:
        print(f"FAIL: {len(verify_failures)} verify_overhead verdicts "
              f"failed (compile-phase overhead >=2%):")
        for pct in verify_failures:
            print(f"  overhead {pct:.4f}%")
    if sort_failures:
        print(f"FAIL: {len(sort_failures)} queries sort more rows than the "
              f"baseline or emitted no sort_work record:")
        for query, b, c in sort_failures:
            print(f"  {query}: rows_sorted {b} -> "
                  f"{'missing' if c is None else c}")
    if failures or obs_failures or verify_failures or sort_failures:
        return 1
    print(f"ok: no gated series regressed past "
          f"{(1 - args.threshold) * 100:.0f}%"
          + (" and all observability verdicts passed" if args.obs else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
