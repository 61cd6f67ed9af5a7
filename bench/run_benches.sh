#!/usr/bin/env bash
# Produces the canonical bench artifacts at the repo root:
#
#   BENCH_perf.json    kernel + operator-stack rows/sec, verifier overhead
#                      and per-query sort work (bench_flat_exec)
#   BENCH_obs.json     observability overhead guard (bench_obs_overhead)
#
# bench_plan_quality runs too; it prints its plan-size tables (E10) and
# writes no record file.
#
# Usage: bench/run_benches.sh [BUILD_DIR]
#
# BUILD_DIR defaults to "build" and must already contain the compiled
# bench binaries (cmake --build BUILD_DIR --target bench_flat_exec
# bench_obs_overhead bench_plan_quality). Each binary runs in table mode only
# (--benchmark_filter=NONE skips the google-benchmark timing loops) inside
# a scratch directory, so the JSON-Lines files are written fresh — no
# stale records accumulate across runs. The finished files are then moved
# to the repo root, overwriting the previous artifacts.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac

for bin in bench_flat_exec bench_obs_overhead bench_plan_quality; do
  if [[ ! -x "$build_dir/bench/$bin" ]]; then
    echo "error: $build_dir/bench/$bin not built" >&2
    echo "hint: cmake --build $build_dir --target $bin" >&2
    exit 1
  fi
done

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"

echo "== bench_flat_exec (BENCH_perf.json) =="
"$build_dir/bench/bench_flat_exec" --benchmark_filter=NONE
echo
echo "== bench_obs_overhead (BENCH_obs.json) =="
"$build_dir/bench/bench_obs_overhead" --benchmark_filter=NONE
echo
echo "== bench_plan_quality (tables only) =="
"$build_dir/bench/bench_plan_quality" --benchmark_filter=NONE

mv BENCH_perf.json "$repo_root/BENCH_perf.json"
mv BENCH_obs.json "$repo_root/BENCH_obs.json"
echo
echo "wrote $repo_root/BENCH_perf.json and $repo_root/BENCH_obs.json"
