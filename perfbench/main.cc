// emcalc_perfbench: the end-to-end benchmark of the calculus compiler.
//
//   emcalc_perfbench --workload adhoc|payroll|prepared --seed N
//                    --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints human-readable lines, then as its last line one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// With --trace 0 the metrics are the end-to-end metrics of the untraced
// run; with --trace 1 they are the per-layer metrics of the traced run.
// perfbench/run.py builds this binary and sanitizes the environment.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/harness.h"
#include "src/base/thread_pool.h"
#include "src/obs/json.h"

namespace {

using emcalc::perfbench::MetricMap;
using emcalc::perfbench::Options;
using emcalc::perfbench::WorkloadResult;

// Knobs that would add work (logs, history, verification) or change the
// executor's behaviour; the benchmark refuses to run with any of them set.
const char* const kForbiddenEnv[] = {
    "EMCALC_QUERY_LOG",      "EMCALC_QUERY_LOG_MAX_BYTES",
    "EMCALC_HISTORY_DIR",    "EMCALC_TRACE",
    "EMCALC_VERIFY",         "EMCALC_LINT",
    "EMCALC_POSTMORTEM_DIR", "EMCALC_MAX_QUERY_BYTES",
    "EMCALC_MAX_QUERY_MS",   "EMCALC_MORSEL_THRESHOLD",
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: emcalc_perfbench --workload "
               "adhoc|payroll|prepared --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               msg);
  return 2;
}

std::string MetricsJson(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += first ? "\"" : ", \"";
    first = false;
    out += emcalc::obs::JsonEscape(name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += emcalc::obs::JsonEscape(metric.unit);
    out += "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opts.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (key == "--trace-out") {
      opts.trace_out = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  if (opts.seconds < 1 || opts.seconds > 600) return Usage("bad --seconds");
  if (!have_trace) return Usage("--trace must be 0 or 1");

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return Usage("refusing an unoptimized or assert-enabled build (a Debug "
               "build turns the stage verifier on)");
#endif
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      return Usage((std::string(name) + " is set; unset it").c_str());
    }
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* threads_env = std::getenv("EMCALC_HARDWARE_THREADS");
  if (threads_env == nullptr) {
    return Usage("EMCALC_HARDWARE_THREADS must pin the morsel pool");
  }
  const size_t threads = emcalc::ThreadPool::HardwareThreads();
  if (std::to_string(threads) != threads_env || (nproc > 0 && threads > nproc)) {
    return Usage("EMCALC_HARDWARE_THREADS must be a count in [1, nproc]");
  }

  WorkloadResult r;
  if (opts.workload == "adhoc") {
    r = emcalc::perfbench::RunAdhoc(opts);
  } else if (opts.workload == "payroll") {
    r = emcalc::perfbench::RunPayroll(opts);
  } else if (opts.workload == "prepared") {
    r = emcalc::perfbench::RunPrepared(opts);
  } else {
    return Usage("unknown workload");
  }
  emcalc::perfbench::Put(r.per_layer, "check.reference_checked",
                         static_cast<double>(r.checked), "count");
  emcalc::perfbench::CompletePerLayer(r.per_layer);

  std::printf("workload=%s seed=%llu seconds=%d trace=%d build=%s "
              "threads=%zu nproc=%u\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, EMCALC_PERFBENCH_BUILD_TYPE,
              threads, nproc);
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  for (const MetricMap* m : {&r.end_to_end, &r.per_layer}) {
    if (m == &r.per_layer && !opts.trace) break;
    for (const auto& [name, metric] : *m) {
      std::printf("  %-36s %16.4f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(opts.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}
