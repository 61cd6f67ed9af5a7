// Shared helpers for the experiment binaries: a tiny report printer used
// to emit the paper-claim vs measured tables before the google-benchmark
// timing runs, plus machine-readable emission of execution profiles.
//
// Record files (BENCH_exec.json, BENCH_obs.json, ...) are JSON Lines —
// one object per line, appended within a run; a re-run truncates each
// file it writes so records never accumulate across runs. Every record
// carries `schema` (kBenchSchemaVersion, bumped on layout changes) and a
// `metrics` block (the process metrics-registry snapshot at emission
// time), so records from different PRs stay machine-comparable.
#ifndef EMCALC_BENCH_BENCH_UTIL_H_
#define EMCALC_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "src/exec/physical.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"

namespace emcalc::bench {

// Version of the JSON-Lines record layout shared by all BENCH_*.json
// files. v1: bare exec records; v2: adds schema + metrics snapshot;
// v3: profiles use the canonical ExecProfileToJson layout (memory
// accounting per operator, round-trippable via ExecProfileFromJson);
// v4: profiles no longer carry cardinality estimates.
inline constexpr int kBenchSchemaVersion = 4;

// Prints the experiment banner; every bench binary calls this first so the
// combined bench_output.txt is self-describing.
inline void Banner(const char* experiment, const char* claim) {
  std::printf("==========================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==========================================================\n");
}

inline std::string JsonEscape(const std::string& s) {
  return obs::JsonEscape(s);
}

// Appends one JSON-Lines record to `file`, completing `fields` (the
// record's own "key":value pairs, comma-separated, no braces) with the
// shared schema-version field and the current metrics snapshot.
//
// The first write to a given file in this process truncates it, so
// re-running a bench binary in the same directory replaces its records
// instead of accumulating duplicates; later writes (same process) append.
inline void AppendRecordLine(const std::string& file,
                             const std::string& fields) {
  static std::set<std::string>* truncated = new std::set<std::string>();
  std::string line = "{\"schema\":" + std::to_string(kBenchSchemaVersion);
  line += "," + fields;
  line += ",\"metrics\":" + obs::MetricsRegistry::Instance().JsonSnapshot();
  line += "}\n";
  const bool fresh = truncated->insert(file).second;
  std::ofstream out(file, fresh ? std::ios::trunc : std::ios::app);
  out << line;
}

// Appends one execution record to BENCH_exec.json in the working
// directory.
inline void AppendExecRecord(const std::string& bench,
                             const std::string& query,
                             const std::string& variant, size_t instance_rows,
                             size_t answer_rows, const ExecProfile& profile) {
  ExecTotals totals = SumProfile(profile);
  std::string fields = "\"bench\":\"" + JsonEscape(bench) + "\"";
  fields += ",\"query\":\"" + JsonEscape(query) + "\"";
  fields += ",\"variant\":\"" + JsonEscape(variant) + "\"";
  fields += ",\"instance_rows\":" + std::to_string(instance_rows);
  fields += ",\"answer_rows\":" + std::to_string(answer_rows);
  fields += ",\"tuples_scanned\":" + std::to_string(totals.rows_in);
  fields += ",\"tuples_produced\":" + std::to_string(totals.rows_out);
  fields += ",\"function_calls\":" + std::to_string(totals.function_calls);
  fields += ",\"tuple_copies\":" + std::to_string(totals.tuple_copies);
  // The one profile encoder, as in run records, so bench records
  // round-trip through ExecProfileFromJson like any other profile.
  fields += ",\"profile\":";
  obs::AppendJson(ExecProfileToJson(profile), fields);
  AppendRecordLine("BENCH_exec.json", fields);
}

// Standard main: honor the observability env vars (EMCALC_TRACE,
// EMCALC_QUERY_LOG), print the report, then run the registered
// benchmarks.
#define EMCALC_BENCH_MAIN(report_fn)                       \
  int main(int argc, char** argv) {                        \
    ::emcalc::obs::InitTracingFromEnv();                   \
    ::emcalc::obs::InitQueryLogFromEnv();                  \
    report_fn();                                           \
    ::benchmark::Initialize(&argc, argv);                  \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                 \
    ::benchmark::Shutdown();                               \
    return 0;                                              \
  }

}  // namespace emcalc::bench

#endif  // EMCALC_BENCH_BENCH_UTIL_H_
