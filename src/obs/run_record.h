// One compile or one execution as plain data: the single record that every
// sink writes and reads. The query log writes one per line ("compile" and
// "run" events), postmortem bundles embed a failed run's record, and
// emcalc-inspect reads both back through RunRecordFromJson. A run's record
// is built in exactly one place, BuildRunRecord (src/exec/feedback.h), from
// its ExecProfile and Status; a compile's in the compiler. One writer,
// AppendRunRecordJson, and one reader, RunRecordFromJson, serve every
// sink, so the sinks cannot drift apart field by field.
#ifndef EMCALC_OBS_RUN_RECORD_H_
#define EMCALC_OBS_RUN_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/diag/diagnostic.h"
#include "src/obs/json.h"

namespace emcalc::obs {

struct RunRecord {
  std::string event;          // "compile" | "run"
  uint64_t query_hash = 0;    // HashQueryText of the query text
  std::string query;          // raw text (may be empty)
  bool ok = true;
  std::string error;          // status string when !ok
  std::string aborted_limit;  // governor limit that aborted the run; ""
  uint64_t wall_ns = 0;

  // Execution members ("run" records).
  uint64_t rows_out = 0;      // answer rows; 0 for every failed run
  uint64_t exec_threads = 0;  // effective worker-thread cap
  // Query-level tracked-bytes high-water mark and cumulative allocation.
  uint64_t peak_bytes = 0;
  uint64_t bytes_allocated = 0;
  // busy/(wall*workers) over the plan's parallel regions and the largest
  // worker count any operator used; both 0 when nothing ran in parallel.
  double parallel_efficiency = 0;
  uint32_t par_workers = 0;
  // The run's per-operator profile tree in ExecProfileToJson's layout
  // (src/exec/physical.h): rows, time, sort split, memory and parallelism
  // per operator. kNull when the record has no profile.
  JsonValue profile;

  // Compile analysis ("compile" records).
  bool em_allowed = false;
  int level = 0;       // function-application count (||phi|| proxy)
  int find_count = 0;  // |bd(body)| after the safety check
  int ranf_size = 0;   // formula nodes in the RANF form
  int plan_nodes = 0;  // nodes in the optimized plan
  // Per-phase wall time, (dotted phase path, ns) (obs::FlattenPhases).
  std::vector<std::pair<std::string, uint64_t>> phases;
  // Front-end diagnostics: lint findings and, on rejection, the safety
  // blame trace, attached when the compiler runs with EMCALC_LINT=1. See
  // docs/diagnostics.md for the JSON schema.
  std::vector<diag::Diagnostic> diagnostics;

  // Interned values in the process StringPool when the record was built
  // (both events): tracks intern-pool growth across a workload.
  uint64_t string_pool_size = 0;

  bool operator==(const RunRecord&) const = default;
};

// Appends the record's members to an open JSON object as "key":value
// pairs, each preceded by a comma unless `out` ends with the object's '{'.
// query_hash, ok and wall_ns are always written; the compile analysis
// (em_allowed, level, find_count, ranf_size, plan_nodes) is written on
// "compile" records only; every other member is omitted at its zero or
// empty value. The 64-bit hash travels as a decimal string (a JSON number
// would lose its low bits); doubles are written in their shortest
// round-trip form.
void AppendRunRecordJson(const RunRecord& run, std::string& out);

// The record as one JSON object: a query-log line, without the newline.
std::string RunRecordToJson(const RunRecord& run);

// Reads the members AppendRunRecordJson writes from a JSON object. Absent
// members keep their defaults; unknown members are ignored, so records
// written with since-removed keys (an old run line's "ops" samples, an old
// bundle's "pool") still load. A count that is negative or out of range
// reads as 0.
RunRecord RunRecordFromJson(const JsonValue& v);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_RUN_RECORD_H_
