// One execution of a compiled plan as plain data: the single record that
// the query log ("run" lines) and the postmortem writer (bundles) both
// serialize. It is built in exactly one place, BuildRunRecord
// (src/exec/feedback.h), from the run's ExecProfile and Status;
// AppendRunRecordJson writes it and RunRecordFromJson reads it back, so
// the sinks cannot drift apart field by field.
#ifndef EMCALC_OBS_RUN_RECORD_H_
#define EMCALC_OBS_RUN_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json.h"

namespace emcalc::obs {

struct RunRecord {
  uint64_t query_hash = 0;    // HashQueryText of the query text
  std::string query;          // raw text (may be empty)
  bool ok = true;
  std::string error;          // status string when !ok
  std::string aborted_limit;  // governor limit that aborted the run; ""
  uint64_t wall_ns = 0;
  uint64_t rows_out = 0;      // answer rows; 0 for every failed run
  uint64_t exec_threads = 0;  // effective worker-thread cap
  // Query-level tracked-bytes high-water mark and cumulative allocation.
  uint64_t peak_bytes = 0;
  uint64_t bytes_allocated = 0;
  // busy/(wall*workers) over the plan's parallel regions and the largest
  // worker count any operator used; both 0 when nothing ran in parallel.
  double parallel_efficiency = 0;
  uint32_t par_workers = 0;
  // One sample per executed operator, in DFS order.
  struct Op {
    std::string path;  // stable operator path (src/exec/feedback.h)
    std::string op;    // display name, "HashJoin(keys=1)"
    uint64_t actual_rows = 0;
    // The operator's final normalize: rows it sorted (0 when its output
    // arrived in order) and the normalize's wall time (OpStats).
    uint64_t rows_sorted = 0;
    uint64_t normalize_ns = 0;
    bool operator==(const Op&) const = default;
  };
  std::vector<Op> ops;

  bool operator==(const RunRecord&) const = default;
};

// Appends the record's members to an open JSON object as `,"key":value`
// pairs. query_hash, ok and wall_ns are always written; every other member
// is omitted at its zero/empty value. The 64-bit hash travels as a decimal
// string (a JSON number would lose its low bits); doubles are written in
// their shortest round-trip form.
void AppendRunRecordJson(const RunRecord& run, std::string& out);

// Reads the members AppendRunRecordJson writes from a JSON object. Absent
// members keep their defaults; unknown members are ignored, so records
// written with since-removed keys still load. A count that is negative or
// out of range reads as 0.
RunRecord RunRecordFromJson(const JsonValue& v);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_RUN_RECORD_H_
