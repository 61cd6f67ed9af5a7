// From an execution's ExecProfile to its obs::RunRecord — the record the
// query log and postmortem bundles serialize. Every executed operator
// contributes its measured rows_out and sort split under a stable operator
// path, so records of the same query line up run after run.
#ifndef EMCALC_EXEC_FEEDBACK_H_
#define EMCALC_EXEC_FEEDBACK_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/exec/physical.h"
#include "src/obs/run_record.h"

namespace emcalc {

// The one place an execution's RunRecord (src/obs/run_record.h) is built.
// Fills identity and outcome from the arguments: ok/error from `status`,
// aborted_limit from a kResourceExhausted status's first word (the
// governor phrases trips "<limit> exceeded: ..."), and rows_out = 0 for
// every failed run. From `profile` it derives memory, parallel efficiency,
// and one sample per operator in DFS order, skipping shared-reference
// stubs and Materialize nodes (pure cache plumbing). An operator's path is
// "KindName" for the root and "<parent>/<child-idx>:KindName" below it,
// with child 0 = left input and 1 = right input.
obs::RunRecord BuildRunRecord(uint64_t query_hash, const std::string& query,
                              const Status& status, uint64_t rows_out,
                              uint64_t wall_ns, uint64_t exec_threads,
                              const ExecProfile& profile);

}  // namespace emcalc

#endif  // EMCALC_EXEC_FEEDBACK_H_
