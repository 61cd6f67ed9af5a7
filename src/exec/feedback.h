// From an execution's ExecProfile to its obs::RunRecord — the record the
// query log and postmortem bundles serialize.
#ifndef EMCALC_EXEC_FEEDBACK_H_
#define EMCALC_EXEC_FEEDBACK_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/exec/physical.h"
#include "src/obs/run_record.h"

namespace emcalc {

// The one place an execution's RunRecord (src/obs/run_record.h) is built,
// as a "run" event. Fills identity and outcome from the arguments: ok/error
// from `status`, aborted_limit from a kResourceExhausted status's first
// word (the governor phrases trips "<limit> exceeded: ..."), and
// rows_out = 0 for every failed run. From `profile` it derives memory and
// parallel efficiency, and it carries the whole tree as the record's
// profile (ExecProfileToJson). string_pool_size is read at the call.
obs::RunRecord BuildRunRecord(uint64_t query_hash, const std::string& query,
                              const Status& status, uint64_t rows_out,
                              uint64_t wall_ns, uint64_t exec_threads,
                              const ExecProfile& profile);

}  // namespace emcalc

#endif  // EMCALC_EXEC_FEEDBACK_H_
