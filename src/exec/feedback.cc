#include "src/exec/feedback.h"

#include <algorithm>

#include "src/base/string_pool.h"

namespace emcalc {

obs::RunRecord BuildRunRecord(uint64_t query_hash, const std::string& query,
                              const Status& status, uint64_t rows_out,
                              uint64_t wall_ns, uint64_t exec_threads,
                              const ExecProfile& profile) {
  obs::RunRecord run;
  run.event = "run";
  run.query_hash = query_hash;
  run.query = query;
  run.ok = status.ok();
  if (!status.ok()) {
    run.error = status.ToString();
    if (status.code() == StatusCode::kResourceExhausted) {
      const std::string& msg = status.message();
      run.aborted_limit = msg.substr(0, msg.find(' '));
    }
  }
  run.wall_ns = wall_ns;
  run.rows_out = status.ok() ? rows_out : 0;
  run.exec_threads = exec_threads;
  run.peak_bytes =
      static_cast<uint64_t>(std::max<int64_t>(profile.total_peak_bytes, 0));
  run.bytes_allocated = profile.total_bytes_allocated;
  ParallelSummary par = SumParallel(profile);
  if (par.max_workers > 1) {
    run.parallel_efficiency = par.Efficiency();
    run.par_workers = par.max_workers;
  }
  run.profile = ExecProfileToJson(profile);
  run.string_pool_size = StringPool::Global().size();
  return run;
}

}  // namespace emcalc
