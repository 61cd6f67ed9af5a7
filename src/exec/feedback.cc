#include "src/exec/feedback.h"

#include <algorithm>
#include <utility>

namespace emcalc {

namespace {

// Profile DFS: children are stored in (left, right) order and shared
// re-visits are shared_ref stubs, so each operator is sampled once, under
// the path of its first visit.
void CollectRunOps(const ExecProfile& p, const std::string& path,
                   std::vector<obs::RunRecord::Op>& ops) {
  if (p.shared_ref) return;
  if (p.op != PhysOpKind::kMaterialize) {
    obs::RunRecord::Op op;
    op.path = path;
    op.op = PhysOpKindName(p.op);
    if (!p.detail.empty()) op.op += "(" + p.detail + ")";
    op.actual_rows = p.stats.rows_out;
    op.rows_sorted = p.stats.rows_sorted;
    op.normalize_ns = p.stats.normalize_ns;
    ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < p.children.size(); ++i) {
    CollectRunOps(p.children[i],
                  path + "/" + std::to_string(i) + ":" +
                      PhysOpKindName(p.children[i].op),
                  ops);
  }
}

}  // namespace

obs::RunRecord BuildRunRecord(uint64_t query_hash, const std::string& query,
                              const Status& status, uint64_t rows_out,
                              uint64_t wall_ns, uint64_t exec_threads,
                              const ExecProfile& profile) {
  obs::RunRecord run;
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
  CollectRunOps(profile, PhysOpKindName(profile.op), run.ops);
  return run;
}

}  // namespace emcalc
