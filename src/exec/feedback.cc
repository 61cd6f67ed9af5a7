#include "src/exec/feedback.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace emcalc {

double MisestimateFactor(double est_rows, double actual_rows) {
  double hi = std::max(est_rows, actual_rows);
  double lo = std::min(est_rows, actual_rows);
  if (hi <= 0) return 1.0;  // est 0, actual 0: a perfect estimate
  double f = hi / std::max(lo, 1.0);
  // An overflowed estimate (inf) or any other non-finite quotient reports
  // the cap sentinel, never inf/NaN in a ranking or JSON record.
  if (!std::isfinite(f)) return kMisestimateFactorCap;
  if (f < 1.0) return 1.0;
  return std::min(f, kMisestimateFactorCap);
}

namespace {

std::string FormatRows(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

std::string FormatFactor(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

// Plan-side DFS mirroring BuildProfile: non-null children in (left, right)
// order, first visit wins for shared (materialized) subplans.
void WalkPlanPaths(const PhysicalOp* op, const std::string& path,
                   std::vector<bool>& visited,
                   std::vector<std::string>& paths) {
  auto id = static_cast<size_t>(op->id);
  if (id >= visited.size() || visited[id]) return;
  visited[id] = true;
  paths[id] = path;
  int child_idx = 0;
  for (const PhysicalOp* child : {op->left, op->right}) {
    if (child == nullptr) continue;
    WalkPlanPaths(child,
                  path + "/" + std::to_string(child_idx) + ":" +
                      PhysOpKindName(child->kind),
                  visited, paths);
    ++child_idx;
  }
}

// Profile-side DFS: children are stored in the same (left, right) order
// and shared re-visits are shared_ref stubs, so paths line up with
// WalkPlanPaths by construction.
void CollectRunOps(const ExecProfile& p, const std::string& path,
                   std::vector<obs::RunRecord::Op>& ops) {
  if (p.shared_ref) return;
  if (p.op != PhysOpKind::kMaterialize && p.stats.est_rows >= 0) {
    obs::RunRecord::Op op;
    op.path = path;
    op.op = PhysOpKindName(p.op);
    if (!p.detail.empty()) op.op += "(" + p.detail + ")";
    op.est_rows = p.stats.est_rows;
    op.actual_rows = p.stats.rows_out;
    op.factor = MisestimateFactor(p.stats.est_rows,
                                  static_cast<double>(p.stats.rows_out));
    op.est_history_runs = p.stats.est_history_runs;
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

std::string FeedbackToString(std::vector<obs::RunRecord::Op> ops) {
  if (ops.empty()) return "no feedback: no estimated operators ran\n";
  std::stable_sort(ops.begin(), ops.end(),
                   [](const obs::RunRecord::Op& a,
                      const obs::RunRecord::Op& b) {
                     return a.factor > b.factor;
                   });
  std::string out;
  for (const obs::RunRecord::Op& op : ops) {
    out += op.op + ": est " + FormatRows(op.est_rows) + " actual " +
           std::to_string(op.actual_rows);
    if (op.factor > 1.0) {
      bool under = static_cast<double>(op.actual_rows) > op.est_rows;
      out += " (" + FormatFactor(op.factor) + "x " +
             (under ? "under" : "over") + ")";
    } else {
      out += " (exact)";
    }
    if (op.est_history_runs > 0) {
      // Provenance marker only on history-corrected estimates, so
      // heuristic lines render exactly as before.
      out += " [history:" + std::to_string(op.est_history_runs) + "]";
    }
    out += "\n";
  }
  return out;
}

std::vector<std::string> PlanOpPaths(const PhysicalPlan& plan) {
  std::vector<std::string> paths(static_cast<size_t>(plan.NumOperators()));
  if (plan.root() == nullptr) return paths;
  std::vector<bool> visited(paths.size(), false);
  WalkPlanPaths(plan.root(), PhysOpKindName(plan.root()->kind), visited,
                paths);
  return paths;
}

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
  run.est_history_ops = CountHistoryCorrectedOps(profile);
  ParallelSummary par = SumParallel(profile);
  if (par.max_workers > 1) {
    run.parallel_efficiency = par.Efficiency();
    run.par_workers = par.max_workers;
  }
  CollectRunOps(profile, PhysOpKindName(profile.op), run.ops);
  for (const obs::RunRecord::Op& op : run.ops) {
    if (op.factor > run.misestimate_factor) {
      run.misestimate_factor = op.factor;
      run.misestimate_op = op.op;
    }
  }
  return run;
}

size_t CountHistoryCorrectedOps(const ExecProfile& profile) {
  if (profile.shared_ref) return 0;
  size_t n = profile.stats.est_history_runs > 0 ? 1 : 0;
  for (const ExecProfile& c : profile.children) {
    n += CountHistoryCorrectedOps(c);
  }
  return n;
}

}  // namespace emcalc
