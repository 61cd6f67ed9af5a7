// Estimate-vs-actual plan feedback: every executed operator carries the
// planner's cardinality estimate (OpStats::est_rows) next to the measured
// rows_out. BuildPlanFeedback flattens a profile tree into a report
// ranking operators by misestimation factor — the quotient of the larger
// and the smaller of (estimate, actual), floored at 1 — so the worst
// planning decisions surface first. Surfaced via EXPLAIN ANALYZE and the
// repl's .feedback command; BuildRunRecord carries the same per-operator
// samples to the query log, history store and postmortem bundles.
#ifndef EMCALC_EXEC_FEEDBACK_H_
#define EMCALC_EXEC_FEEDBACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/exec/physical.h"
#include "src/obs/run_record.h"

namespace emcalc {

// Ceiling for misestimation factors: a wildly wrong (or overflowed)
// estimate reports this sentinel instead of inf, so rankings and JSON
// stay finite.
inline constexpr double kMisestimateFactorCap = 1e9;

// max(est, actual) / max(min(est, actual), 1), floored at 1 and capped at
// kMisestimateFactorCap. Guarded against est == 0 / actual == 0 (both zero
// is a perfect estimate → 1.0) and non-finite estimates (→ cap): never
// divides by zero, never returns inf or NaN.
double MisestimateFactor(double est_rows, double actual_rows);

// One operator's estimate-vs-actual comparison.
struct PlanFeedbackEntry {
  std::string op;        // "HashJoin(keys=1)" — kind plus detail
  double est_rows = 0;   // planner estimate
  uint64_t actual_rows = 0;
  // MisestimateFactor(est_rows, actual_rows): 1.0 is a perfect estimate,
  // 10.0 is an order of magnitude off in either direction.
  double factor = 1;
  bool underestimate = false;  // actual exceeded the estimate
  // Estimate provenance: 0 = static heuristic, > 0 = history-corrected
  // from this many recorded runs (OpStats::est_history_runs).
  uint64_t est_history_runs = 0;
};

// The report: entries sorted by descending factor (ties keep plan order).
struct PlanFeedback {
  std::vector<PlanFeedbackEntry> entries;
  double max_factor = 1;  // 1 when every estimate was perfect (or no ops)
  std::string worst_op;   // entry with the largest factor, "" if none

  // "HashJoin(keys=1): est 75 actual 4000 (53.3x under)" per line.
  std::string ToString() const;
  // {"max_factor":..,"worst_op":"..","entries":[{..},..]}
  std::string ToJson() const;
};

// Flattens `profile` into a feedback report. Operators without an
// estimate (est_rows < 0), shared-reference stubs, and Materialize nodes
// (pure cache plumbing) are skipped.
PlanFeedback BuildPlanFeedback(const ExecProfile& profile);

// --- History-store keying (src/obs/history.h) ---------------------------
//
// Both the plan (at lowering time) and the profile (at recording time)
// must derive the same stable key for an operator: the path from the root,
// "KindName" for the root and "<parent>/<child-idx>:KindName" below it,
// with child 0 = left input and 1 = right input. A node already visited
// (a shared materialized subplan) is keyed at its first visit only —
// exactly where BuildProfile puts its stats.

// Operator path for every op in `plan`, indexed by PhysicalOp::id.
// Ids never reached from the root (shared re-visits keep their first
// path) map to "".
std::vector<std::string> PlanOpPaths(const PhysicalPlan& plan);

// The one place an execution's RunRecord (src/obs/run_record.h) is built.
// Fills identity and outcome from the arguments: ok/error from `status`,
// aborted_limit from a kResourceExhausted status's first word (the
// governor phrases trips "<limit> exceeded: ..."), and rows_out = 0 for
// every failed run. From `profile` it derives memory, history-corrected op
// count, parallel efficiency, and one est-vs-actual sample per operator
// (same skip rules as BuildPlanFeedback); misestimate_* names the first
// sample in DFS order with the largest factor, the same operator
// BuildPlanFeedback ranks worst.
obs::RunRecord BuildRunRecord(uint64_t query_hash, const std::string& query,
                              const Status& status, uint64_t rows_out,
                              uint64_t wall_ns, uint64_t exec_threads,
                              const ExecProfile& profile);

// Number of operators in `profile` whose estimate was history-corrected
// (est_history_runs > 0; shared-reference stubs excluded).
size_t CountHistoryCorrectedOps(const ExecProfile& profile);

}  // namespace emcalc

#endif  // EMCALC_EXEC_FEEDBACK_H_
