// Estimate-vs-actual plan feedback: every executed operator carries the
// planner's cardinality estimate (OpStats::est_rows) next to the measured
// rows_out. BuildRunRecord derives one sample per operator into the run's
// obs::RunRecord — the record the query log, history store and postmortem
// bundles serialize — and FeedbackToString renders those samples ranked
// by misestimation factor (the quotient of the larger and the smaller of
// estimate and actual, floored at 1), so the worst planning decisions
// surface first. Surfaced via EXPLAIN ANALYZE and the repl's .feedback
// command.
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

// The feedback report over a run's ops (RunRecord::ops), stable-sorted by
// descending factor so ties keep plan order, one line per operator:
// "HashJoin(keys=1): est 75 actual 4000 (53.3x under)", with a
// " [history:N]" suffix on estimates corrected from N recorded runs.
std::string FeedbackToString(std::vector<obs::RunRecord::Op> ops);

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
// count, parallel efficiency, and one est-vs-actual sample per operator in
// DFS order — skipping operators without an estimate (est_rows < 0),
// shared-reference stubs and Materialize nodes (pure cache plumbing);
// misestimate_* names the first sample with the largest factor, the
// operator FeedbackToString ranks worst.
obs::RunRecord BuildRunRecord(uint64_t query_hash, const std::string& query,
                              const Status& status, uint64_t rows_out,
                              uint64_t wall_ns, uint64_t exec_threads,
                              const ExecProfile& profile);

// Number of operators in `profile` whose estimate was history-corrected
// (est_history_runs > 0; shared-reference stubs excluded).
size_t CountHistoryCorrectedOps(const ExecProfile& profile);

}  // namespace emcalc

#endif  // EMCALC_EXEC_FEEDBACK_H_
