// The traced stage path: one query compiled through the public functions
// that TranslateQuery and Compiler::Compile call, in their order, with one
// span per call. Nothing inside the program is instrumented; the spans sit
// around the calls, in the benchmark's own code.
#ifndef EMCALC_PERFBENCH_STAGES_H_
#define EMCALC_PERFBENCH_STAGES_H_

#include <optional>
#include <string_view>

#include "perfbench/harness.h"
#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/calculus/ast.h"
#include "src/exec/physical.h"
#include "src/storage/interpretation.h"

namespace emcalc::perfbench {

// What the stage path produced, with the per-stage counts.
struct StageResult {
  Status status = Status::Ok();  // first failing stage's status
  const AlgExpr* plan = nullptr;  // optimized plan, when reached
  std::optional<PhysicalPlan> physical;
  double bd_computations = 0;
  double find_count = 0;
  double enf_size = 0;
  double ranf_size = 0;
  double raw_plan_nodes = 0;
  double plan_nodes = 0;
  double physical_ops = 0;

  void AccumulateInto(StageResult& sum) const;
};

// Parse, rectify, em-allowed check, ENF, RANF, algebra generation,
// optimization and lowering of `text` in `ctx`, each under its own span
// (children of `parent`). Stops at the first failing stage.
StageResult CompileStages(Tracer& tracer, uint64_t op, int parent,
                          AstContext& ctx, const FunctionRegistry& functions,
                          std::string_view text);

// Lowers `plan` under an "exec.lower" span (the tail shared by the ad hoc
// and prepared paths).
StatusOr<PhysicalPlan> LowerTraced(Tracer& tracer, uint64_t op, int parent,
                                   const AstContext& ctx,
                                   const FunctionRegistry& functions,
                                   const AlgExpr* plan,
                                   std::string_view text);

// Adds the compile-stage metrics (mean per op over `ops` traced ops):
// self times from the tracer's spans and the summed counts in `sum`.
void EmitStageMetrics(const Tracer& tracer, const StageResult& sum,
                      double ops, MetricMap& out);

}  // namespace emcalc::perfbench

#endif  // EMCALC_PERFBENCH_STAGES_H_
