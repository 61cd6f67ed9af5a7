#include "src/algebra/eval.h"

#include "src/exec/lower.h"

namespace emcalc {

StatusOr<Relation> EvaluateAlgebra(const AstContext& ctx, const AlgExpr* plan,
                                   const Database& db,
                                   const FunctionRegistry& registry,
                                   ExecTotals* totals,
                                   const ExecOptions& options) {
  auto physical = Lower(ctx, plan, registry, options);
  if (!physical.ok()) return physical.status();
  ExecProfile profile;
  auto result =
      physical->ExecuteToRelation(db, totals != nullptr ? &profile : nullptr);
  if (result.ok() && totals != nullptr) *totals = SumProfile(profile);
  return result;
}

}  // namespace emcalc
