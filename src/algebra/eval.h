// Evaluation of extended-algebra plans against a database instance and a
// scalar-function interpretation.
//
// EvaluateAlgebra is a thin compatibility wrapper over the physical
// execution layer (src/exec/): the plan is lowered to physical operators
// (hash joins for equality conditions, Materialize nodes for DAG-shared
// subplans) and executed with shared-ownership results; the flat
// ExecTotals are SumProfile of the per-operator ExecProfile. Callers that
// want the per-operator breakdown should use Lower() +
// PhysicalPlan::Execute directly (see src/exec/lower.h). The tests check
// its answers against the reference calculus evaluator
// (src/eval/calculus_eval.h), the one semantic oracle.
#ifndef EMCALC_ALGEBRA_EVAL_H_
#define EMCALC_ALGEBRA_EVAL_H_

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/exec/physical.h"
#include "src/storage/database.h"
#include "src/storage/interpretation.h"

namespace emcalc {

// Evaluates `plan` through the physical execution layer. Fails (without
// evaluating) if the plan references unknown relations/functions or uses
// them with the wrong arity, and at runtime only if an adom closure
// exceeds its budget. A successful run overwrites `*totals` (if non-null)
// with SumProfile of its profile.
StatusOr<Relation> EvaluateAlgebra(const AstContext& ctx, const AlgExpr* plan,
                                   const Database& db,
                                   const FunctionRegistry& registry,
                                   ExecTotals* totals = nullptr,
                                   const ExecOptions& options = {});

}  // namespace emcalc

#endif  // EMCALC_ALGEBRA_EVAL_H_
