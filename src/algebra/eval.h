// Evaluation of extended-algebra plans against a database instance and a
// scalar-function interpretation.
//
// EvaluateAlgebra is a thin compatibility wrapper over the physical
// execution layer (src/exec/): the plan is lowered to physical operators
// (hash joins for equality conditions, Materialize nodes for DAG-shared
// subplans) and executed with shared-ownership results; the flat
// ExecTotals are SumProfile of the per-operator ExecProfile. Callers that
// want the per-operator breakdown should use Lower() +
// PhysicalPlan::Execute directly (see src/exec/lower.h).
//
// EvaluateAlgebraLegacy is the original one-shot recursive interpreter,
// kept as a differential-testing oracle for the execution layer (it
// deep-copies materialized relations at every node — correct, slow, and
// structurally independent of the physical operators). It stays because
// it is the only reference that reaches the 6 000-row suites of
// tests/exec_test.cc and tests/batch_exec_test.cc, which span several
// morsels and run at 1, 2, 4 and hardware-many threads; the calculus
// evaluator's term^k closure cannot run at that size.
#ifndef EMCALC_ALGEBRA_EVAL_H_
#define EMCALC_ALGEBRA_EVAL_H_

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/exec/physical.h"
#include "src/storage/adom.h"
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

// The pre-physical-layer recursive interpreter, kept as a differential
// oracle (tests/exec_test.cc). Same contract as EvaluateAlgebra, except
// that it fills only rows_in, rows_out and function_calls, reads only
// options.adom_budget, and always runs sequentially.
StatusOr<Relation> EvaluateAlgebraLegacy(
    const AstContext& ctx, const AlgExpr* plan, const Database& db,
    const FunctionRegistry& registry, ExecTotals* totals = nullptr,
    const ExecOptions& options = {});

}  // namespace emcalc

#endif  // EMCALC_ALGEBRA_EVAL_H_
