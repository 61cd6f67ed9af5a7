// Evaluation of extended-algebra plans against a database instance and a
// scalar-function interpretation.
//
// EvaluateAlgebra is a thin compatibility wrapper over the physical
// execution layer (src/exec/): the plan is lowered to physical operators
// (hash joins for equality conditions, Materialize nodes for DAG-shared
// subplans) and executed with shared-ownership results; the flat
// AlgebraEvalStats counters are aggregated from the per-operator
// ExecProfile. Callers that want the per-operator breakdown should use
// Lower() + PhysicalPlan::Execute directly (see src/exec/lower.h).
//
// EvaluateAlgebraLegacy is the original one-shot recursive interpreter,
// kept as a differential-testing oracle for the execution layer (it
// deep-copies materialized relations at every node — correct, slow, and
// structurally independent of the physical operators).
#ifndef EMCALC_ALGEBRA_EVAL_H_
#define EMCALC_ALGEBRA_EVAL_H_

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/storage/adom.h"
#include "src/storage/database.h"
#include "src/storage/interpretation.h"

namespace emcalc {

// Flat cost counters accumulated over one evaluation. Aggregated from the
// execution layer's per-operator ExecProfile; kept for callers that only
// need totals.
struct AlgebraEvalStats {
  uint64_t tuples_produced = 0;   // summed over every operator's output
  uint64_t tuples_scanned = 0;    // summed over every operator's inputs
  uint64_t function_calls = 0;    // scalar function applications
  uint64_t tuple_copies = 0;      // existing tuples copied between buffers
};

// Evaluation knobs.
struct AlgebraEvalOptions {
  // Budget for kAdom term closures (values). The direct translation never
  // emits kAdom; only the AB88-style baseline does.
  size_t adom_budget = 10'000'000;
  // Worker threads for the physical layer's morsel-parallel operators
  // (forwarded to ExecOptions::num_threads). 0 means hardware
  // concurrency; 1 disables parallelism. Results are identical for every
  // value. Ignored by EvaluateAlgebraLegacy, which is always sequential.
  size_t num_threads = 0;
};

// Evaluates `plan` through the physical execution layer. Fails (without
// evaluating) if the plan references unknown relations/functions or uses
// them with the wrong arity, and at runtime only if an adom closure
// exceeds its budget.
StatusOr<Relation> EvaluateAlgebra(const AstContext& ctx, const AlgExpr* plan,
                                   const Database& db,
                                   const FunctionRegistry& registry,
                                   AlgebraEvalStats* stats = nullptr,
                                   const AlgebraEvalOptions& options = {});

// The pre-physical-layer recursive interpreter, kept as a differential
// oracle (tests/exec_test.cc). Same contract as EvaluateAlgebra; does not
// fill tuple_copies.
StatusOr<Relation> EvaluateAlgebraLegacy(
    const AstContext& ctx, const AlgExpr* plan, const Database& db,
    const FunctionRegistry& registry, AlgebraEvalStats* stats = nullptr,
    const AlgebraEvalOptions& options = {});

}  // namespace emcalc

#endif  // EMCALC_ALGEBRA_EVAL_H_
