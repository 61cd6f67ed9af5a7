// Lowering: logical extended-algebra plans to physical operator trees.
//
// Mapping (see physical.h for the operator inventory):
//   kRel     -> Scan            kUnion -> UnionMerge
//   kProject -> ProjectMap      kDiff  -> DiffAnti
//   kSelect  -> FilterSelect    kUnit  -> Singleton(unit)
//   kJoin    -> HashJoin when at least one condition is an equality with
//               one side per input (remaining conditions become the join's
//               residual filter); NestedLoopJoin otherwise
//   kEmpty   -> Singleton(empty)
//   kAdom    -> AdomScan
//
// The translation of `A and not B` yields X - project[@1..@n](join(X, Y,
// C)), n the arity of X. When every condition of C is such an equality and
// the projection and the join feed only the difference, the three nodes
// lower to one DiffAnti in anti-join form (keys from C, build on Y, probe
// with X); the join and projection never run, and X loses the consumer the
// join was. Every other difference lowers to the merge form.
//
// Logical plans are DAGs (the translator shares context subplans between a
// difference's two sides and among union branches); every node with more
// than one parent is wrapped in a Materialize so its result is computed
// once and then shared by pointer.
//
// Lowering resolves every scalar function against `registry` (errors are
// reported here, before execution); relation bindings are validated per
// execution, since the same plan may run against many databases. A plan
// over query parameters (kParam expressions, see src/algebra/expr.h) is
// lowered once with its parameter count; each execution binds the values.
#ifndef EMCALC_EXEC_LOWER_H_
#define EMCALC_EXEC_LOWER_H_

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/calculus/ast.h"
#include "src/exec/physical.h"
#include "src/storage/interpretation.h"

namespace emcalc {

// Lowers `plan` into an executable physical plan. `ctx` and `registry`
// must outlive the returned plan. Every kParam index must lie below
// `num_params`, the number of arguments each execution will bind.
StatusOr<PhysicalPlan> Lower(const AstContext& ctx, const AlgExpr* plan,
                             const FunctionRegistry& registry,
                             const ExecOptions& options = {},
                             int num_params = 0);

}  // namespace emcalc

#endif  // EMCALC_EXEC_LOWER_H_
