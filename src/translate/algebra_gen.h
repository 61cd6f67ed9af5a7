// Step (4) of the translation: syntax-directed mapping from RANF formulas
// to extended-algebra plans.
//
// The generator threads a context plan E whose columns are bound to a list
// of variables `cols`. Applying a subformula phi to (E, cols) yields a plan
// whose columns are cols plus the variables newly bound by phi:
//
//   R(t...)    -> join(conds, E, R) + projection   (binds variable args)
//   t1 = x     -> project([*cols, expr(t1)], E)    (extended projection)
//   t1 = t2    -> select({expr1 == expr2}, E)      (both sides over cols)
//   t1 != t2   -> select({expr1 != expr2}, E)
//   not psi    -> E - apply(E, psi)                (difference)
//   and        -> left-to-right composition
//   or         -> union of branches projected to a common column order
//   exists X   -> projection dropping X's columns
//
// The translation starts from E = unit (the arity-0 relation holding the
// empty tuple) and finishes by projecting to the query head.
//
// A formula in RANF for a parameter context X (the paper's "em-allowed for
// X", Section 9) translates relative to X: a parameter counts as bound
// everywhere, compiles to the scalar $x (ExprFactory::Param), and in an
// atom position becomes a join condition, never a new column. The plan is
// then independent of the argument values, which each execution binds.
#ifndef EMCALC_TRANSLATE_ALGEBRA_GEN_H_
#define EMCALC_TRANSLATE_ALGEBRA_GEN_H_

#include <map>
#include <vector>

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/base/symbol_set.h"
#include "src/calculus/ast.h"

namespace emcalc {

// A plan plus the variable each of its columns is bound to.
struct BoundPlan {
  const AlgExpr* plan = nullptr;
  std::vector<Symbol> cols;
};

// Generates a plan for a RANF formula. `rel_arities` is consulted for base
// relation arities (from calculus/analysis.h CollectRelations).
class AlgebraGenerator {
 public:
  // `inverses` maps invertible function symbols to their inverse function
  // symbols: g(x) = t with g invertible compiles to binding x := ginv(t)
  // followed by the membership check g(x) == t (g need not be surjective).
  // `params` are the parameter variables; params[i] compiles to $i.
  explicit AlgebraGenerator(AstContext& ctx,
                            std::map<Symbol, Symbol> inverses = {},
                            std::vector<Symbol> params = {})
      : factory_(ctx), inverses_(std::move(inverses)),
        params_(std::move(params)), param_set_(params_) {}

  // Applies `f` to the context plan. `f` must be in RANF for the variable
  // set of `input.cols`; violations produce kInternal errors (the RANF pass
  // is responsible for establishing the form).
  StatusOr<BoundPlan> Apply(const BoundPlan& input, const Formula* f);

  // Translates a whole RANF body and projects to `head` order.
  StatusOr<const AlgExpr*> Translate(const Formula* body,
                                     const std::vector<Symbol>& head);

  AlgebraFactory& factory() { return factory_; }

 private:
  // Compiles a term over bound columns and parameters into a scalar
  // expression; kInternal if the term mentions an unbound variable.
  StatusOr<const ScalarExpr*> CompileTerm(const Term* t,
                                          const std::vector<Symbol>& cols);

  StatusOr<BoundPlan> ApplyRel(const BoundPlan& input, const Formula* f);
  StatusOr<BoundPlan> ApplyEq(const BoundPlan& input, const Formula* f);
  StatusOr<BoundPlan> ApplyOr(const BoundPlan& input, const Formula* f);

  // Variables bound in the context plan: its columns plus the parameters.
  SymbolSet Bound(const std::vector<Symbol>& cols) const {
    return SymbolSet(cols).Union(param_set_);
  }

  AlgebraFactory factory_;
  std::map<Symbol, Symbol> inverses_;
  std::vector<Symbol> params_;
  SymbolSet param_set_;
};

}  // namespace emcalc

#endif  // EMCALC_TRANSLATE_ALGEBRA_GEN_H_
