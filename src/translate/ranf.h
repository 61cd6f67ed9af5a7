// Step (3) of the translation: RANF (Relational Algebra Normal Form).
//
// A formula is RANF for a context X (the variables already bound to finite
// column sets by the time the subformula is evaluated) when every part can
// be mapped directly to an algebra operator:
//
//   - relation atoms are *constructive*: argument terms are either bare
//     variables (which the atom binds from the relation's columns) or terms
//     entirely over X (compiled to join conditions). Transformation T16
//     ensures atoms like R(f(x), y) are ordered after conjuncts binding x;
//   - equalities have at least one side over X, the other side over X
//     (selection) or a bare variable (binding via extended projection);
//   - inequalities are entirely over X (selection) — t1 != t2 is negative;
//   - `not psi` has free(psi) inside X (difference) — transformation T15
//     groups/orders the bounding conjuncts before the negation;
//   - disjuncts of an `or` all bind exactly the same new variables (union
//     of union-compatible branches);
//   - conjunctions are *ordered*: each conjunct is RANF for X extended
//     with the free variables of the conjuncts before it.
//
// ToRanf orders each conjunction in one walk. Each step takes the first
// conjunct, in input order, that is RANF for the variables bound so far
// (the paper's FinD-driven ordering; it subsumes T15's grouping). When none
// is ready, the first stuck conjunct that can unfold is replaced in place:
// `exists q (B)` by B's conjuncts, if no q occurs elsewhere (inverse T14);
// R(.., f(y), ..) by R(.., w, ..) and f(y) = w (T16). q and the fresh w join
// one ∃ around the result. When no remaining conjunct can unfold either, the
// third step applies T13 to the first remaining disjunction: the remaining
// conjuncts C and (A or B) become (C and A) or (C and B), translated under
// the variables already bound, so ordered conjuncts stay outside. It fires
// only on such a stall; everywhere else the generator threads the context
// into disjunctions and existentials instead of duplicating it, which keeps
// plans linear in the number of disjunctions (experiment E10).
#ifndef EMCALC_TRANSLATE_RANF_H_
#define EMCALC_TRANSLATE_RANF_H_

#include "src/base/status.h"
#include "src/base/symbol_set.h"
#include "src/calculus/ast.h"

namespace emcalc {

// Reorders `f` (which should be in ENF) into RANF for context X.
// Fails with kNotSafe when no ordering exists (e.g. ENF ran with T10
// disabled on a query that needs it). `invertible` lists function symbols
// with registered inverses: for those, g(x) = t may *bind* x from t (the
// [BM92a]-style extension; see finds/bound.h).
StatusOr<const Formula*> ToRanf(AstContext& ctx, const Formula* f,
                                const SymbolSet& context,
                                const SymbolSet& invertible = SymbolSet{});

// Checks the RANF conditions for `f` under context X.
bool IsRanf(const Formula* f, const SymbolSet& context,
            const SymbolSet& invertible = SymbolSet{});

}  // namespace emcalc

#endif  // EMCALC_TRANSLATE_RANF_H_
