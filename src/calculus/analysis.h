// Static analyses over terms and formulas: variable sets, signatures,
// function-depth measures, and well-formedness checks.
#ifndef EMCALC_CALCULUS_ANALYSIS_H_
#define EMCALC_CALCULUS_ANALYSIS_H_

#include <map>
#include <vector>

#include "src/base/status.h"
#include "src/base/symbol_set.h"
#include "src/calculus/ast.h"

namespace emcalc {

// Variables occurring in `t` (at any nesting depth).
SymbolSet TermVars(const Term* t);

// Variables occurring at the *top level* of a term list, i.e. the arguments
// that are themselves variables. Used by bd(): a relation atom bounds only
// these (knowing f(x) is in a finite set does not bound x, since function
// inverses are unavailable — Section 1 of the paper).
SymbolSet DirectVars(std::span<const Term* const> terms);

// Free variables of `f`.
SymbolSet FreeVars(const Formula* f);

// All variables (free and bound) mentioned in `f`.
SymbolSet AllVars(const Formula* f);

// True if any term in `f` applies a scalar function.
bool HasFunctions(const Formula* f);

// Number of function-application nodes in `f`. This is a sound upper bound
// for the closure level of Theorem 6.6 (any chain of function applications
// through quantifiers has length at most the total application count); the
// reference evaluator uses it as its default evaluation level.
int CountApplications(const Formula* f);

// Maximum syntactic nesting depth of function applications in `f`
// (g(f(x)) has depth 2). Reported alongside CountApplications in the
// experiment output.
int MaxFunctionDepth(const Formula* f);

// Total number of formula nodes (size measure for benchmarks).
int FormulaSize(const Formula* f);

// Number of quantifier nodes.
int QuantifierCount(const Formula* f);

// The relation symbols used in `f` with their arities.
std::map<Symbol, int> CollectRelations(const Formula* f);

// The function symbols used in `f` with their arities.
std::map<Symbol, int> CollectFunctions(const Formula* f);

// The constants appearing in `f`, sorted and duplicate-free.
std::vector<Value> CollectConstants(const Formula* f);

// Structural sanity: every relation symbol used with one arity, every
// function symbol used with one arity, quantified variable lists are
// duplicate-free, and no quantifier shadows a variable that is still free
// in an enclosing scope of the same formula (shadowing is legal calculus
// but rejected here to keep the rewrite passes simple; the parser and the
// rectifier both establish this form).
Status CheckWellFormed(const Formula* f, const SymbolTable& symbols);

// Query-level check: head variables are exactly distinct and free in body.
Status CheckWellFormed(const Query& q, const SymbolTable& symbols);

}  // namespace emcalc

#endif  // EMCALC_CALCULUS_ANALYSIS_H_
