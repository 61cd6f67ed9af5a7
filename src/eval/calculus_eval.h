// Reference evaluator: evaluates calculus queries directly under the
// paper's *embedded* semantics — every variable ranges over a finite
// neighborhood term^k(adom(q, I)) of the active domain (Section 4). This is
// the ground-truth oracle the translation is tested against: for an
// em-allowed query q, Theorem 6.6 guarantees the answer is independent of k
// once k >= ||q|| - 1, and the translated algebra plan must produce exactly
// this answer.
//
// Every variable ranges over the domain D, but only candidate values are
// enumerated. Each rule drops only valuations under which a (sub)formula
// cannot hold, candidates are intersected with D, and every subformula is
// evaluated before a valuation is accepted, so the answer is that of the
// whole D^#vars enumeration. Rules: a plain argument of a positive atom
// takes the column's values from the rows matching the bound arguments;
// x = t (or not x != t) with t bound gives {eval(t)}; not flips polarity;
// a disjunction (or negated conjunction) is enumerated once per disjunct;
// exists (or not forall) enumerates its variables with the outer ones;
// variables bind fewest candidates first, and over D where no rule applies.
// No safety or translation code is used, so the oracle stays independent
// of the translator. The worst case (e.g. a query that is not domain
// independent) is still O(|D|^#vars): this evaluator is for correctness
// checking and the baseline experiments, not production use.
#ifndef EMCALC_EVAL_CALCULUS_EVAL_H_
#define EMCALC_EVAL_CALCULUS_EVAL_H_

#include "src/base/status.h"
#include "src/calculus/ast.h"
#include "src/storage/adom.h"
#include "src/storage/database.h"
#include "src/storage/interpretation.h"

namespace emcalc {

// Evaluation knobs.
struct CalculusEvalOptions {
  // Closure level k; -1 means CountApplications(body) (a sound level for
  // any query, see calculus/analysis.h).
  int level = -1;
  // Abort if the evaluation domain exceeds this many values.
  size_t domain_budget = 20'000;
  // Extra values to throw into the evaluation domain before closing it
  // (used by the domain-independence property tests: the answer of an
  // em-allowed query must not change).
  ValueSet extra_domain;
  // Additional (name, arity) functions to close the domain under, beyond
  // those appearing in the query. Needed to evaluate queries accepted via
  // declared function inverses ([BM92a]-style): their answers live in the
  // closure under the *inverses*, which the query text does not mention.
  std::vector<std::pair<std::string, int>> extra_closure_fns;
};

// Evaluates `q` against (db, registry) under embedded semantics.
StatusOr<Relation> EvaluateCalculus(const AstContext& ctx, const Query& q,
                                    const Database& db,
                                    const FunctionRegistry& registry,
                                    const CalculusEvalOptions& options = {});

// Evaluates a closed formula (all free variables bound by `valuation`,
// a parallel vector to `vars`). Exposed for tests.
StatusOr<bool> EvaluateFormulaAt(const AstContext& ctx, const Formula* f,
                                 const std::vector<Symbol>& vars,
                                 const Tuple& valuation, const Database& db,
                                 const FunctionRegistry& registry,
                                 const CalculusEvalOptions& options = {});

}  // namespace emcalc

#endif  // EMCALC_EVAL_CALCULUS_EVAL_H_
