// The end-to-end translation pipeline (Section 7 of the paper):
//
//   (1) eliminate universal quantifiers,
//   (2) transform to ENF (with T10),
//   (3) transform to RANF: one ordering walk per conjunction, which
//       unfolds a stuck conjunct in place (inverse T14, T16) and applies
//       T13 only when nothing else moves it on (see ranf.h),
//   (4) generate an extended-algebra plan, threading each conjunction's
//       context into its disjunctions and existentials,
//   plus a final plan-simplification pass.
//
// Every stage runs relative to a set X of parameter variables: free in the
// body, bound by the host program (the "em-allowed for X" form of
// Section 9). A closed query is the case X = ∅. In the plan, the i-th
// parameter is the scalar `$i` (rendered `$name`), read from the arguments
// each run binds; it is never a column.
//
// Safety is checked first: only em-allowed queries are translated, and the
// pipeline is meant to be total on them. A RANF walk that stalls on an
// em-allowed query still returns kNotSafe; the exhaustive sweep over every
// formula up to size 5 (tests/exhaustive_test.cc) pins such stalls at zero.
#ifndef EMCALC_TRANSLATE_PIPELINE_H_
#define EMCALC_TRANSLATE_PIPELINE_H_

#include <map>
#include <span>

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/calculus/ast.h"
#include "src/obs/compile_profile.h"
#include "src/safety/em_allowed.h"
#include "src/translate/enf.h"

namespace emcalc {

// Pipeline settings: the ablations of experiments E3 and E6, the declared
// inverses, and the plan simplifier.
struct TranslateOptions {
  // Transformation T10 (ENF): disable to reproduce GT91's transformation
  // set; translation then fails on queries like q4 (experiment E6).
  bool enable_t10 = true;
  // FinD engine configuration (reduced covers on/off: experiment E3).
  BoundOptions bound;
  // Invertible functions: maps a function symbol to its inverse's symbol.
  // Extends bd/em-allowed/translation per the [BM92a] comparison (see
  // finds/bound.h); empty by default — the paper's own setting.
  std::map<Symbol, Symbol> inverse_fns;
  // Run the plan simplifier after generation.
  bool optimize = true;
};

// All artifacts of one translation, for inspection and experiments.
struct Translation {
  SafetyResult safety;
  const Formula* enf = nullptr;   // after steps (1)–(2)
  const Formula* ranf = nullptr;  // after step (3)
  const AlgExpr* raw_plan = nullptr;  // after step (4)
  const AlgExpr* plan = nullptr;      // after simplification
  // Per-phase wall times of this translation (the "translate" subtree of
  // the compile profile; see src/obs/compile_profile.h). Always filled.
  obs::CompilePhase profile;
  // Safety-check statistics: bd cache misses, and the size of bd(body)'s
  // cover (0 when the query is rejected).
  size_t bd_computations = 0;
  size_t find_count = 0;
};

// The FinD options a translation runs with: `options.bound` with every
// function that has a declared inverse marked invertible.
BoundOptions EffectiveBound(const TranslateOptions& options);

// Translates a query that is em-allowed for `params` (X, in `$i` order)
// into an equivalent extended-algebra plan. The body's free variables must
// be exactly the head plus `params`, with no parameter repeated or in the
// head. Errors: kNotSafe (em-allowed check or RANF ordering failed),
// kInvalidArgument (ill-formed query), kInternal (pipeline bug).
StatusOr<Translation> TranslateQuery(AstContext& ctx, const Query& q,
                                     const TranslateOptions& options = {},
                                     std::span<const Symbol> params = {});

}  // namespace emcalc

#endif  // EMCALC_TRANSLATE_PIPELINE_H_
