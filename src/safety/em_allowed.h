// The em-allowed safety criterion (Section 6 of the paper), generalizing
// "allowed" [Top87, GT91] to scalar functions.
//
// A formula phi is em-allowed for a context X (a set of externally bounded
// variables — the paper's "em-allowed for X", used for queries embedded in
// a host program whose variables are already bound) iff:
//   (1) bd(phi), together with {} -> x for x in X, entails {} -> free(phi);
//   (2) recursively, every quantified subformula binds bounded variables:
//       for `exists Y (psi)`, bd(psi) |= (free(psi) \ Y) -> Y, i.e. the
//       quantified variables are bounded relative to the subformula's
//       context (reconstruction R2 in DESIGN.md, forced by the paper's
//       example R(x) and exists y (f(x) = y and not R(y)));
//       `forall Y (psi)` is checked as `not exists Y (not psi)`;
//   (3) conditions (2) apply under negations in pushed (pushnot) form.
//
// Theorem 6.6 of the paper: em-allowed queries are embedded domain
// independent at level ||phi|| - 1. Our pipeline demonstrates this
// constructively by translating every em-allowed query to the algebra.
#ifndef EMCALC_SAFETY_EM_ALLOWED_H_
#define EMCALC_SAFETY_EM_ALLOWED_H_

#include <string>
#include <string_view>

#include "src/calculus/ast.h"
#include "src/finds/bound.h"

namespace emcalc {

// Which em-allowed condition a rejection violated. Consumers should branch
// on this (or on SafetyViolationCode), never on the reason text.
enum class SafetyViolation : uint8_t {
  kNone = 0,            // accepted
  kUnboundedFree,       // condition (1): a free variable is not bounded
  kUnboundedQuantified, // condition (2): quantified vars not bounded
  kUnboundedNegated,    // condition (3): (2) failed under a pushed negation
};

// Stable machine-readable code ("safety.unbounded-free", ...); empty for
// kNone. These are the diagnostic codes used by diag::BuildSafetyBlame.
std::string_view SafetyViolationCode(SafetyViolation v);

// Outcome of a safety check. On rejection the structured fields identify
// the violated condition, the variables that could not be confined to a
// finite set, and the subformula to blame; `reason` remains a one-line
// human-readable rendering for backward compatibility.
struct SafetyResult {
  bool em_allowed = false;
  std::string reason;  // empty iff em_allowed

  // --- structured blame (meaningful only when !em_allowed) ---
  SafetyViolation violation = SafetyViolation::kNone;
  // Variables genuinely outside the FinD closure of `blame_context` under
  // bd(checked); never empty on rejection.
  SymbolSet unbounded;
  // The context X of the failing bd entailment check.
  SymbolSet blame_context;
  // The variables the failing check needed bounded (superset of
  // `unbounded`): free(phi) \ X for condition (1), the quantified
  // variables for (2)/(3).
  SymbolSet blame_targets;
  // Subformula to point at in the source (the nearest node that carries a
  // source span; see AstContext::SpanOf).
  const Formula* blamed = nullptr;
  // The formula whose bd() failed the entailment — what a consumer should
  // recompute bd over to reproduce the derivation (may be a rewritten node
  // distinct from `blamed`, e.g. a pushed negation or quantifier body).
  const Formula* checked = nullptr;

  explicit operator bool() const { return em_allowed; }

  static SafetyResult Accept() {
    SafetyResult r;
    r.em_allowed = true;
    return r;
  }
};

// Checks em-allowedness. One checker per AstContext; shares the bd cache
// across checks.
class EmAllowedChecker {
 public:
  explicit EmAllowedChecker(AstContext& ctx, BoundOptions options = {})
      : bound_(ctx, options) {}

  // Query form: context is empty, targets are the head variables.
  SafetyResult Check(const Query& q) {
    return CheckFormula(q.body, SymbolSet{});
  }

  // "em-allowed for X": `context` lists externally bounded variables.
  SafetyResult CheckFormula(const Formula* f, const SymbolSet& context);

  BoundAnalyzer& bound() { return bound_; }

 private:
  // CheckFormula minus the instrumentation (span + check/reject counters).
  SafetyResult CheckImpl(const Formula* f, const SymbolSet& context);

  // Condition (2)/(3) recursion; does not include the top-level condition.
  // `anchor` is the nearest enclosing node with a source span (rewritten
  // nodes fall back to it for blame); `under_negation` distinguishes
  // condition (3) from (2).
  SafetyResult CheckSubformulas(const Formula* f, const Formula* anchor,
                                bool under_negation);

  // Builds a rejection with all structured fields populated.
  SafetyResult MakeViolation(SafetyViolation v, const Formula* blamed,
                             const Formula* checked, const SymbolSet& context,
                             const SymbolSet& targets,
                             std::string_view what);

  BoundAnalyzer bound_;
};

// One-off convenience wrappers.
SafetyResult CheckEmAllowed(AstContext& ctx, const Query& q,
                            BoundOptions options = {});
SafetyResult CheckEmAllowed(AstContext& ctx, const Formula* f,
                            BoundOptions options = {});

}  // namespace emcalc

#endif  // EMCALC_SAFETY_EM_ALLOWED_H_
