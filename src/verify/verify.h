// Stage-boundary verification of compiler intermediate results.
//
// The pipeline crosses five representation boundaries:
//
//   calculus AST -> safety-annotated (rectified + ENF) formula
//                -> RANF algebra (the raw translated plan)
//                -> optimized algebra
//                -> physical plan
//
// Each boundary gets a static verifier: a battery of named rules that walk
// the artifact and report structural invariant violations (arity
// disagreements, dangling column indices, null operands, out-of-range
// constant-pool ids, broken algebra/physical mirroring). A violation means
// a compiler bug, never a user error — user-facing validation (parse
// errors, well-formedness, safety) happens before translation. The rules
// exist so a miscompilation is caught at the boundary that introduced it,
// with a rule id and node path, instead of surfacing as wrong rows or a
// crash at execution time.
//
// Verification is always on in Debug builds and opt-in elsewhere via
// EMCALC_VERIFY=1 (see Enabled()); the call sites in core/compiler,
// translate/pipeline, and exec/lower are all gated on it. docs/verifier.md
// catalogs the rules.
#ifndef EMCALC_VERIFY_VERIFY_H_
#define EMCALC_VERIFY_VERIFY_H_

#include <string>
#include <vector>

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/base/symbol_set.h"
#include "src/calculus/ast.h"
#include "src/diag/diagnostic.h"
#include "src/exec/physical.h"

namespace emcalc::verify {

// The five verified boundaries.
enum class Stage : uint8_t {
  kCalculus,          // parsed (or programmatically built) query
  kSafetyFormula,     // rectified + safety-checked + ENF formula
  kRanfAlgebra,       // RANF formula and the raw translated plan
  kOptimizedAlgebra,  // plan after the algebraic optimizer
  kPhysical,          // lowered physical operator DAG
};

// Stable display name, e.g. "ranf-algebra".
const char* StageName(Stage stage);

// One broken invariant: a stable rule id (e.g. "alg.project-arity"), the
// path of the offending node from the artifact root (e.g.
// "root.left.right"), and a human-readable message.
struct VerifyViolation {
  std::string rule;
  std::string path;
  std::string message;
};

// The result of verifying one artifact at one stage.
struct VerifyReport {
  Stage stage = Stage::kCalculus;
  std::vector<VerifyViolation> violations;

  bool ok() const { return violations.empty(); }
  bool Has(std::string_view rule) const;

  // Multi-line rendering, one "[rule] at path: message" line per violation.
  std::string ToString() const;
  // kInternal error embedding ToString(); Ok when the report is clean.
  Status ToStatus() const;
  // One diagnostic per violation, code "verify.<rule>" — the shape the
  // query log attaches to compile records (like lint findings).
  std::vector<diag::Diagnostic> ToDiagnostics() const;
};

// Recovers ToDiagnostics() from a failed ToStatus() message. Used by the
// compiler to attach violations found inside TranslateQuery (which only
// returns a Status) to the query-log compile record. Empty when `status`
// does not carry a verification report.
std::vector<diag::Diagnostic> DiagnosticsFromStatus(const Status& status);

// True when stage-boundary verification should run: always in Debug
// builds (!NDEBUG), otherwise when EMCALC_VERIFY is set to a non-zero
// value, unless overridden by ForceEnabled.
bool Enabled();

// Test/bench override: 1 forces verification on, 0 forces it off, -1
// restores the environment/build-type default.
void ForceEnabled(int mode);

// --- Stage 1: calculus -----------------------------------------------------
// Scope/shadowing of bound variables, head coverage, consistent relation
// and function arities, in-range constant-pool ids, and (for parsed
// queries, when `require_spans` is set) a source span on every formula
// node.
VerifyReport VerifyCalculus(const AstContext& ctx, const Query& q,
                            bool require_spans);

// --- Stage 2: safety-annotated formula -------------------------------------
// The rectified + ENF formula: same structural rules as stage 1 plus
// distinct bound variables (rectification invariant) and free-variable
// preservation (free(f) must stay inside `allowed_free`).
VerifyReport VerifySafetyFormula(const AstContext& ctx, const Formula* f,
                                 const SymbolSet& allowed_free);

// --- Stages 3 and 4: algebra ----------------------------------------------
struct AlgebraOptions {
  Stage stage = Stage::kRanfAlgebra;  // or kOptimizedAlgebra
  // Expected root arity (the query head size); -1 skips the check.
  int expected_arity = -1;
  // Parameters of the query (ParameterizedQuery); every kParam index must
  // lie below it, so a closed query's plan admits no kParam at all.
  int num_params = 0;
};

// Per-node arity agreement, column indices in range of the (concatenated,
// for joins) input schema, non-null condition/projection expressions,
// constant-pool ids and parameter indices in range, and acyclicity.
VerifyReport VerifyAlgebra(const AstContext& ctx, const AlgExpr* plan,
                           const AlgebraOptions& options);

// Stage 3 entry point: checks IsRanf(`ranf`) (rule "ranf.shape") and then
// the raw plan under `options`.
VerifyReport VerifyRanfAlgebra(const AstContext& ctx, const Formula* ranf,
                               const SymbolSet& context,
                               const SymbolSet& invertible,
                               const AlgExpr* plan,
                               const AlgebraOptions& options);

// --- Stage 5: physical -----------------------------------------------------
// Kind-appropriate child counts, projection/filter/key expression indices
// valid against input arities, parameter indices below the plan's
// NumParams(), join split points, unique Materialize cache
// slots, unique in-range operator ids (the memory-accounting MemoryScope
// slots are indexed by op id, so this is the scheduling-safety rule that
// every allocating operator is covered by a scope), and — when `algebra`
// is non-null — that the operator DAG mirrors the algebra plan.
VerifyReport VerifyPhysical(const PhysicalPlan& plan, const AlgExpr* algebra);

// Post-execution profile sanity, used by tests: a non-negative arity on
// every node.
VerifyReport VerifyProfile(const ExecProfile& profile);

}  // namespace emcalc::verify

#endif  // EMCALC_VERIFY_VERIFY_H_
