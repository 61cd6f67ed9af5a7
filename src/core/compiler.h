// Public entry point: compile calculus query text into an executable
// extended-algebra plan and run it against database instances.
//
//   emcalc::Compiler compiler;                       // builtin functions
//   auto q = compiler.Compile(
//       "{y | exists x (R(x) and y = succ(x))}");
//   if (!q.ok()) { ... q.status().message() ... }
//   auto answer = q->Run(db);
//
// One Compiler owns one AstContext; every CompiledQuery it produces remains
// valid for the compiler's lifetime.
#ifndef EMCALC_CORE_COMPILER_H_
#define EMCALC_CORE_COMPILER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/calculus/ast.h"
#include "src/calculus/views.h"
#include "src/diag/diagnostic.h"
#include "src/exec/physical.h"
#include "src/obs/compile_profile.h"
#include "src/storage/database.h"
#include "src/storage/interpretation.h"
#include "src/translate/pipeline.h"

namespace emcalc {

class Compiler;

// Result of Compiler::Analyze — every front-end diagnostic for a query
// (parse errors, lint findings, well-formedness errors, the safety blame
// trace) without generating a plan or executing anything. Lint warnings
// are reported even for accepted queries.
struct QueryAnalysis {
  std::string text;     // the analyzed source, for rendering
  bool parsed = false;  // text parsed into a query
  bool safe = false;    // parsed, well-formed, and em-allowed
  // Structured safety outcome (meaningful once `parsed`); on rejection its
  // blame fields identify the failing condition and variables.
  SafetyResult safety;
  // Ordered report: lint errors, then parse/well-formedness/safety
  // diagnostics, then lint warnings.
  std::vector<diag::Diagnostic> diagnostics;

  bool HasErrors() const { return diag::CountErrors(diagnostics) > 0; }

  // Human-readable report with caret snippets against `text`.
  std::string Render() const;
  // JSON array (diagnostics schema of docs/diagnostics.md), with spans
  // resolved to line/col.
  std::string ToJson() const;
};

// A plan lowered once at compile time and shared by every run of its
// query; CompiledQuery and ParameterizedQuery both execute through one.
struct PreparedPlan {
  const AlgExpr* plan = nullptr;  // optimized algebra; $name marks a parameter
  int num_params = 0;             // arguments each run binds
  std::string text;   // query text (compile/run log correlation)
  uint64_t hash = 0;  // obs::HashQueryText(text)
  // Null when lowering failed, and `lower_status` then holds the error
  // every run returns.
  std::shared_ptr<const PhysicalPlan> physical;
  Status lower_status;
};

// A safety-checked, translated query ready to execute.
class CompiledQuery {
 public:
  const Query& query() const { return query_; }
  const Translation& translation() const { return translation_; }
  const AlgExpr* plan() const { return translation_.plan; }

  // Pretty forms for display.
  std::string QueryString() const;
  std::string PlanString() const;
  std::string PlanTreeString() const;

  // Executes the plan against `db` using the owning compiler's functions,
  // through the physical execution layer (src/exec/). A non-null `profile`
  // receives the per-operator statistics tree (rows in/out, hash
  // build/probe counts, wall time); SumProfile flattens it to totals.
  StatusOr<Relation> Run(const Database& db,
                         ExecProfile* profile = nullptr) const;

  // EXPLAIN ANALYZE: executes against `db` and renders the per-operator
  // profile as a multi-line report.
  StatusOr<std::string> ExplainAnalyze(const Database& db) const;

  // The per-phase compile timing tree (parse, view expansion, safety, ENF,
  // RANF, algebra generation, optimization, lowering), mirroring the
  // run-time ExecProfile. Always populated.
  const obs::CompilePhase& compile_profile() const { return profile_; }

  // EXPLAIN COMPILE: renders compile_profile() as an indented per-phase
  // timing report with phase details (FinD counts, form sizes, node
  // counts).
  std::string ExplainCompile() const;

 private:
  friend class Compiler;
  CompiledQuery(const Compiler* owner, Query query, Translation translation,
                obs::CompilePhase profile, PreparedPlan prepared)
      : owner_(owner), query_(std::move(query)),
        translation_(std::move(translation)), profile_(std::move(profile)),
        prepared_(std::move(prepared)) {}

  const Compiler* owner_;
  Query query_;
  Translation translation_;
  obs::CompilePhase profile_;
  PreparedPlan prepared_;  // translation_.plan, lowered once
};

// A query with host-program parameters — the paper's "em-allowed for X"
// (Section 9): the parameter variables are free in the body but bound by
// the embedding program, so the safety analysis treats them as already
// confined to finite sets. Example:
//
//   auto q = compiler.CompileParameterized(
//       "{e | EMP(e, d, s) and with_raise(s) <= cap}", {"d", "cap"});
//   auto answer = q->Run(db, {Value::Int(3), Value::Int(90000)});
//
// Neither the safety check nor the RANF for the parameter context depends
// on the argument values, so neither does the plan: CompileParameterized
// translates, optimizes and lowers it once, with each parameter as a
// scalar $name. A run only executes that plan with its arguments bound
// into the execution; it allocates nothing in the compiler's AstContext,
// so a long-lived query stays bounded in memory, and concurrent runs with
// different arguments are safe.
class ParameterizedQuery {
 public:
  const std::vector<Symbol>& parameters() const { return params_; }
  const Query& query() const { return query_; }
  // The prepared plan, $name marking where a run reads each argument.
  const AlgExpr* plan() const { return prepared_.plan; }

  // Executes with `args` bound to parameters() position-wise; `profile`
  // as for CompiledQuery::Run.
  StatusOr<Relation> Run(const Database& db, const std::vector<Value>& args,
                         ExecProfile* profile = nullptr) const;

  // EXPLAIN ANALYZE for one argument binding: executes against `db` and
  // renders the prepared plan, the bound arguments, and the per-operator
  // profile.
  StatusOr<std::string> ExplainAnalyze(const Database& db,
                                       const std::vector<Value>& args) const;

  // The plan for given argument values, built the slow way: the arguments
  // are substituted as constants into the stored RANF, which is then
  // translated and optimized afresh. For inspection and as a differential
  // oracle only — every call allocates into the compiler's AstContext
  // arena (constants included; there is no constant pool), which never
  // frees, and so must not race with other users of the compiler.
  StatusOr<const AlgExpr*> PlanFor(const std::vector<Value>& args) const;

 private:
  friend class Compiler;
  ParameterizedQuery(Compiler* owner, Query query, std::vector<Symbol> params,
                     const Formula* ranf, std::map<Symbol, Symbol> inverses,
                     PreparedPlan prepared)
      : owner_(owner), query_(std::move(query)), params_(std::move(params)),
        ranf_(ranf), inverses_(std::move(inverses)),
        prepared_(std::move(prepared)) {}

  Compiler* owner_;
  Query query_;  // head = output variables; body free vars = head + params
  std::vector<Symbol> params_;
  const Formula* ranf_;  // RANF for the context `params_`
  std::map<Symbol, Symbol> inverses_;  // declared function inverses
  PreparedPlan prepared_;  // the plan over $params, lowered once
};

// Parses, safety-checks, and translates queries. Not copyable or movable:
// CompiledQuery objects hold a pointer back to their compiler.
class Compiler {
 public:
  // Uses the builtin scalar functions (see storage/interpretation.h).
  Compiler();
  explicit Compiler(FunctionRegistry functions);

  Compiler(const Compiler&) = delete;
  Compiler& operator=(const Compiler&) = delete;

  // Parses and translates `text` ("{x | ...}" or a bare formula).
  StatusOr<CompiledQuery> Compile(std::string_view text,
                                  const TranslateOptions& options = {});

  // Static analysis only: parses `text` and reports every front-end
  // diagnostic — lint findings, well-formedness errors, and on safety
  // rejection the full blame trace (failing subformula with source span,
  // unbounded variables, attempted FinD derivation). Never translates,
  // never executes. The repl's .lint/.why commands are thin wrappers.
  QueryAnalysis Analyze(std::string_view text,
                        const TranslateOptions& options = {});

  // Translates an already-built query (for programmatic construction).
  StatusOr<CompiledQuery> CompileQuery(const Query& q,
                                       const TranslateOptions& options = {});

  // Compiles a parameterized query: the body's free variables must be
  // exactly the head variables plus `params`, and the body must be
  // em-allowed *for* the parameter set. Parameters are dropped from the
  // head (the bare-formula form lists every free variable there). Compiles
  // through Compile's path, with `params` as TranslateQuery's context.
  StatusOr<ParameterizedQuery> CompileParameterized(
      std::string_view text, const std::vector<std::string>& params,
      const TranslateOptions& options = {});

  // Defines a view: a named query usable as a relation atom in later
  // queries (and view definitions). Views are expanded inline before the
  // safety analysis, so a query over views is safe iff its expansion is.
  // The view itself must be well-formed but need not be em-allowed on its
  // own (e.g. {x, y | f(x) = y} is a fine view when every use bounds x).
  Status DefineView(std::string_view name, std::string_view query_text);

  AstContext& ctx() { return *ctx_; }
  const AstContext& ctx() const { return *ctx_; }
  FunctionRegistry& functions() { return functions_; }
  const FunctionRegistry& functions() const { return functions_; }

 private:
  // What the one compile path produces.
  struct Compiled {
    Query query;  // views expanded, parameters dropped from the head
    Translation translation;
    obs::CompilePhase profile;
    PreparedPlan prepared;
  };

  // The one compile path of Compile, CompileQuery and CompileParameterized:
  // parses `text` (unless `built` is the query already), drops `params`
  // from the head, verifies the tree (stage 1), lints it for the query log,
  // expands views, translates relative to `params`, lowers, and records
  // metrics and the compile record. `text` is the query's one text: its
  // compile record and its prepared plan's runs are logged under it.
  StatusOr<Compiled> CompileImpl(std::string text, const Query* built,
                                 std::span<const Symbol> params,
                                 const TranslateOptions& options);

  // Lowers `prepared.plan` with its query hash under a "lower" phase of
  // `profile`, filling `prepared.physical`. Fails only when the lowered
  // plan breaks a stage-boundary invariant (the compile must then fail);
  // any other lowering error leaves `physical` null and the query usable
  // for inspection, its runs returning the error kept in
  // `prepared.lower_status`.
  Status LowerPrepared(PreparedPlan& prepared, obs::CompilePhase& profile);

  std::unique_ptr<AstContext> ctx_;
  FunctionRegistry functions_;
  ViewMap views_;
};

}  // namespace emcalc

#endif  // EMCALC_CORE_COMPILER_H_
