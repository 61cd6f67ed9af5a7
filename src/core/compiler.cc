#include "src/core/compiler.h"

#include <cstdio>
#include <cstdlib>

#include "src/base/string_pool.h"
#include "src/base/thread_pool.h"
#include "src/diag/blame.h"
#include "src/diag/lint.h"

#include "src/algebra/optimizer.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/calculus/rewrite.h"
#include "src/exec/feedback.h"
#include "src/exec/lower.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/postmortem.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"
#include "src/translate/algebra_gen.h"
#include "src/verify/verify.h"

namespace emcalc {

namespace {

// Compile-side metrics; handles resolved once.
struct CompileMetrics {
  obs::Counter& queries;
  obs::Counter& errors;
  obs::Histogram& wall_ns;

  static CompileMetrics& Get() {
    static CompileMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return new CompileMetrics{reg.GetCounter("compile.queries"),
                                reg.GetCounter("compile.errors"),
                                reg.GetHistogram("compile.wall_ns")};
    }();
    return *m;
  }
};

// Run-side metrics shared by CompiledQuery / ParameterizedQuery.
struct RunMetrics {
  obs::Counter& runs;
  obs::Counter& errors;
  obs::Counter& rows_out;
  obs::Histogram& wall_ns;

  static RunMetrics& Get() {
    static RunMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return new RunMetrics{reg.GetCounter("exec.runs"),
                            reg.GetCounter("exec.errors"),
                            reg.GetCounter("exec.rows_out"),
                            reg.GetHistogram("exec.wall_ns")};
    }();
    return *m;
  }
};

// EMCALC_LINT=1: Compile attaches lint findings (and, on rejection, the
// safety blame trace) to its query-log records.
bool LintToLogEnabled() {
  const char* v = std::getenv("EMCALC_LINT");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

// Effective worker count of an execution: ExecOptions::num_threads with
// the "0 = hardware concurrency" default resolved.
uint64_t EffectiveExecThreads(size_t num_threads) {
  return num_threads == 0 ? ThreadPool::HardwareThreads() : num_threads;
}

// A located diagnostic for a parse failure.
diag::Diagnostic MakeParseDiagnostic(const ParseErrorInfo& e) {
  diag::Diagnostic d("parse.error", diag::Severity::kError, e.message);
  d.WithSpan(diag::SourceSpan{static_cast<uint32_t>(e.offset),
                              static_cast<uint32_t>(e.offset + 1)});
  return d;
}

// Emits one "compile" query-log record (no-op without an installed log).
void LogCompile(const std::string& text, const Status& status,
                const obs::CompilePhase& profile, const Translation* t,
                const Query* query,
                std::vector<diag::Diagnostic> diagnostics = {}) {
  obs::QueryLog* log = obs::GetQueryLog();
  if (log == nullptr) return;
  obs::QueryLogRecord r;
  r.event = "compile";
  r.run.query = text;
  r.run.query_hash = obs::HashQueryText(text);
  r.run.ok = status.ok();
  if (!status.ok()) r.run.error = status.ToString();
  r.run.wall_ns = profile.wall_ns;
  r.phase_ns = obs::FlattenPhases(profile);
  if (t != nullptr) {
    r.em_allowed = t->safety.em_allowed;
    r.find_count = static_cast<int>(t->find_count);
    if (t->ranf != nullptr) r.ranf_size = FormulaSize(t->ranf);
    if (t->plan != nullptr) r.plan_nodes = t->plan->NodeCount();
  }
  if (query != nullptr) r.level = CountApplications(query->body);
  r.string_pool_size = StringPool::Global().size();
  r.diagnostics = std::move(diagnostics);
  log->Write(r);
}

// RAII around one execution: publishes the query text for crash bundles
// and brackets the run with flight-recorder events so a drained ring shows
// where each query started and ended.
class QueryObsScope {
 public:
  QueryObsScope(const std::string& text, uint64_t hash) : hash_(hash) {
    obs::SetCurrentQuery(text, hash_);
    obs::FlightRecord(obs::FlightEventKind::kQueryStart, "query", hash_);
  }
  ~QueryObsScope() {
    obs::FlightRecord(obs::FlightEventKind::kQueryEnd, "query", hash_);
    obs::ClearCurrentQuery();
  }
  QueryObsScope(const QueryObsScope&) = delete;
  QueryObsScope& operator=(const QueryObsScope&) = delete;

 private:
  uint64_t hash_;
};

// Updates run metrics for one execution attempt. `observed_profile` is the
// run's profile when a sink (query log, postmortem directory) is installed
// and null otherwise; with a profile, the run's one RunRecord is built and
// handed to every installed sink.
void ObserveRun(const PreparedPlan& p, const StatusOr<Relation>& result,
                uint64_t start_ns, uint64_t exec_threads,
                const ExecProfile* observed_profile) {
  uint64_t wall = obs::NowNs() - start_ns;
  RunMetrics& m = RunMetrics::Get();
  m.runs.Add();
  m.wall_ns.Observe(static_cast<double>(wall));
  if (result.ok()) {
    m.rows_out.Add(result->size());
  } else {
    m.errors.Add();
  }
  if (observed_profile == nullptr) return;
  obs::RunRecord run =
      BuildRunRecord(p.hash, p.text, result.status(),
                     result.ok() ? result->size() : 0, wall, exec_threads,
                     *observed_profile);
  if (!run.ok && obs::PostmortemEnabled()) {
    // Best-effort bundle: failure to write must not mask the run error.
    (void)obs::WritePostmortem(
        run.aborted_limit.empty() ? "run_error" : "governor_abort", &run,
        ExecProfileToJson(*observed_profile));
  }
  if (obs::QueryLog* log = obs::GetQueryLog()) {
    obs::QueryLogRecord r;
    r.event = "run";
    r.run = std::move(run);
    r.string_pool_size = StringPool::Global().size();
    log->Write(r);
  }
}

// The one run path of CompiledQuery and ParameterizedQuery: executes the
// prepared plan with `args` bound and reports the run (metrics, query log,
// postmortem). A non-null `profile` is always filled; otherwise the run is
// profiled only when an installed sink needs it.
// Whether any sink is installed is asked once: the same answer decides
// profiling and whether ObserveRun builds a RunRecord, so a run with no
// sink builds neither.
StatusOr<Relation> RunPrepared(const PreparedPlan& p, const Database& db,
                               std::span<const Value> args,
                               ExecProfile* profile) {
  obs::Span span("exec.run");
  QueryObsScope obs_scope(p.text, p.hash);
  uint64_t start_ns = obs::NowNs();
  const bool observed =
      obs::GetQueryLog() != nullptr || obs::PostmortemEnabled();
  ExecProfile local;
  if (profile == nullptr && observed) profile = &local;
  StatusOr<Relation> answer =
      p.physical != nullptr ? p.physical->ExecuteToRelation(db, profile, args)
                            : StatusOr<Relation>(p.lower_status);
  ObserveRun(p, answer, start_ns,
             EffectiveExecThreads(
                 p.physical != nullptr ? p.physical->options().num_threads : 0),
             observed ? profile : nullptr);
  return answer;
}

// EXPLAIN ANALYZE of one run: the plan, the bound arguments (`params`
// names them; no line for a closed query), the answer size, and the
// per-operator profile with memory and parallelism.
StatusOr<std::string> ExplainPrepared(const Compiler& owner,
                                      const PreparedPlan& p,
                                      const Database& db,
                                      std::span<const Symbol> params,
                                      std::span<const Value> args) {
  ExecProfile profile;
  auto answer = RunPrepared(p, db, args, &profile);
  if (!answer.ok()) return answer.status();
  std::string out = "plan: " + AlgExprToString(owner.ctx(), p.plan) + "\n";
  if (!params.empty()) {
    out += "args:";
    for (size_t i = 0; i < params.size(); ++i) {
      out += " $" + std::string(owner.ctx().symbols().Name(params[i])) + "=" +
             args[i].ToString();
    }
    out += "\n";
  }
  out += "answer rows: " + std::to_string(answer->size()) + "\n";
  out += ExecProfileToString(profile);
  out += "memory: peak " + std::to_string(profile.total_peak_bytes) +
         " bytes, allocated " +
         std::to_string(profile.total_bytes_allocated) + " bytes\n";
  ParallelSummary par = SumParallel(profile);
  if (par.max_workers > 1) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "parallelism: eff=%.0f%% workers=%u morsels=%llu\n",
                  par.Efficiency() * 100.0, par.max_workers,
                  static_cast<unsigned long long>(par.morsels));
    out += line;
  }
  return out;
}

}  // namespace

std::string CompiledQuery::QueryString() const {
  return QueryToString(owner_->ctx(), query_);
}

std::string CompiledQuery::PlanString() const {
  return AlgExprToString(owner_->ctx(), translation_.plan);
}

std::string CompiledQuery::PlanTreeString() const {
  return AlgExprToTreeString(owner_->ctx(), translation_.plan);
}

std::string CompiledQuery::ExplainCompile() const {
  return obs::CompileProfileToString(profile_);
}

StatusOr<Relation> CompiledQuery::Run(const Database& db,
                                      ExecProfile* profile) const {
  return RunPrepared(prepared_, db, {}, profile);
}

StatusOr<std::string> CompiledQuery::ExplainAnalyze(const Database& db) const {
  return ExplainPrepared(*owner_, prepared_, db, {}, {});
}

Compiler::Compiler() : Compiler(BuiltinFunctions()) {}

Compiler::Compiler(FunctionRegistry functions)
    : ctx_(std::make_unique<AstContext>()), functions_(std::move(functions)) {}

StatusOr<CompiledQuery> Compiler::Compile(std::string_view text,
                                          const TranslateOptions& options) {
  auto c = CompileImpl(std::string(text), nullptr, {}, options);
  if (!c.ok()) return c.status();
  return CompiledQuery(this, std::move(c->query), std::move(c->translation),
                       std::move(c->profile), std::move(c->prepared));
}

Status Compiler::DefineView(std::string_view name,
                            std::string_view query_text) {
  Symbol sym = ctx_->symbols().Intern(name);
  auto q = ParseQuery(*ctx_, query_text);
  if (!q.ok()) return q.status();
  if (Status s = CheckWellFormed(*q, ctx_->symbols()); !s.ok()) return s;
  // Reject definitions whose own expansion would be cyclic right away.
  ViewMap candidate = views_;
  candidate[sym] = *q;
  auto expanded = ExpandViews(*ctx_, q->body, candidate);
  if (!expanded.ok()) return expanded.status();
  views_[sym] = std::move(q).value();
  return Status::Ok();
}

StatusOr<CompiledQuery> Compiler::CompileQuery(
    const Query& q, const TranslateOptions& options) {
  auto c = CompileImpl(QueryToString(*ctx_, q), &q, {}, options);
  if (!c.ok()) return c.status();
  return CompiledQuery(this, std::move(c->query), std::move(c->translation),
                       std::move(c->profile), std::move(c->prepared));
}

StatusOr<ParameterizedQuery> Compiler::CompileParameterized(
    std::string_view text, const std::vector<std::string>& params,
    const TranslateOptions& options) {
  std::vector<Symbol> param_syms;
  for (const std::string& p : params) {
    param_syms.push_back(ctx_->symbols().Intern(p));
  }
  auto c = CompileImpl(std::string(text), nullptr, param_syms, options);
  if (!c.ok()) return c.status();
  return ParameterizedQuery(this, std::move(c->query), std::move(param_syms),
                            c->translation.ranf, options.inverse_fns,
                            std::move(c->prepared));
}

StatusOr<Compiler::Compiled> Compiler::CompileImpl(
    std::string text, const Query* built, std::span<const Symbol> params,
    const TranslateOptions& options) {
  obs::Span span("compile");
  uint64_t start_ns = obs::NowNs();
  CompileMetrics::Get().queries.Add();
  Compiled out;
  out.profile.name = "compile";
  // With EMCALC_LINT=1 the compile record carries the front end's findings.
  const bool lint_to_log = LintToLogEnabled() && obs::GetQueryLog() != nullptr;
  std::vector<diag::Diagnostic> log_diags;
  auto fail = [&](const Status& status, const Query* q,
                  const Translation* t) -> StatusOr<Compiled> {
    CompileMetrics::Get().errors.Add();
    out.profile.wall_ns = obs::NowNs() - start_ns;
    LogCompile(text, status, out.profile, t, q, std::move(log_diags));
    return status;
  };

  if (built != nullptr) {
    out.query = *built;
  } else {
    ParseErrorInfo parse_error;
    StatusOr<Query> parsed = [&] {
      obs::PhaseTimer timer(&out.profile, "parse", "compile.parse");
      return ParseQuery(*ctx_, text, &parse_error);
    }();
    if (!parsed.ok()) {
      if (lint_to_log) log_diags.push_back(MakeParseDiagnostic(parse_error));
      return fail(parsed.status(), nullptr, nullptr);
    }
    out.query = std::move(parsed).value();
  }
  // The bare-formula form puts every free variable in the head; parameters
  // are outputs of neither form.
  const SymbolSet param_set(std::vector<Symbol>(params.begin(), params.end()));
  std::erase_if(out.query.head,
                [&](Symbol v) { return param_set.Contains(v); });
  // Stage boundary 1: the parsed tree. Parsed (as opposed to
  // programmatically built) queries must carry source spans throughout.
  if (verify::Enabled()) {
    verify::VerifyReport vr = verify::VerifyCalculus(
        *ctx_, out.query, /*require_spans=*/built == nullptr);
    if (!vr.ok()) {
      if (lint_to_log) log_diags = vr.ToDiagnostics();
      return fail(vr.ToStatus(), &out.query, nullptr);
    }
  }
  // Lint findings for the query as written (pre-expansion, so spans point
  // at the source).
  if (lint_to_log) log_diags = diag::LintQuery(*ctx_, out.query);

  {
    obs::PhaseTimer timer(&out.profile, "expand_views", "compile.expand_views");
    auto body = ExpandViews(*ctx_, out.query.body, views_);
    if (!body.ok()) return fail(body.status(), &out.query, nullptr);
    out.query.body = *body;
  }

  // TranslateQuery emits its own "compile.translate" span; time the phase
  // here without a second span and graft the translation's phase tree
  // (rectify, safety, ENF, RANF, algebra_gen, optimize) under this node.
  uint64_t translate_start = obs::NowNs();
  StatusOr<Translation> translation =
      TranslateQuery(*ctx_, out.query, options, params);
  {
    out.profile.children.emplace_back();
    obs::CompilePhase& phase = out.profile.children.back();
    phase.name = "translate";
    phase.wall_ns = obs::NowNs() - translate_start;
    if (translation.ok()) {
      phase.children = std::move(translation->profile.children);
    }
  }
  if (!translation.ok()) {
    if (lint_to_log) {
      // Stage-boundary verification failures inside the translator surface
      // as structured diagnostics on the compile record, like lint findings.
      std::vector<diag::Diagnostic> vd =
          verify::DiagnosticsFromStatus(translation.status());
      for (diag::Diagnostic& d : vd) log_diags.push_back(std::move(d));
    }
    if (lint_to_log && translation.status().code() == StatusCode::kNotSafe) {
      // Re-run the safety check, in the parameter context, to attach the
      // structured blame trace; the bd sets are memoized per formula, so
      // this costs one extra closure.
      EmAllowedChecker checker(*ctx_, EffectiveBound(options));
      SafetyResult safety =
          checker.CheckFormula(Rectify(*ctx_, out.query.body), param_set);
      if (!safety.em_allowed) {
        log_diags.push_back(
            diag::BuildSafetyBlame(*ctx_, checker.bound(), safety));
      }
    }
    return fail(translation.status(), &out.query, nullptr);
  }

  out.prepared.plan = translation->plan;
  out.prepared.num_params = static_cast<int>(params.size());
  out.prepared.hash = obs::HashQueryText(text);
  out.prepared.text = text;
  if (Status s = LowerPrepared(out.prepared, out.profile); !s.ok()) {
    if (lint_to_log) {
      for (diag::Diagnostic& d : verify::DiagnosticsFromStatus(s)) {
        log_diags.push_back(std::move(d));
      }
    }
    return fail(s, &out.query, &*translation);
  }

  out.profile.wall_ns = obs::NowNs() - start_ns;
  CompileMetrics::Get().wall_ns.Observe(
      static_cast<double>(out.profile.wall_ns));
  LogCompile(text, Status::Ok(), out.profile, &*translation, &out.query,
             std::move(log_diags));
  out.translation = std::move(translation).value();
  return out;
}

Status Compiler::LowerPrepared(PreparedPlan& prepared,
                               obs::CompilePhase& profile) {
  obs::PhaseTimer timer(&profile, "lower", "compile.lower");
  auto lowered = Lower(*ctx_, prepared.plan, functions_, ExecOptions{},
                       prepared.num_params);
  if (lowered.ok()) {
    timer.SetDetail("ops=" + std::to_string(lowered->NumOperators()));
    prepared.physical =
        std::make_shared<const PhysicalPlan>(std::move(lowered).value());
    return Status::Ok();
  }
  // A stage-boundary verification failure means the lowered plan is
  // structurally wrong — fail the compile rather than hand out a query
  // whose plan is known to be broken.
  if (!verify::DiagnosticsFromStatus(lowered.status()).empty()) {
    return lowered.status();
  }
  // Keep the query usable for inspection; every run returns this error.
  timer.SetDetail("failed: " + lowered.status().ToString());
  prepared.lower_status = lowered.status();
  return Status::Ok();
}

std::string QueryAnalysis::Render() const {
  return diag::Render(diagnostics, text);
}

std::string QueryAnalysis::ToJson() const {
  return diag::ToJson(diagnostics, text);
}

QueryAnalysis Compiler::Analyze(std::string_view text,
                                const TranslateOptions& options) {
  obs::Span span("compile.analyze");
  QueryAnalysis out;
  out.text = std::string(text);

  ParseErrorInfo parse_error;
  StatusOr<Query> parsed = ParseQuery(*ctx_, text, &parse_error);
  if (!parsed.ok()) {
    out.diagnostics.push_back(MakeParseDiagnostic(parse_error));
    return out;
  }
  out.parsed = true;

  // Lint the freshly parsed tree — before view expansion and
  // rectification, so findings (shadowing included) point at the source.
  std::vector<diag::Diagnostic> lint = diag::LintQuery(*ctx_, *parsed);

  // Parse/well-formedness/safety diagnostics go between lint errors and
  // lint warnings.
  std::vector<diag::Diagnostic> blame;
  auto body = ExpandViews(*ctx_, parsed->body, views_);
  if (!body.ok()) {
    blame.emplace_back("views.error", diag::Severity::kError,
                       body.status().message());
  } else {
    Query rectified{parsed->head, Rectify(*ctx_, *body)};
    if (Status wf = CheckWellFormed(rectified, ctx_->symbols()); !wf.ok()) {
      blame.emplace_back("query.malformed", diag::Severity::kError,
                         wf.message());
    } else {
      EmAllowedChecker checker(*ctx_, EffectiveBound(options));
      out.safety = checker.Check(rectified);
      if (out.safety.em_allowed) {
        out.safe = true;
      } else {
        blame.push_back(
            diag::BuildSafetyBlame(*ctx_, checker.bound(), out.safety));
      }
    }
  }

  for (diag::Diagnostic& d : lint) {
    if (d.severity == diag::Severity::kError) {
      out.diagnostics.push_back(std::move(d));
    }
  }
  for (diag::Diagnostic& d : blame) out.diagnostics.push_back(std::move(d));
  for (diag::Diagnostic& d : lint) {
    if (d.severity != diag::Severity::kError) {
      out.diagnostics.push_back(std::move(d));
    }
  }
  return out;
}

StatusOr<const AlgExpr*> ParameterizedQuery::PlanFor(
    const std::vector<Value>& args) const {
  obs::Span span("compile.plan_for");
  if (args.size() != params_.size()) {
    return InvalidArgumentError(
        "expected " + std::to_string(params_.size()) + " arguments, got " +
        std::to_string(args.size()));
  }
  AstContext& ctx = owner_->ctx();
  Substitution sub;
  for (size_t i = 0; i < params_.size(); ++i) {
    sub.emplace(params_[i], ctx.MakeConst(args[i]));
  }
  // Constant substitution turns "RANF for params" into "RANF for {}".
  const Formula* grounded = SubstituteFormula(ctx, ranf_, sub);
  AlgebraGenerator generator(ctx, inverses_);
  auto plan = generator.Translate(grounded, query_.head);
  if (!plan.ok()) return plan.status();
  AlgebraFactory factory(ctx);
  return OptimizePlan(factory, *plan);
}

StatusOr<Relation> ParameterizedQuery::Run(const Database& db,
                                           const std::vector<Value>& args,
                                           ExecProfile* profile) const {
  return RunPrepared(prepared_, db, args, profile);
}

StatusOr<std::string> ParameterizedQuery::ExplainAnalyze(
    const Database& db, const std::vector<Value>& args) const {
  return ExplainPrepared(*owner_, prepared_, db, params_, args);
}

}  // namespace emcalc
