#include "src/translate/pipeline.h"

#include "src/algebra/optimizer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/rewrite.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/translate/algebra_gen.h"
#include "src/translate/distribute.h"
#include "src/translate/ranf.h"
#include "src/verify/verify.h"

namespace emcalc {

namespace {

// Well-formedness of `q` relative to the parameter set `params` (of
// `num_params` names): with no parameters, the query-level check; with
// some, the body's free variables are exactly head ∪ params instead.
Status CheckWellFormedFor(const Query& q, const SymbolSet& params,
                          size_t num_params, const SymbolTable& symbols) {
  if (num_params == 0) return CheckWellFormed(q, symbols);
  if (params.size() != num_params) {
    return InvalidArgumentError("duplicate parameter name");
  }
  for (Symbol h : q.head) {
    if (params.Contains(h)) {
      return InvalidArgumentError("head variable is also a parameter");
    }
  }
  if (Status s = CheckWellFormed(q.body, symbols); !s.ok()) return s;
  if (FreeVars(q.body) != SymbolSet(q.head).Union(params)) {
    return InvalidArgumentError(
        "body's free variables must be exactly head + parameters");
  }
  return Status::Ok();
}

}  // namespace

BoundOptions EffectiveBound(const TranslateOptions& options) {
  BoundOptions bound = options.bound;
  for (const auto& [fn, inv] : options.inverse_fns) {
    bound.invertible_fns.Insert(fn);
  }
  return bound;
}

StatusOr<Translation> TranslateQuery(AstContext& ctx, const Query& q,
                                     const TranslateOptions& options,
                                     std::span<const Symbol> params) {
  obs::Span span("compile.translate");
  uint64_t start_ns = obs::NowNs();
  Translation out;
  out.profile.name = "translate";
  const SymbolSet param_set(std::vector<Symbol>(params.begin(), params.end()));

  // Shadowed quantifiers are legal calculus; rename them apart so the
  // remaining passes (and the well-formedness check) can assume distinct
  // bound variables.
  Query query = q;
  {
    obs::PhaseTimer timer(&out.profile, "rectify", "compile.rectify");
    query.body = Rectify(ctx, q.body);
    if (Status s = CheckWellFormedFor(query, param_set, params.size(),
                                      ctx.symbols());
        !s.ok()) {
      return s;
    }
  }

  const BoundOptions bound = EffectiveBound(options);

  {
    obs::PhaseTimer timer(&out.profile, "safety", "compile.safety");
    EmAllowedChecker checker(ctx, bound);
    out.safety = checker.CheckFormula(query.body, param_set);
    out.bd_computations = checker.bound().computations();
    if (out.safety.em_allowed) {
      out.find_count = checker.bound().Bound(query.body).size();
    }
    timer.SetDetail(
        (out.safety.em_allowed ? std::string("em-allowed")
                               : std::string("rejected")) +
        " bd_computations=" + std::to_string(out.bd_computations) +
        " finds=" + std::to_string(out.find_count));
    if (!out.safety.em_allowed) {
      return NotSafeError(std::string("query is not em-allowed") +
                          (params.empty() ? "" : " for its parameters") +
                          ": " + out.safety.reason);
    }
  }

  {
    obs::PhaseTimer timer(&out.profile, "enf", "compile.enf");
    EnfOptions enf_options;
    enf_options.enable_t10 = options.enable_t10;
    enf_options.bound = bound;
    out.enf = ToEnf(ctx, query.body, enf_options);
    timer.SetDetail("size=" + std::to_string(FormulaSize(out.enf)));
  }

  // Stage boundary 2: the rectified + safety-checked formula in ENF.
  if (verify::Enabled()) {
    verify::VerifyReport vr =
        verify::VerifySafetyFormula(ctx, out.enf, FreeVars(query.body));
    if (!vr.ok()) return vr.ToStatus();
  }

  const Formula* pre_ranf = out.enf;
  if (options.distribute_disjunctions) {
    obs::PhaseTimer timer(&out.profile, "distribute", "compile.distribute");
    pre_ranf = DistributeDisjunctions(ctx, pre_ranf);
    timer.SetDetail("size=" + std::to_string(FormulaSize(pre_ranf)));
  }

  {
    obs::PhaseTimer timer(&out.profile, "ranf", "compile.ranf");
    auto ranf = ToRanf(ctx, pre_ranf, param_set, bound.invertible_fns);
    if (!ranf.ok()) return ranf.status();
    out.ranf = *ranf;
    timer.SetDetail("size=" + std::to_string(FormulaSize(out.ranf)));
  }

  {
    obs::PhaseTimer timer(&out.profile, "algebra_gen", "compile.algebra_gen");
    AlgebraGenerator generator(
        ctx, options.inverse_fns,
        std::vector<Symbol>(params.begin(), params.end()));
    auto plan = generator.Translate(out.ranf, query.head);
    if (!plan.ok()) return plan.status();
    out.raw_plan = *plan;
    timer.SetDetail("nodes=" + std::to_string(out.raw_plan->NodeCount()));
  }

  // Stage boundary 3: the RANF formula and the raw translated plan.
  verify::AlgebraOptions verify_options;
  verify_options.expected_arity = static_cast<int>(query.head.size());
  verify_options.num_params = static_cast<int>(params.size());
  if (verify::Enabled()) {
    verify::VerifyReport vr =
        verify::VerifyRanfAlgebra(out.ranf, param_set, bound.invertible_fns,
                                  out.raw_plan, verify_options);
    if (!vr.ok()) return vr.ToStatus();
  }

  if (options.optimize) {
    obs::PhaseTimer timer(&out.profile, "optimize", "compile.optimize");
    AlgebraFactory factory(ctx);
    out.plan = OptimizePlan(factory, out.raw_plan);
    timer.SetDetail("nodes " + std::to_string(out.raw_plan->NodeCount()) +
                    "->" + std::to_string(out.plan->NodeCount()));
  } else {
    out.plan = out.raw_plan;
  }

  // Stage boundary 4: the optimized plan (the optimizer must preserve
  // every structural invariant the raw plan had).
  if (options.optimize && verify::Enabled()) {
    verify_options.stage = verify::Stage::kOptimizedAlgebra;
    verify::VerifyReport vr =
        verify::VerifyAlgebra(out.plan, verify_options);
    if (!vr.ok()) return vr.ToStatus();
  }

  out.profile.wall_ns = obs::NowNs() - start_ns;

  static obs::Counter& translations =
      obs::MetricsRegistry::Instance().GetCounter("translate.queries");
  translations.Add();
  return out;
}

}  // namespace emcalc
