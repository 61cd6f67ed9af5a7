#include "perfbench/stages.h"

#include "src/algebra/optimizer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/rewrite.h"
#include "src/exec/lower.h"
#include "src/obs/query_log.h"
#include "src/safety/em_allowed.h"
#include "src/translate/algebra_gen.h"
#include "src/translate/enf.h"
#include "src/translate/ranf.h"

namespace emcalc::perfbench {

void StageResult::AccumulateInto(StageResult& sum) const {
  sum.bd_computations += bd_computations;
  sum.find_count += find_count;
  sum.enf_size += enf_size;
  sum.ranf_size += ranf_size;
  sum.raw_plan_nodes += raw_plan_nodes;
  sum.plan_nodes += plan_nodes;
  sum.physical_ops += physical_ops;
}

StatusOr<PhysicalPlan> LowerTraced(Tracer& tracer, uint64_t op, int parent,
                                   const AstContext& ctx,
                                   const FunctionRegistry& functions,
                                   const AlgExpr* plan,
                                   std::string_view text) {
  ExecOptions options;
  options.query_hash = obs::HashQueryText(text);
  Scoped span(tracer, "exec.lower", op, parent);
  return Lower(ctx, plan, functions, options);
}

StageResult CompileStages(Tracer& tracer, uint64_t op, int parent,
                          AstContext& ctx, const FunctionRegistry& functions,
                          std::string_view text) {
  StageResult r;
  // Sizes are measured after each span closes, so a span times only the
  // stage's own call.
  StatusOr<Query> parsed = [&] {
    Scoped span(tracer, "calculus.parse", op, parent);
    return ParseQuery(ctx, text);
  }();
  if (!parsed.ok()) {
    r.status = parsed.status();
    return r;
  }
  Query query = *parsed;
  {
    Scoped span(tracer, "translate.rectify", op, parent);
    query.body = Rectify(ctx, parsed->body);
    r.status = CheckWellFormed(query, ctx.symbols());
  }
  if (!r.status.ok()) return r;

  SafetyResult safety;
  {
    Scoped span(tracer, "safety.check", op, parent);
    EmAllowedChecker checker(ctx);
    safety = checker.Check(query);
    r.bd_computations = static_cast<double>(checker.bound().computations());
    if (safety.em_allowed) {
      r.find_count =
          static_cast<double>(checker.bound().Bound(query.body).size());
    }
  }
  if (!safety.em_allowed) {
    r.status = NotSafeError("query is not em-allowed: " + safety.reason);
    return r;
  }

  const Formula* enf = nullptr;
  {
    Scoped span(tracer, "translate.enf", op, parent);
    enf = ToEnf(ctx, query.body);
  }
  r.enf_size = FormulaSize(enf);

  StatusOr<const Formula*> ranf = [&] {
    Scoped span(tracer, "translate.ranf", op, parent);
    return ToRanf(ctx, enf, SymbolSet{});
  }();
  if (!ranf.ok()) {
    r.status = ranf.status();
    return r;
  }
  r.ranf_size = FormulaSize(*ranf);

  StatusOr<const AlgExpr*> raw = [&] {
    Scoped span(tracer, "translate.algebra_gen", op, parent);
    AlgebraGenerator generator(ctx);
    return generator.Translate(*ranf, query.head);
  }();
  if (!raw.ok()) {
    r.status = raw.status();
    return r;
  }
  r.raw_plan_nodes = (*raw)->NodeCount();

  {
    Scoped span(tracer, "algebra.optimize", op, parent);
    AlgebraFactory factory(ctx);
    r.plan = OptimizePlan(factory, *raw);
  }
  r.plan_nodes = r.plan->NodeCount();

  StatusOr<PhysicalPlan> lowered =
      LowerTraced(tracer, op, parent, ctx, functions, r.plan, text);
  if (!lowered.ok()) {
    r.status = lowered.status();
    return r;
  }
  r.physical_ops = lowered->NumOperators();
  r.physical = std::move(lowered).value();
  return r;
}

void EmitStageMetrics(const Tracer& tracer, const StageResult& sum,
                      double ops, MetricMap& out) {
  std::map<std::string, uint64_t> self = tracer.SelfNsByName();
  auto us = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() || ops <= 0
               ? 0.0
               : static_cast<double>(it->second) / 1e3 / ops;
  };
  auto mean = [&](double total) { return ops > 0 ? total / ops : 0.0; };
  Put(out, "calculus.parse_us", us("calculus.parse"), "us");
  Put(out, "translate.rectify_us", us("translate.rectify"), "us");
  Put(out, "safety.check_us", us("safety.check"), "us");
  Put(out, "translate.enf_us", us("translate.enf"), "us");
  Put(out, "translate.ranf_us", us("translate.ranf"), "us");
  Put(out, "translate.algebra_gen_us", us("translate.algebra_gen"), "us");
  Put(out, "algebra.optimize_us", us("algebra.optimize"), "us");
  Put(out, "exec.lower_us", us("exec.lower"), "us");
  Put(out, "exec.execute_us", us("exec.execute"), "us");
  Put(out, "finds.bd_computations", mean(sum.bd_computations), "count");
  Put(out, "finds.find_count", mean(sum.find_count), "count");
  Put(out, "translate.enf_size", mean(sum.enf_size), "count");
  Put(out, "translate.ranf_size", mean(sum.ranf_size), "count");
  Put(out, "translate.raw_plan_nodes", mean(sum.raw_plan_nodes), "count");
  Put(out, "algebra.plan_nodes", mean(sum.plan_nodes), "count");
  Put(out, "exec.physical_ops", mean(sum.physical_ops), "count");
}

}  // namespace emcalc::perfbench
