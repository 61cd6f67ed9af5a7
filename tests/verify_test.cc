// The stage-boundary verifier's own tests:
//
//  - mutation harness: every seeded single-node corruption from
//    src/verify/mutate.h, applied to corpus and synthetic plans, must be
//    rejected with the mutation's expected rule id (the rules have teeth);
//  - fuzz: hundreds of random em-allowed queries must verify clean at all
//    five stage boundaries with verification forced on (no false alarms);
//  - targeted negative cases for the calculus/formula rules that the plan
//    mutators cannot reach (arity conflicts, shadowing, missing spans);
//  - report plumbing: Status round-trip into query-log diagnostics.
#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/algebra/ast.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"
#include "src/core/random_query.h"
#include "src/exec/lower.h"
#include "src/translate/pipeline.h"
#include "src/verify/mutate.h"
#include "src/verify/verify.h"

namespace emcalc::verify {
namespace {

// Restores the environment/build-type default on scope exit.
struct ScopedVerify {
  explicit ScopedVerify(int mode) { ForceEnabled(mode); }
  ~ScopedVerify() { ForceEnabled(-1); }
};

FunctionRegistry TestFunctions() {
  FunctionRegistry reg = BuiltinFunctions();
  auto mod_fn = [](int64_t mul, int64_t add) {
    return [mul, add](std::span<const Value> a) {
      int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
      return Value::Int((n * mul + add) % 7);
    };
  };
  reg.Register("f", 1, mod_fn(1, 1));
  reg.Register("g", 1, mod_fn(2, 0));
  reg.Register("h", 1, mod_fn(3, 2));
  reg.Register("k", 1, mod_fn(1, 4));
  // The random generator's function pool.
  reg.Register("rf0", 1, mod_fn(1, 1));
  reg.Register("rf1", 2, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 0;
    int64_t m = a[1].is_int() ? a[1].AsInt() : 0;
    return Value::Int((n * 2 + m) % 7);
  });
  return reg;
}

// Queries chosen so every mutation has at least one applicable plan:
// projections, selections, hash and nested-loop joins (equal and unequal
// operand arities), unions, differences (whose shared context subplan
// lowers to a Materialize), and scalar-function applications.
const char* kQueries[] = {
    "{y | exists x (R(x) and y = g(f(x)))}",
    "{x | R(x) and exists y (f(x) = y and not R(y))}",
    "{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",
    "{x, y, z | R(x, y, z) and not S(y, z)}",
    "{x | R(x) and x < 4}",
    "{x, y | R(x) and S(y) and x < y}",
    "{x, y, z | T(x, y) and R(z) and x = z}",
};

// Plans the translator cannot be coaxed into from these queries: a kUnit
// leaf under a join, and two distinct shared subtrees (two Materializes).
std::vector<const AlgExpr*> SyntheticPlans(AstContext& ctx) {
  AlgebraFactory factory(ctx);
  std::vector<const AlgExpr*> plans;
  plans.push_back(
      factory.Join({}, factory.Unit(), factory.Rel("R", 1)));
  const AlgExpr* a = factory.Rel("R", 1);
  const AlgExpr* b = factory.Rel("S", 1);
  plans.push_back(factory.Join({}, factory.Union(a, a),
                               factory.Union(b, b)));
  return plans;
}

// Translated (optimized) plans for kQueries, built into `ctx`.
std::vector<const AlgExpr*> CorpusPlans(AstContext& ctx) {
  std::vector<const AlgExpr*> plans;
  for (const char* text : kQueries) {
    auto q = ParseQuery(ctx, text);
    EXPECT_TRUE(q.ok()) << text;
    if (!q.ok()) continue;
    auto t = TranslateQuery(ctx, *q);
    EXPECT_TRUE(t.ok()) << text << ": " << t.status().ToString();
    if (t.ok()) plans.push_back(t->plan);
  }
  return plans;
}

void ForEachMutation(const std::function<void(Mutation)>& fn) {
  for (int m = static_cast<int>(kFirstMutation);
       m <= static_cast<int>(kLastMutation); ++m) {
    fn(static_cast<Mutation>(m));
  }
}

TEST(VerifyMutationTest, EveryAlgebraMutationIsCaughtWithItsRule) {
  ScopedVerify off(0);  // mutants must not trip checks inside lowering etc.
  AstContext ctx;
  std::vector<const AlgExpr*> plans = CorpusPlans(ctx);
  for (const AlgExpr* p : SyntheticPlans(ctx)) plans.push_back(p);

  // Baseline: every clean plan verifies clean.
  for (const AlgExpr* plan : plans) {
    AlgebraOptions opts;
    opts.stage = Stage::kOptimizedAlgebra;
    VerifyReport clean = VerifyAlgebra(plan, opts);
    EXPECT_TRUE(clean.ok()) << clean.ToString();
  }

  ForEachMutation([&](Mutation m) {
    if (IsPhysicalMutation(m)) return;
    int applicable = 0;
    for (const AlgExpr* plan : plans) {
      PlanMutator mutator(ctx);
      const AlgExpr* bad = mutator.Corrupt(plan, m);
      if (bad == nullptr) continue;  // no applicable node in this plan
      ++applicable;
      AlgebraOptions opts;
      opts.stage = Stage::kOptimizedAlgebra;
      VerifyReport report = VerifyAlgebra(bad, opts);
      EXPECT_FALSE(report.ok())
          << MutationName(m) << " on " << AlgExprToString(ctx, plan);
      EXPECT_TRUE(report.Has(ExpectedRule(m)))
          << MutationName(m) << " expected rule " << ExpectedRule(m)
          << " but got:\n" << report.ToString();
    }
    EXPECT_GE(applicable, 1)
        << MutationName(m) << " applied to no plan in the corpus";
  });
}

// Parameter indices are checked against the query's parameter count: a
// prepared parameterized plan verifies clean with its own count, and the
// same plan fails in a closed query (no parameters), in the algebra, the
// physical plan, and after the out-of-range mutation.
TEST(VerifyMutationTest, ParameterIndicesMatchTheParameterCount) {
  ScopedVerify on(1);
  Compiler compiler(TestFunctions());
  auto q = compiler.CompileParameterized(
      "{y | exists x (R(x, y) and f(p) = x and y != q)}", {"p", "q"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const AstContext& ctx = compiler.ctx();
  AlgebraOptions opts;
  opts.stage = Stage::kOptimizedAlgebra;
  opts.num_params = 2;
  EXPECT_TRUE(VerifyAlgebra(q->plan(), opts).ok());
  opts.num_params = 1;  // $q is argument 1
  EXPECT_TRUE(VerifyAlgebra(q->plan(), opts).Has("alg.param-range"));
  opts.num_params = 0;  // a closed query admits no parameter at all
  EXPECT_TRUE(VerifyAlgebra(q->plan(), opts).Has("alg.param-range"));

  auto prepared = Lower(ctx, q->plan(), compiler.functions(), {}, 2);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(VerifyPhysical(*prepared, q->plan()).ok());
  // Lowering range-checks too, so a closed lowering of the plan fails
  // before VerifyPhysical could see it.
  auto closed = Lower(ctx, q->plan(), compiler.functions());
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kInvalidArgument);

  PlanMutator mutator(compiler.ctx());
  const AlgExpr* bad =
      mutator.Corrupt(q->plan(), Mutation::kAlgParamOutOfRange);
  ASSERT_NE(bad, nullptr);
  opts.num_params = 2;
  EXPECT_TRUE(VerifyAlgebra(bad, opts).Has("alg.param-range"));
}

TEST(VerifyMutationTest, EveryPhysicalMutationIsCaughtWithItsRule) {
  ScopedVerify off(0);  // corrupt plans by hand, verify explicitly
  AstContext ctx;
  FunctionRegistry registry = TestFunctions();
  std::vector<const AlgExpr*> plans = CorpusPlans(ctx);
  for (const AlgExpr* p : SyntheticPlans(ctx)) plans.push_back(p);

  ForEachMutation([&](Mutation m) {
    if (!IsPhysicalMutation(m)) return;
    int applicable = 0;
    for (const AlgExpr* plan : plans) {
      auto lowered = Lower(ctx, plan, registry);
      ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
      // Baseline: the untouched lowering verifies clean.
      VerifyReport clean = VerifyPhysical(*lowered, plan);
      ASSERT_TRUE(clean.ok()) << clean.ToString();
      PlanMutator mutator(ctx);
      if (!mutator.Corrupt(*lowered, m)) continue;
      ++applicable;
      VerifyReport report = VerifyPhysical(*lowered, plan);
      EXPECT_FALSE(report.ok())
          << MutationName(m) << " on " << AlgExprToString(ctx, plan);
      EXPECT_TRUE(report.Has(ExpectedRule(m)))
          << MutationName(m) << " expected rule " << ExpectedRule(m)
          << " but got:\n" << report.ToString();
    }
    EXPECT_GE(applicable, 1)
        << MutationName(m) << " applied to no plan in the corpus";
  });
}

TEST(VerifyFuzzTest, RandomValidQueriesVerifyCleanAtEveryStage) {
  // With verification forced on, TranslateQuery checks stages 2-4 inline
  // and Lower checks stage 5; a violation fails the call. Stage 1 and the
  // explicit algebra/physical reports are checked directly as well.
  ScopedVerify on(1);
  AstContext ctx;
  RandomQueryGen gen(ctx, 20260809);
  FunctionRegistry registry = TestFunctions();
  int verified = 0;
  for (int i = 0; i < 5000 && verified < 500; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    std::string text = QueryToString(ctx, *q);
    VerifyReport calc = VerifyCalculus(ctx, *q, /*require_spans=*/false);
    EXPECT_TRUE(calc.ok()) << text << "\n" << calc.ToString();
    auto t = TranslateQuery(ctx, *q);
    if (!t.ok()) {
      // The RANF ordering heuristic rejects a few em-allowed shapes; that
      // is a translator limitation, not a verifier violation — but a
      // failure carrying a verification report IS a verifier bug.
      EXPECT_TRUE(DiagnosticsFromStatus(t.status()).empty())
          << text << ": " << t.status().ToString();
      continue;
    }
    auto lowered = Lower(ctx, t->plan, registry);
    ASSERT_TRUE(lowered.ok()) << text << ": " << lowered.status().ToString();
    AlgebraOptions opts;
    opts.stage = Stage::kOptimizedAlgebra;
    opts.expected_arity = static_cast<int>(q->head.size());
    VerifyReport alg = VerifyAlgebra(t->plan, opts);
    EXPECT_TRUE(alg.ok()) << text << "\n" << alg.ToString();
    VerifyReport phys = VerifyPhysical(*lowered, t->plan);
    EXPECT_TRUE(phys.ok()) << text << "\n" << phys.ToString();
    ++verified;
  }
  EXPECT_EQ(verified, 500);
}

// --- stage 1/2 rules the plan mutators cannot reach ---

TEST(VerifyCalculusTest, InconsistentRelationArityIsRejected) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | R(x) and exists y (R(x, y))}");
  ASSERT_TRUE(q.ok());
  VerifyReport report = VerifyCalculus(ctx, *q, /*require_spans=*/true);
  EXPECT_TRUE(report.Has("form.rel-arity")) << report.ToString();
}

TEST(VerifyCalculusTest, InconsistentFunctionArityIsRejected) {
  AstContext ctx;
  auto q = ParseQuery(
      ctx, "{x, y | R(x) and y = f(x) and exists z (S(z) and y = f(x, z))}");
  ASSERT_TRUE(q.ok());
  VerifyReport report = VerifyCalculus(ctx, *q, /*require_spans=*/true);
  EXPECT_TRUE(report.Has("form.fn-arity")) << report.ToString();
}

TEST(VerifyCalculusTest, HeadRulesFireOnDupAndNonFreeVariables) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | R(x)}");
  ASSERT_TRUE(q.ok());
  Symbol x = ctx.symbols().Intern("x");
  Symbol z = ctx.symbols().Intern("z");
  Query dup{{x, x}, q->body};
  EXPECT_TRUE(VerifyCalculus(ctx, dup, false).Has("calc.head-dup"));
  Query not_free{{x, z}, q->body};
  EXPECT_TRUE(VerifyCalculus(ctx, not_free, false).Has("calc.head-free"));
}

TEST(VerifyCalculusTest, SpanCoverageIsRequiredOnlyForParsedQueries) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | R(x)}");
  ASSERT_TRUE(q.ok());
  // Parsed nodes all carry spans.
  EXPECT_TRUE(VerifyCalculus(ctx, *q, /*require_spans=*/true).ok());
  // A node grafted on programmatically has none.
  Query wrapped{q->head, ctx.MakeNot(ctx.MakeNot(q->body))};
  VerifyReport report = VerifyCalculus(ctx, wrapped, /*require_spans=*/true);
  EXPECT_TRUE(report.Has("form.span")) << report.ToString();
  EXPECT_TRUE(VerifyCalculus(ctx, wrapped, /*require_spans=*/false).ok());
}

TEST(VerifyCalculusTest, DuplicateQuantifierVariableIsRejected) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | R(x) and exists y (T(x, y))}");
  ASSERT_TRUE(q.ok());
  Symbol y = ctx.symbols().Intern("y");
  std::vector<Symbol> vars = {y, y};
  Query bad{q->head, ctx.MakeExists(vars, q->body)};
  VerifyReport report = VerifyCalculus(ctx, bad, /*require_spans=*/false);
  EXPECT_TRUE(report.Has("form.quantifier-vars")) << report.ToString();
}

TEST(VerifySafetyFormulaTest, ShadowingIsRejectedAfterRectification) {
  AstContext ctx;
  auto q =
      ParseQuery(ctx, "{y | S(y) and exists x (R(x) and exists x (R(x)))}");
  ASSERT_TRUE(q.ok());
  VerifyReport report =
      VerifySafetyFormula(ctx, q->body, FreeVars(q->body));
  EXPECT_TRUE(report.Has("form.shadow")) << report.ToString();
  // The same formula is legal at stage 1 (rectification comes later).
  EXPECT_FALSE(VerifyCalculus(ctx, *q, true).Has("form.shadow"));
}

TEST(VerifySafetyFormulaTest, EscapedFreeVariablesAreRejected) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | R(x)}");
  ASSERT_TRUE(q.ok());
  VerifyReport report = VerifySafetyFormula(ctx, q->body, SymbolSet{});
  EXPECT_TRUE(report.Has("form.free-vars")) << report.ToString();
  EXPECT_TRUE(VerifySafetyFormula(ctx, q->body, FreeVars(q->body)).ok());
}

TEST(VerifyRanfTest, NonRanfFormulaFailsTheShapeRule) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | not R(x)}");
  ASSERT_TRUE(q.ok());
  AlgebraFactory factory(ctx);
  AlgebraOptions opts;
  VerifyReport report = VerifyRanfAlgebra(
      q->body, SymbolSet{}, SymbolSet{}, factory.Rel("R", 1), opts);
  EXPECT_TRUE(report.Has("ranf.shape")) << report.ToString();
}

TEST(VerifyAlgebraTest, RootArityMismatchIsRejected) {
  AstContext ctx;
  AlgebraFactory factory(ctx);
  AlgebraOptions opts;
  opts.expected_arity = 2;
  VerifyReport report = VerifyAlgebra(factory.Rel("R", 1), opts);
  EXPECT_TRUE(report.Has("alg.root-arity")) << report.ToString();
}

TEST(VerifyProfileTest, ProfileRulesCatchBadArities) {
  ExecProfile p;
  p.op = PhysOpKind::kScan;
  p.arity = 1;
  EXPECT_TRUE(VerifyProfile(p).ok());
  p.arity = -1;
  EXPECT_TRUE(VerifyProfile(p).Has("prof.arity"));
}

// --- report plumbing ---

TEST(VerifyReportTest, StatusRoundTripsIntoDiagnostics) {
  VerifyReport report;
  report.stage = Stage::kRanfAlgebra;
  report.violations.push_back(
      {"alg.col-range", "root.left", "column @5 beyond input arity 3"});
  report.violations.push_back({"alg.cond-null", "root", "null condition"});
  Status status = report.ToStatus();
  ASSERT_FALSE(status.ok());
  std::vector<diag::Diagnostic> diags = DiagnosticsFromStatus(status);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].code, "verify.alg.col-range");
  EXPECT_EQ(diags[1].code, "verify.alg.cond-null");
  // Statuses that carry no verification report decode to nothing.
  EXPECT_TRUE(DiagnosticsFromStatus(InternalError("boom")).empty());
  EXPECT_TRUE(DiagnosticsFromStatus(Status::Ok()).empty());
}

TEST(VerifyReportTest, CleanReportIsOkStatus) {
  VerifyReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.ToStatus().ok());
  EXPECT_TRUE(report.ToDiagnostics().empty());
}

// --- end-to-end gating ---

TEST(VerifyGateTest, CompilerAcceptsTheCorpusWithVerificationForced) {
  ScopedVerify on(1);
  Compiler compiler(TestFunctions());
  for (const char* text : kQueries) {
    auto q = compiler.Compile(text);
    EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  }
}

TEST(VerifyGateTest, CompileFailsWithViolationReportWhenForced) {
  ScopedVerify on(1);
  Compiler compiler(TestFunctions());
  auto q = compiler.Compile("{x | R(x) and exists y (R(x, y))}");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("form.rel-arity"), std::string::npos)
      << q.status().ToString();
}

TEST(VerifyGateTest, ForceDisabledSkipsTheStageChecks) {
  ScopedVerify off(0);
  EXPECT_FALSE(Enabled());
  ForceEnabled(1);
  EXPECT_TRUE(Enabled());
  ForceEnabled(-1);  // back to the environment/build default
}

}  // namespace
}  // namespace emcalc::verify
