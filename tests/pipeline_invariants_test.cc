// Cross-cutting pipeline invariants, checked on both the named corpus and
// random queries:
//
//  - translated plans never contain kAdom nodes (the whole point of the
//    direct translation);
//  - plans reference only relations/functions the query mentions;
//  - the optimized plan is never larger than the raw plan;
//  - translation output is deterministic;
//  - compiled plans never call scalar functions on values outside
//    term^k(adom) — the operational heart of embedded domain independence
//    (Theorem 6.6), checked with a tripwire function registry.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"
#include "src/core/random_query.h"
#include "src/core/workload.h"
#include "src/exec/lower.h"
#include "src/obs/query_log.h"
#include "src/storage/adom.h"
#include "src/translate/pipeline.h"
#include "src/verify/verify.h"

namespace emcalc {
namespace {

// Collects operator kinds and relation symbols used by a plan.
void CollectPlan(const AlgExpr* plan, std::set<AlgKind>& kinds,
                 std::set<Symbol>& rels) {
  kinds.insert(plan->kind());
  if (plan->kind() == AlgKind::kRel) rels.insert(plan->rel());
  switch (plan->kind()) {
    case AlgKind::kProject:
    case AlgKind::kSelect:
      CollectPlan(plan->input(), kinds, rels);
      break;
    case AlgKind::kJoin:
    case AlgKind::kUnion:
    case AlgKind::kDiff:
      CollectPlan(plan->left(), kinds, rels);
      CollectPlan(plan->right(), kinds, rels);
      break;
    case AlgKind::kRel:
    case AlgKind::kUnit:
    case AlgKind::kEmpty:
    case AlgKind::kAdom:
      break;  // leaves
  }
}

TEST(PipelineInvariantsTest, PlansStayInsideTheQuerySignature) {
  AstContext ctx;
  RandomQueryGen gen(ctx, 2718);
  int checked = 0;
  for (int i = 0; i < 80 && checked < 25; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok()) << QueryToString(ctx, *q);
    std::set<AlgKind> kinds;
    std::set<Symbol> rels;
    CollectPlan(t->plan, kinds, rels);
    // Never an active-domain scan.
    EXPECT_EQ(kinds.count(AlgKind::kAdom), 0u) << QueryToString(ctx, *q);
    // Only relations the query mentions.
    auto mentioned = CollectRelations(q->body);
    for (Symbol r : rels) {
      EXPECT_TRUE(mentioned.count(r) > 0)
          << "plan scans unmentioned relation "
          << ctx.symbols().Name(r) << " for " << QueryToString(ctx, *q);
    }
    // The simplifier never grows the plan.
    EXPECT_LE(t->plan->NodeCount(), t->raw_plan->NodeCount());
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

TEST(PipelineInvariantsTest, TranslationIsDeterministic) {
  AstContext ctx;
  RandomQueryGen gen(ctx, 977);
  int checked = 0;
  for (int i = 0; i < 40 && checked < 10; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    auto t1 = TranslateQuery(ctx, *q);
    auto t2 = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t1.ok() && t2.ok());
    EXPECT_EQ(AlgExprToString(ctx, t1->plan), AlgExprToString(ctx, t2->plan))
        << QueryToString(ctx, *q);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// The tripwire: functions that abort the test when applied to a value
// outside the allowed neighborhood. Verifies that evaluating a translated
// plan only ever applies scalar functions to values from term^k(adom) —
// the computational content of embedded domain independence.
TEST(PipelineInvariantsTest, PlansOnlyApplyFunctionsInsideTheNeighborhood) {
  AstContext ctx;
  RandomQueryGen gen(ctx, 31337);
  Database db;
  const auto& arities = gen.relation_arities();
  for (size_t i = 0; i < arities.size(); ++i) {
    AddRandomTuples(db, "R" + std::to_string(i), arities[i], 6, 6, 5 + i);
  }

  // The compact implementations used to close the neighborhood.
  auto rf0 = [](int64_t n) { return (n + 1) % 7; };
  auto rf1 = [](int64_t n, int64_t m) { return (n * 2 + m) % 7; };

  int checked = 0;
  for (int i = 0; i < 60 && checked < 12; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    int level = CountApplications(q->body);
    if (level > 4) continue;
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok());

    // Compute term^level(adom(q, I)) with plain implementations.
    FunctionRegistry plain;
    plain.Register("rf0", 1, [&rf0](std::span<const Value> a) {
      return Value::Int(rf0(a[0].is_int() ? a[0].AsInt() : 0));
    });
    plain.Register("rf1", 2, [&rf1](std::span<const Value> a) {
      return Value::Int(rf1(a[0].is_int() ? a[0].AsInt() : 0,
                            a[1].is_int() ? a[1].AsInt() : 0));
    });
    ValueSet base = ActiveDomain(q->body, db);
    auto closure = TermClosure(base, {{"rf0", 1}, {"rf1", 2}}, plain,
                               level, 100000);
    ASSERT_TRUE(closure.ok());
    const ValueSet& hood = *closure;
    auto inside = [&hood](const Value& v) {
      return std::binary_search(hood.begin(), hood.end(), v);
    };

    // Tripwire registry: same functions, but arguments must be in the
    // neighborhood.
    int violations = 0;
    FunctionRegistry tripwire;
    tripwire.Register("rf0", 1,
                      [&rf0, &inside, &violations](std::span<const Value> a) {
                        if (!inside(a[0])) ++violations;
                        return Value::Int(
                            rf0(a[0].is_int() ? a[0].AsInt() : 0));
                      });
    tripwire.Register("rf1", 2,
                      [&rf1, &inside, &violations](std::span<const Value> a) {
                        if (!inside(a[0]) || !inside(a[1])) ++violations;
                        return Value::Int(
                            rf1(a[0].is_int() ? a[0].AsInt() : 0,
                                a[1].is_int() ? a[1].AsInt() : 0));
                      });
    auto answer = EvaluateAlgebra(ctx, t->plan, db, tripwire);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(violations, 0) << QueryToString(ctx, *q);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(PipelineInvariantsTest, NamedCorpusPlanShapesAreStable) {
  // Golden plans for the paper's examples — any change here is a
  // deliberate translator change and should update this table.
  struct Golden {
    const char* query;
    const char* plan;
  };
  const Golden golden[] = {
      {"{y | exists x (R(x) and y = g(f(x)))}", "project([g(f(@1))], R)"},
      {"{x, y, z | R(x, y, z) and not S(y, z)}",
       "(R - project([@1,@2,@3], join({@2==@4,@3==@5}, R, S)))"},
      {"{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",
       "(project([@1,f(@1)], R) + project([g(@1),@1], S))"},
      {"{x | R(x) and x < 4}", "select({@1<4}, R)"},
      {"{x | R(x) and not S(x)}", "(R - project([@1], join({@1==@2}, R, "
                                  "S)))"},
  };
  for (const Golden& g : golden) {
    AstContext ctx;
    auto q = ParseQuery(ctx, g.query);
    ASSERT_TRUE(q.ok());
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok()) << g.query;
    EXPECT_EQ(AlgExprToString(ctx, t->plan), g.plan) << g.query;
  }
}

// --- stage-boundary verification over the named corpus ---

// Every paper-corpus query must verify clean at all five stage boundaries
// (calculus, safety formula, RANF algebra, optimized algebra, physical).
// Stages 2-4 run inside TranslateQuery and stage 5 inside Lower when
// verification is forced on; stages 1, 4, and 5 are additionally checked
// via explicit reports so a clean Status provably means a clean report.
TEST(PipelineInvariantsTest, PaperCorpusVerifiesCleanAtEveryStage) {
  verify::ForceEnabled(1);
  const char* corpus[] = {
      "{y | exists x (R(x) and y = g(f(x)))}",
      "{x | R(x) and exists y (f(x) = y and not R(y))}",
      "{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
      "((h(x) != y and k(x) != y) or P(x, y)))}",
      "{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",
      "{x, y, z | R(x, y, z) and not S(y, z)}",
      "{x | R(x) and x < 4}",
  };
  FunctionRegistry registry = BuiltinFunctions();
  auto mod_fn = [](int64_t mul, int64_t add) {
    return [mul, add](std::span<const Value> a) {
      int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
      return Value::Int((n * mul + add) % 7);
    };
  };
  registry.Register("f", 1, mod_fn(1, 1));
  registry.Register("g", 1, mod_fn(2, 0));
  registry.Register("h", 1, mod_fn(3, 2));
  registry.Register("k", 1, mod_fn(1, 4));
  for (const char* text : corpus) {
    AstContext ctx;
    auto q = ParseQuery(ctx, text);
    ASSERT_TRUE(q.ok()) << text;
    verify::VerifyReport calc =
        verify::VerifyCalculus(ctx, *q, /*require_spans=*/true);
    EXPECT_TRUE(calc.ok()) << text << "\n" << calc.ToString();
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok()) << text << ": " << t.status().ToString();
    verify::AlgebraOptions opts;
    opts.stage = verify::Stage::kOptimizedAlgebra;
    opts.expected_arity = static_cast<int>(q->head.size());
    verify::VerifyReport alg = verify::VerifyAlgebra(t->plan, opts);
    EXPECT_TRUE(alg.ok()) << text << "\n" << alg.ToString();
    auto lowered = Lower(ctx, t->plan, registry);
    ASSERT_TRUE(lowered.ok()) << text << ": " << lowered.status().ToString();
    verify::VerifyReport phys = verify::VerifyPhysical(*lowered, t->plan);
    EXPECT_TRUE(phys.ok()) << text << "\n" << phys.ToString();
  }
  verify::ForceEnabled(-1);
}

// Round trip: a stage-boundary violation during compile lands on the
// query-log compile record as a structured "verify.*" diagnostic (like
// lint findings), and survives the JSONL encode/decode.
TEST(PipelineInvariantsTest, VerifyViolationsAttachToCompileRecords) {
  verify::ForceEnabled(1);
  ::setenv("EMCALC_LINT", "1", 1);
  std::ostringstream sink;
  obs::QueryLog log(&sink);
  obs::QueryLog* saved = obs::GetQueryLog();
  obs::SetQueryLog(&log);

  Compiler compiler;
  // Parses fine, but uses R with two different arities — a stage-1
  // verification failure.
  auto q = compiler.Compile("{x | R(x) and exists y (R(x, y))}");
  EXPECT_FALSE(q.ok());

  obs::SetQueryLog(saved);
  ::unsetenv("EMCALC_LINT");
  verify::ForceEnabled(-1);

  std::istringstream in(sink.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto record = obs::ParseQueryLogLine(line);
  ASSERT_TRUE(record.ok()) << line;
  EXPECT_EQ(record->event, "compile");
  EXPECT_FALSE(record->ok);
  bool found = false;
  for (const diag::Diagnostic& d : record->diagnostics) {
    if (d.code == "verify.form.rel-arity") found = true;
  }
  EXPECT_TRUE(found) << "no verify.form.rel-arity diagnostic in: " << line;
}

}  // namespace
}  // namespace emcalc
