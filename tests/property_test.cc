// Property-based differential tests (P1–P6 in DESIGN.md): random
// em-allowed queries are translated and their plans checked tuple-for-tuple
// against the reference evaluator across random instances, domain
// enlargements, optimizer on/off, reduced covers on/off, and the
// active-domain baseline.
#include <gtest/gtest.h>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/printer.h"
#include "src/core/random_query.h"
#include "src/core/workload.h"
#include "src/eval/calculus_eval.h"
#include "src/translate/active_domain.h"
#include "src/translate/enf.h"
#include "src/translate/pipeline.h"
#include "src/translate/ranf.h"

namespace emcalc {
namespace {

// A registry of small total functions with images inside a compact integer
// range, so term closures in the oracle stay tiny.
FunctionRegistry CompactFunctions() {
  FunctionRegistry reg;
  reg.Register("rf0", 1, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
    return Value::Int((n + 1) % 7);
  });
  reg.Register("rf1", 2, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 3;
    int64_t m = a[1].is_int() ? a[1].AsInt() : 5;
    return Value::Int((n * 3 + m) % 7);
  });
  return reg;
}

Database RandomInstanceFor(const std::vector<int>& arities, size_t rows,
                           uint64_t seed) {
  Database db;
  for (size_t i = 0; i < arities.size(); ++i) {
    AddRandomTuples(db, "R" + std::to_string(i), arities[i], rows,
                    /*value_pool=*/6, seed + i * 101);
  }
  return db;
}

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

// P1 + P4: translation soundness — plan answer == oracle answer, with and
// without the optimizer, with and without reduced covers.
TEST_P(PropertyTest, TranslationMatchesOracle) {
  AstContext ctx;
  RandomQueryGen gen(ctx, /*seed=*/GetParam());
  FunctionRegistry registry = CompactFunctions();
  int checked = 0;
  for (int i = 0; i < 40 && checked < 12; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    if (CountApplications(q->body) > 4) continue;  // keep oracle domains small
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok()) << QueryToString(ctx, *q) << "\n"
                        << t.status().ToString();
    Database db = RandomInstanceFor(gen.relation_arities(), /*rows=*/6,
                                    GetParam() * 977 + i);
    CalculusEvalOptions oracle_options;
    oracle_options.domain_budget = 3000;
    auto oracle = EvaluateCalculus(ctx, *q, db, registry, oracle_options);
    if (!oracle.ok()) continue;  // domain too large for the oracle budget
    auto answer = EvaluateAlgebra(ctx, t->plan, db, registry);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(*answer, *oracle)
        << QueryToString(ctx, *q) << "\nplan: "
        << AlgExprToString(ctx, t->plan);
    // Unoptimized plan agrees (P4).
    auto raw = EvaluateAlgebra(ctx, t->raw_plan, db, registry);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, *oracle) << QueryToString(ctx, *q);
    // Naive (unreduced) covers must not change the result (P5).
    TranslateOptions naive;
    naive.bound.use_reduced_covers = false;
    auto t2 = TranslateQuery(ctx, *q, naive);
    ASSERT_TRUE(t2.ok()) << QueryToString(ctx, *q);
    auto answer2 = EvaluateAlgebra(ctx, t2->plan, db, registry);
    ASSERT_TRUE(answer2.ok());
    EXPECT_EQ(*answer2, *oracle) << QueryToString(ctx, *q);
    ++checked;
  }
  EXPECT_GT(checked, 0) << "generator produced no usable em-allowed queries";
}

// P2: embedded domain independence evidence — answers of em-allowed
// queries are invariant under junk-value domain enlargement and level
// increases.
TEST_P(PropertyTest, EmAllowedQueriesAreDomainIndependent) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() + 5000);
  FunctionRegistry registry = CompactFunctions();
  int checked = 0;
  for (int i = 0; i < 40 && checked < 8; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    if (CountApplications(q->body) > 3) continue;
    Database db = RandomInstanceFor(gen.relation_arities(), 5,
                                    GetParam() * 31 + i);
    CalculusEvalOptions base;
    base.domain_budget = 3000;
    auto a = EvaluateCalculus(ctx, *q, db, registry, base);
    if (!a.ok()) continue;
    CalculusEvalOptions junk = base;
    junk.extra_domain = {Value::Int(999), Value::Int(-7),
                         Value::Str("junk")};
    junk.domain_budget = 20000;
    auto b = EvaluateCalculus(ctx, *q, db, registry, junk);
    if (!b.ok()) continue;
    EXPECT_EQ(*a, *b) << QueryToString(ctx, *q);
    CalculusEvalOptions deeper = base;
    deeper.level = CountApplications(q->body) + 2;
    deeper.domain_budget = 20000;
    auto c = EvaluateCalculus(ctx, *q, db, registry, deeper);
    if (!c.ok()) continue;
    EXPECT_EQ(*a, *c) << QueryToString(ctx, *q);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// P6: the AB88-style baseline agrees with the direct translation.
TEST_P(PropertyTest, BaselineAgreesWithDirectTranslation) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() + 9000);
  FunctionRegistry registry = CompactFunctions();
  int checked = 0;
  for (int i = 0; i < 40 && checked < 8; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    if (CountApplications(q->body) > 3) continue;
    auto direct = TranslateQuery(ctx, *q);
    ASSERT_TRUE(direct.ok()) << QueryToString(ctx, *q);
    auto baseline = TranslateActiveDomain(ctx, *q);
    ASSERT_TRUE(baseline.ok()) << QueryToString(ctx, *q);
    Database db = RandomInstanceFor(gen.relation_arities(), 5,
                                    GetParam() * 53 + i);
    auto a = EvaluateAlgebra(ctx, direct->plan, db, registry);
    ASSERT_TRUE(a.ok());
    ExecOptions budget;
    budget.limits.max_term_closure_size = 100000;
    auto b = EvaluateAlgebra(ctx, *baseline, db, registry, nullptr, budget);
    if (!b.ok()) continue;  // closure budget blown: skip
    EXPECT_EQ(*a, *b) << QueryToString(ctx, *q) << "\nbaseline: "
                      << AlgExprToString(ctx, *baseline);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// P4 (pass-level): ENF and RANF preserve the reference semantics and their
// structural predicates hold.
TEST_P(PropertyTest, EnfAndRanfPreserveSemantics) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() + 13000);
  FunctionRegistry registry = CompactFunctions();
  int checked = 0;
  for (int i = 0; i < 40 && checked < 8; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    if (CountApplications(q->body) > 3) continue;
    const Formula* enf = ToEnf(ctx, q->body);
    EXPECT_TRUE(IsEnf(enf)) << FormulaToString(ctx, enf);
    auto ranf = ToRanf(ctx, enf, SymbolSet{});
    ASSERT_TRUE(ranf.ok()) << QueryToString(ctx, *q) << "\n"
                           << ranf.status().ToString();
    EXPECT_TRUE(IsRanf(*ranf, SymbolSet{}));
    Database db = RandomInstanceFor(gen.relation_arities(), 5,
                                    GetParam() * 71 + i);
    // All three formulas must agree under the oracle. Use the original
    // query's level for all (rewrites must not need deeper closures).
    CalculusEvalOptions options;
    options.level = CountApplications(q->body) + 1;
    options.domain_budget = 5000;
    auto a = EvaluateCalculus(ctx, *q, db, registry, options);
    if (!a.ok()) continue;
    Query q_enf{q->head, enf};
    Query q_ranf{q->head, *ranf};
    auto b = EvaluateCalculus(ctx, q_enf, db, registry, options);
    auto c = EvaluateCalculus(ctx, q_ranf, db, registry, options);
    ASSERT_TRUE(b.ok() && c.ok());
    EXPECT_EQ(*a, *b) << QueryToString(ctx, *q) << "\nENF: "
                      << FormulaToString(ctx, enf);
    EXPECT_EQ(*a, *c) << QueryToString(ctx, *q) << "\nRANF: "
                      << FormulaToString(ctx, *ranf);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// Safety soundness: queries the checker REJECTS are never silently
// translated into something wrong — translation refuses them.
TEST_P(PropertyTest, RejectedQueriesDoNotTranslate) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() + 17000);
  int rejected = 0;
  for (int i = 0; i < 60 && rejected < 10; ++i) {
    Query q = gen.Next();
    if (CheckEmAllowed(ctx, q).em_allowed) continue;
    if (!CheckWellFormed(q, ctx.symbols()).ok()) continue;
    auto t = TranslateQuery(ctx, q);
    EXPECT_FALSE(t.ok()) << QueryToString(ctx, q);
    ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

}  // namespace
}  // namespace emcalc
