// Property tests for the formula rewrites: every pass (pushnot/NNF,
// simplify, rectify, forall-elimination, ENF, the RANF ordering walk) must
// preserve embedded semantics on random formulas, verified against the
// reference evaluator; plus structural invariants (idempotence, variable
// preservation) and bd-option consistency.
#include <gtest/gtest.h>

#include <optional>

#include "src/calculus/analysis.h"
#include "src/calculus/printer.h"
#include "src/calculus/rewrite.h"
#include "src/core/random_query.h"
#include "src/core/workload.h"
#include "src/eval/calculus_eval.h"
#include "src/finds/bound.h"
#include "src/safety/pushnot.h"
#include "src/safety/simplify.h"
#include "src/translate/enf.h"
#include "src/translate/ranf.h"

namespace emcalc {
namespace {

FunctionRegistry CompactFunctions() {
  FunctionRegistry reg;
  reg.Register("rf0", 1, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
    return Value::Int((n + 2) % 5);
  });
  reg.Register("rf1", 2, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 3;
    int64_t m = a[1].is_int() ? a[1].AsInt() : 1;
    return Value::Int((n + 2 * m) % 5);
  });
  return reg;
}

Database SmallInstance(const std::vector<int>& arities, uint64_t seed) {
  Database db;
  for (size_t i = 0; i < arities.size(); ++i) {
    AddRandomTuples(db, "R" + std::to_string(i), arities[i], 4,
                    /*value_pool=*/5, seed + i * 13);
  }
  return db;
}

class RewritePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Checks that `rewritten` computes the same answers as the original on a
  // random instance (embedded semantics at a level covering both).
  void ExpectEquivalent(AstContext& ctx, const Query& q,
                        const Formula* rewritten, const char* pass,
                        const std::vector<int>& arities, uint64_t seed) {
    FunctionRegistry registry = CompactFunctions();
    Database db = SmallInstance(arities, seed);
    CalculusEvalOptions options;
    options.level =
        std::max(CountApplications(q.body), CountApplications(rewritten));
    options.domain_budget = 4000;
    auto a = EvaluateCalculus(ctx, q, db, registry, options);
    if (!a.ok()) return;  // domain blew the budget: skip sample
    Query q2{q.head, rewritten};
    auto b = EvaluateCalculus(ctx, q2, db, registry, options);
    ASSERT_TRUE(b.ok()) << pass << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << pass << " changed the meaning of "
                      << QueryToString(ctx, q) << "\nrewritten: "
                      << FormulaToString(ctx, rewritten);
  }
};

TEST_P(RewritePropertyTest, NnfPreservesSemantics) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() * 31 + 1);
  for (int i = 0; i < 12; ++i) {
    Query q = gen.Next();
    if (CountApplications(q.body) > 3) continue;
    const Formula* nnf = NegationNormalForm(ctx, q.body);
    ExpectEquivalent(ctx, q, nnf, "NNF", gen.relation_arities(),
                     GetParam() * 7 + i);
  }
}

TEST_P(RewritePropertyTest, SimplifyPreservesSemanticsAndIsIdempotent) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() * 31 + 2);
  for (int i = 0; i < 12; ++i) {
    Query q = gen.Next();
    if (CountApplications(q.body) > 3) continue;
    const Formula* s = Simplify(ctx, q.body);
    EXPECT_TRUE(IsSimplified(s)) << FormulaToString(ctx, s);
    EXPECT_EQ(Simplify(ctx, s), s);
    // Simplification may drop vacuous quantifiers but never frees/binds
    // head variables differently.
    EXPECT_TRUE(FreeVars(s).IsSubsetOf(FreeVars(q.body)));
    if (FreeVars(s) != FreeVars(q.body)) continue;  // head would mismatch
    ExpectEquivalent(ctx, q, s, "Simplify", gen.relation_arities(),
                     GetParam() * 7 + i);
  }
}

TEST_P(RewritePropertyTest, RectifyPreservesSemantics) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() * 31 + 3);
  for (int i = 0; i < 12; ++i) {
    Query q = gen.Next();
    if (CountApplications(q.body) > 3) continue;
    const Formula* r = Rectify(ctx, q.body);
    EXPECT_EQ(FreeVars(r), FreeVars(q.body));
    ExpectEquivalent(ctx, q, r, "Rectify", gen.relation_arities(),
                     GetParam() * 7 + i);
  }
}

TEST_P(RewritePropertyTest, ForallEliminationPreservesSemantics) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() * 31 + 4);
  for (int i = 0; i < 12; ++i) {
    Query q = gen.Next();
    if (CountApplications(q.body) > 3) continue;
    const Formula* g = EliminateForall(ctx, q.body);
    ExpectEquivalent(ctx, q, g, "EliminateForall", gen.relation_arities(),
                     GetParam() * 7 + i);
  }
}

TEST_P(RewritePropertyTest, EnfPreservesSemanticsAndForm) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() * 31 + 5);
  for (int i = 0; i < 12; ++i) {
    Query q = gen.Next();
    if (CountApplications(q.body) > 3) continue;
    const Formula* enf = ToEnf(ctx, q.body);
    EXPECT_TRUE(IsEnf(enf)) << FormulaToString(ctx, enf);
    if (FreeVars(enf) != FreeVars(q.body)) continue;  // simplified away
    ExpectEquivalent(ctx, q, enf, "ENF", gen.relation_arities(),
                     GetParam() * 7 + i);
  }
}

// RANF's ordering walk reorders conjuncts and unfolds stuck ones in place
// (∃ pull-out, T16, and T13's distribution of a stuck disjunction); the
// formula it returns must mean what the query does.
TEST_P(RewritePropertyTest, DistributionPreservesSemantics) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() * 31 + 6);
  for (int i = 0; i < 12; ++i) {
    std::optional<Query> q = gen.NextEmAllowed();
    if (!q || CountApplications(q->body) > 3) continue;
    const Formula* enf = ToEnf(ctx, q->body);
    auto ranf = ToRanf(ctx, enf, SymbolSet{});
    ASSERT_TRUE(ranf.ok()) << QueryToString(ctx, *q) << "\n"
                           << ranf.status().ToString();
    if (FreeVars(*ranf) != FreeVars(q->body)) continue;  // simplified away
    ExpectEquivalent(ctx, *q, *ranf, "RANF", gen.relation_arities(),
                     GetParam() * 7 + i);
  }
}

TEST_P(RewritePropertyTest, BdExactModeIsConsistent) {
  // The exact (exponential) meet/projection must entail everything the
  // heuristic produces — the heuristic is a sound under-approximation.
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam() * 31 + 7);
  for (int i = 0; i < 12; ++i) {
    Query q = gen.Next();
    BoundOptions heuristic;
    BoundOptions exact;
    exact.exact_max_vars = 10;
    FinDSet h = BoundingFinDs(ctx, q.body, heuristic);
    FinDSet e = BoundingFinDs(ctx, q.body, exact);
    EXPECT_TRUE(e.EntailsAll(h))
        << QueryToString(ctx, q) << "\nheuristic "
        << h.ToString(ctx.symbols()) << "\nexact " << e.ToString(ctx.symbols());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewritePropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace emcalc
