// Assorted edge-case and robustness tests: SameAs vs EquivalentTo, parser
// fuzzing (no crashes on garbage), random query print/parse round-trips,
// and optimizer corner cases.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "src/algebra/optimizer.h"
#include "src/algebra/parser.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/random_query.h"
#include "src/finds/find_set.h"
#include "src/safety/pushnot.h"
#include "src/translate/enf.h"

namespace emcalc {
namespace {

TEST(FinDSetSameAsTest, OrderInsensitiveSyntacticEquality) {
  SymbolTable t;
  Symbol x = t.Intern("x"), y = t.Intern("y");
  FinDSet a, b;
  a.Add(FinD{SymbolSet{}, SymbolSet{x}});
  a.Add(FinD{SymbolSet{x}, SymbolSet{y}});
  b.Add(FinD{SymbolSet{x}, SymbolSet{y}});
  b.Add(FinD{SymbolSet{}, SymbolSet{x}});
  EXPECT_TRUE(a.SameAs(b));
  // Equivalent but syntactically different: {}->x, x->y vs {}->xy.
  FinDSet c;
  c.Add(FinD{SymbolSet{}, SymbolSet({x, y})});
  EXPECT_TRUE(a.EquivalentTo(c));
  EXPECT_FALSE(a.SameAs(c));
}

TEST(PushNotTest, TripleNegationNormalizes) {
  AstContext ctx;
  auto f = ParseFormula(ctx, "not not not R(x)");
  ASSERT_TRUE(f.ok());
  // The parser preserves the shape; NNF collapses the double negation.
  EXPECT_EQ(FormulaToString(ctx, *f), "not not not R(x)");
  EXPECT_EQ(FormulaToString(ctx, NegationNormalForm(ctx, *f)), "not R(x)");
}

TEST(ParserFuzzTest, GarbageNeverCrashes) {
  std::mt19937_64 rng(99);
  const char alphabet[] =
      "RSxyf(){}|,=!<>' 0123andorextsfl_";
  for (int i = 0; i < 3000; ++i) {
    AstContext ctx;
    std::string junk;
    int len = 1 + static_cast<int>(rng() % 40);
    for (int j = 0; j < len; ++j) {
      junk += alphabet[rng() % (sizeof(alphabet) - 1)];
    }
    // Must return a status, never crash; most inputs are errors.
    (void)ParseQuery(ctx, junk);
    (void)ParseFormula(ctx, junk);
    (void)ParseTerm(ctx, junk);
  }
}

TEST(PlanParserFuzzTest, GarbageNeverCrashes) {
  std::mt19937_64 rng(7);
  const char alphabet[] = "RSprojectselectjoinunit+-(){}[],@123=!<'x ";
  std::map<std::string, int> arities = {{"R", 2}, {"S", 1}};
  for (int i = 0; i < 3000; ++i) {
    AstContext ctx;
    std::string junk;
    int len = 1 + static_cast<int>(rng() % 50);
    for (int j = 0; j < len; ++j) {
      junk += alphabet[rng() % (sizeof(alphabet) - 1)];
    }
    (void)ParseAlgebra(ctx, junk, arities);
  }
}

TEST(RoundTripFuzzTest, RandomQueriesPrintAndReparse) {
  AstContext ctx;
  RandomQueryGen gen(ctx, 31415);
  for (int i = 0; i < 300; ++i) {
    Query q = gen.Next();
    std::string printed = QueryToString(ctx, q);
    auto again = ParseQuery(ctx, printed);
    ASSERT_TRUE(again.ok()) << printed << "\n"
                            << again.status().ToString();
    EXPECT_TRUE(FormulasEqual(q.body, again->body)) << printed;
    EXPECT_EQ(q.head, again->head) << printed;
  }
}

TEST(OptimizerCornerTest, AdomNodesPassThrough) {
  AstContext ctx;
  AlgebraFactory factory(ctx);
  const AlgExpr* adom =
      factory.Adom(2, {ctx.symbols().Intern("succ")}, {});
  const AlgExpr* plan =
      factory.Project({factory.exprs().Col(0)}, adom);
  const AlgExpr* opt = OptimizePlan(factory, plan);
  // project([@1], adom) is the identity projection over a unary input.
  EXPECT_EQ(opt, adom);
}

TEST(OptimizerCornerTest, SharedSubplansStayShared) {
  AstContext ctx;
  AlgebraFactory factory(ctx);
  ExprFactory& e = factory.exprs();
  const AlgExpr* shared = factory.Project(
      {e.Col(0)}, factory.Select({{e.Col(1), AlgCompareOp::kEq,
                                   e.Const(Value::Int(1))}},
                                 factory.Rel("R", 2)));
  const AlgExpr* plan = factory.Diff(shared, shared);
  const AlgExpr* opt = OptimizePlan(factory, plan);
  ASSERT_EQ(opt->kind(), AlgKind::kDiff);
  // The rewrite memoization must keep both sides pointer-identical.
  EXPECT_EQ(opt->left(), opt->right());
}

TEST(EnfCornerTest, ComparisonsUnderNegationUnderOr) {
  AstContext ctx;
  auto f = ParseFormula(ctx, "R(x) and not (x < 3 or S(x))");
  ASSERT_TRUE(f.ok());
  const Formula* enf = ToEnf(ctx, *f);
  // not (a or b) pushes; not (x < 3) flips to 3 <= x.
  EXPECT_EQ(FormulaToString(ctx, enf), "R(x) and 3 <= x and not S(x)");
}

TEST(SymbolFreshTest, ManyFreshNamesStayDistinct) {
  SymbolTable t;
  SymbolSet seen;
  for (int i = 0; i < 1000; ++i) {
    Symbol s = t.Fresh("w");
    EXPECT_FALSE(seen.Contains(s));
    seen.Insert(s);
  }
}

}  // namespace
}  // namespace emcalc
