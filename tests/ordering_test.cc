// Targeted tests for (a) the printer/parser precedence contract across
// systematically nested connectives, and (b) the exact conjunct orderings
// the RANF pass produces (the T15/T16 grouping discipline).
#include <gtest/gtest.h>

#include <string>

#include "src/base/symbol_set.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/translate/enf.h"
#include "src/translate/ranf.h"

namespace emcalc {
namespace {

class PrecedenceTest : public ::testing::Test {
 protected:
  // Parses, prints, reparses, and checks both parses agree and the second
  // print is a fixpoint.
  void CheckStable(const std::string& text) {
    AstContext ctx;
    auto f1 = ParseFormula(ctx, text);
    ASSERT_TRUE(f1.ok()) << text << ": " << f1.status().ToString();
    std::string printed = FormulaToString(ctx, *f1);
    auto f2 = ParseFormula(ctx, printed);
    ASSERT_TRUE(f2.ok()) << printed;
    EXPECT_TRUE(FormulasEqual(*f1, *f2)) << text << " -> " << printed;
    EXPECT_EQ(printed, FormulaToString(ctx, *f2));
  }
};

TEST_F(PrecedenceTest, SystematicTwoOperatorNesting) {
  // Every ordered pair of binary/unary operators around atoms.
  const char* atoms[] = {"A(x)", "B(x)", "C(x)"};
  const char* shapes[] = {
      "%1 and %2 or %3",        "%1 or %2 and %3",
      "(%1 or %2) and %3",      "%1 and (%2 or %3)",
      "not %1 and %2",          "not (%1 and %2)",
      "not %1 or not %2",       "not (%1 or %2) and %3",
      "not not %1 or %2",       "%1 and %2 and %3",
      "%1 or %2 or %3",         "not (%1 and (%2 or %3))",
  };
  for (const char* shape : shapes) {
    std::string text = shape;
    auto replace = [&text](const std::string& from, const std::string& to) {
      size_t pos;
      while ((pos = text.find(from)) != std::string::npos) {
        text.replace(pos, from.size(), to);
      }
    };
    replace("%1", atoms[0]);
    replace("%2", atoms[1]);
    replace("%3", atoms[2]);
    CheckStable(text);
  }
}

TEST_F(PrecedenceTest, QuantifierAndComparatorNesting) {
  const char* cases[] = {
      "exists x (A(x)) and B(y)",
      "not exists x (A(x) or B(x))",
      "forall x (exists y (A(x) and x != y))",
      "exists x, y (A(x) and f(x) = y or B(y))",
      "A(x) and x < 3 or B(x) and 3 <= x",
      "not (x < y) and A(x, y)",
  };
  for (const char* text : cases) CheckStable(text);
}

TEST_F(PrecedenceTest, AndOrMixedPrinting) {
  AstContext ctx;
  // or of ands prints without parens; and of ors needs them.
  auto f = ParseFormula(ctx, "(A(x) or B(x)) and (C(x) or D(x))");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(FormulaToString(ctx, *f),
            "(A(x) or B(x)) and (C(x) or D(x))");
  auto g = ParseFormula(ctx, "A(x) and B(x) or C(x) and D(x)");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(FormulaToString(ctx, *g), "A(x) and B(x) or C(x) and D(x)");
}

class RanfOrderingTest : public ::testing::Test {
 protected:
  // Translates to RANF and returns the top-level conjunct printout.
  std::vector<std::string> Order(const char* text) {
    auto f = ParseFormula(ctx_, text);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    auto ranf = ToRanf(ctx_, ToEnf(ctx_, *f), SymbolSet{});
    EXPECT_TRUE(ranf.ok()) << text << ": " << ranf.status().ToString();
    std::vector<std::string> out;
    if (!ranf.ok()) return out;
    if ((*ranf)->kind() != FormulaKind::kAnd) {
      out.push_back(FormulaToString(ctx_, *ranf));
      return out;
    }
    for (const Formula* c : (*ranf)->children()) {
      out.push_back(FormulaToString(ctx_, c));
    }
    return out;
  }
  AstContext ctx_;
};

TEST_F(RanfOrderingTest, NegationsSinkBelowTheirBounders) {
  auto order = Order("not S(y) and not T(x) and f(x) = y and R(x)");
  ASSERT_EQ(order.size(), 4u);
  // R(x) must come first (only source of x); then in original order: the
  // negation of T (x now bound), the binding f(x)=y, and finally not S(y).
  EXPECT_EQ(order[0], "R(x)");
  EXPECT_EQ(order[1], "not T(x)");
  EXPECT_EQ(order[2], "f(x) = y");
  EXPECT_EQ(order[3], "not S(y)");
}

TEST_F(RanfOrderingTest, EqualityChainsOrderByDependency) {
  auto order = Order("g(y) = z and f(x) = y and R(x)");
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "R(x)");
  EXPECT_EQ(order[1], "f(x) = y");
  EXPECT_EQ(order[2], "g(y) = z");
}

TEST_F(RanfOrderingTest, StablePrefixKeepsInputOrder) {
  // When several conjuncts are simultaneously translatable, input order is
  // preserved (determinism).
  auto order = Order("R(x) and S(y) and T(z)");
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "R(x)");
  EXPECT_EQ(order[1], "S(y)");
  EXPECT_EQ(order[2], "T(z)");
}

TEST_F(RanfOrderingTest, InequalitiesWaitForBothSides) {
  auto order = Order("x != y and S(y) and R(x)");
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "S(y)");
  EXPECT_EQ(order[1], "R(x)");
  EXPECT_EQ(order[2], "x != y");
}

TEST_F(RanfOrderingTest, T16FlatteningIntroducesFreshExistential) {
  // Mutually dependent atom/equality: must come back wrapped in an
  // existential over the flattening variable.
  auto f = ParseFormula(ctx_, "T3(z, x, f(z, y)) and g(z) = y and B(x)");
  ASSERT_TRUE(f.ok());
  auto ranf = ToRanf(ctx_, ToEnf(ctx_, *f), SymbolSet{});
  ASSERT_TRUE(ranf.ok()) << ranf.status().ToString();
  EXPECT_EQ((*ranf)->kind(), FormulaKind::kExists);
  EXPECT_TRUE(IsRanf(*ranf, SymbolSet{}));
}

// The stuck `exists q (..)` is the only bounder of x2, while its body needs
// x0, which rf0(x2) = x0 derives from x2: neither conjunct can go first.
// The walk pulls the existential out (inverse T14) and interleaves its body
// with the outer equality.
TEST_F(RanfOrderingTest, StuckExistentialIsPulledOut) {
  auto f = ParseFormula(ctx_,
                        "rf0(x2) = x0 and exists q (R0(x2) and R1(q, x2) "
                        "and not S(x0, q))");
  ASSERT_TRUE(f.ok());
  auto ranf = ToRanf(ctx_, ToEnf(ctx_, *f), SymbolSet{});
  ASSERT_TRUE(ranf.ok()) << ranf.status().ToString();
  ASSERT_EQ((*ranf)->kind(), FormulaKind::kExists);
  EXPECT_EQ(FormulaToString(ctx_, *ranf),
            "exists q (R0(x2) and rf0(x2) = x0 and R1(q, x2) and "
            "not S(x0, q))");
  EXPECT_TRUE(IsRanf(*ranf, SymbolSet{}));
}

// The pull-out exposes R2(x1, rf1(x0, x1), q420), whose function argument
// needs x0, derived from x1, which the atom itself binds: T16 must then
// flatten that atom in the same walk.
TEST_F(RanfOrderingTest, PullOutThenFlattenTheExposedAtom) {
  auto f = ParseFormula(ctx_,
                        "R0(0) and exists q419, q420 (R2(x1, rf1(x0, x1), "
                        "q420) and R0(q419) and R0(q420)) and rf0(x1) = x0");
  ASSERT_TRUE(f.ok());
  auto ranf = ToRanf(ctx_, ToEnf(ctx_, *f), SymbolSet{});
  ASSERT_TRUE(ranf.ok()) << ranf.status().ToString();
  ASSERT_EQ((*ranf)->kind(), FormulaKind::kExists);
  EXPECT_EQ((*ranf)->vars().size(), 3u);  // q419, q420 and the fresh w
  const Formula* body = (*ranf)->child();
  ASSERT_EQ(body->kind(), FormulaKind::kAnd);
  std::vector<std::string> order;
  for (const Formula* c : body->children()) {
    order.push_back(FormulaToString(ctx_, c));
  }
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], "R0(0)");
  EXPECT_EQ(order[1], "R0(q419)");
  EXPECT_EQ(order[2], "R0(q420)");
  EXPECT_EQ(order[3].substr(0, 6), "R2(x1,");
  EXPECT_EQ(order[4], "rf0(x1) = x0");
  EXPECT_EQ(order[5].substr(0, 15), "rf1(x0, x1) = w");
  EXPECT_TRUE(IsRanf(*ranf, SymbolSet{}));
}

// An unrectified `exists q (..)` whose q also occurs free in a sibling
// cannot be pulled out: A and exists q (B) is not exists q (A and B) there.
// ToEnf renames the binder apart, and then the same formula orders.
TEST_F(RanfOrderingTest, ExistentialSharingAVariableStaysPut) {
  auto f = ParseFormula(
      ctx_, "P(q) and exists q (R(q, x) and not T(y)) and f(x) = y");
  ASSERT_TRUE(f.ok());
  auto stuck = ToRanf(ctx_, *f, SymbolSet{});
  ASSERT_FALSE(stuck.ok()) << FormulaToString(ctx_, *stuck);
  EXPECT_EQ(stuck.status().code(), StatusCode::kNotSafe);
  EXPECT_NE(stuck.status().message().find(
                "cannot order conjunction under context {q}; stuck on: "
                "exists q (R(q, x) and not T(y)) ; f(x) = y"),
            std::string::npos)
      << stuck.status().message();

  auto ranf = ToRanf(ctx_, ToEnf(ctx_, *f), SymbolSet{});
  ASSERT_TRUE(ranf.ok()) << ranf.status().ToString();
  EXPECT_EQ(FormulaToString(ctx_, *ranf),
            "exists q_0 (P(q) and R(q_0, x) and f(x) = y and not T(y))");
  EXPECT_TRUE(IsRanf(*ranf, SymbolSet{}));
}

}  // namespace
}  // namespace emcalc
