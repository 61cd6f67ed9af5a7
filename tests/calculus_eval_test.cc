// Tests for the reference calculus evaluator under embedded semantics,
// including domain-independence behavior at different closure levels.
#include <gtest/gtest.h>

#include "src/calculus/parser.h"
#include "src/eval/calculus_eval.h"

namespace emcalc {
namespace {

class CalculusEvalTest : public ::testing::Test {
 protected:
  CalculusEvalTest() : registry_(BuiltinFunctions()) {
    EXPECT_TRUE(db_.Insert("R", {Value::Int(1)}).ok());
    EXPECT_TRUE(db_.Insert("R", {Value::Int(2)}).ok());
    EXPECT_TRUE(db_.Insert("S", {Value::Int(2)}).ok());
    EXPECT_TRUE(db_.Insert("S", {Value::Int(3)}).ok());
    EXPECT_TRUE(
        db_.Insert("E", {Value::Int(1), Value::Int(2)}).ok());
    EXPECT_TRUE(
        db_.Insert("E", {Value::Int(2), Value::Int(3)}).ok());
  }

  Relation Eval(std::string_view text, CalculusEvalOptions options = {}) {
    auto q = ParseQuery(ctx_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    auto r = EvaluateCalculus(ctx_, *q, db_, registry_, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : Relation(0);
  }

  AstContext ctx_;
  Database db_;
  FunctionRegistry registry_;
};

TEST_F(CalculusEvalTest, AtomsAndConnectives) {
  EXPECT_EQ(Eval("{x | R(x)}").size(), 2u);
  EXPECT_EQ(Eval("{x | R(x) and S(x)}").size(), 1u);
  EXPECT_EQ(Eval("{x | R(x) or S(x)}").size(), 3u);
  EXPECT_EQ(Eval("{x | R(x) and not S(x)}").size(), 1u);
}

TEST_F(CalculusEvalTest, EqualityAndFunctions) {
  Relation r = Eval("{x, y | R(x) and succ(x) = y}");
  EXPECT_TRUE(r.Contains({Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(r.Contains({Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(CalculusEvalTest, ExistsAndForall) {
  EXPECT_EQ(Eval("{x | exists y (E(x, y))}").size(), 2u);
  // Every R-element with all outgoing E-edges into S: x=1 ->2 in S ok;
  // x=2 ->3 in S ok.
  EXPECT_EQ(Eval("{x | R(x) and forall y (not E(x, y) or S(y))}").size(),
            2u);
}

TEST_F(CalculusEvalTest, BooleanQueries) {
  Relation yes = Eval("{ | exists x (R(x) and S(x))}");
  EXPECT_EQ(yes.size(), 1u);  // contains the empty tuple
  Relation no = Eval("{ | exists x (R(x) and x = 99)}");
  EXPECT_TRUE(no.empty());
}

TEST_F(CalculusEvalTest, EmbeddedSemanticsSeesFunctionImages) {
  // not S(y) with y = succ(x): needs level-1 closure to range y over
  // succ(adom). succ(2)=3 in S; succ(1)=2 in S; so empty here...
  Relation r = Eval("{x, y | R(x) and succ(x) = y and not S(y)}");
  EXPECT_TRUE(r.empty());
  // ...but with succ(succ(x)) there are hits outside S.
  Relation r2 = Eval("{x, y | R(x) and succ(succ(x)) = y and not S(y)}");
  EXPECT_TRUE(r2.Contains({Value::Int(2), Value::Int(4)}));
}

TEST_F(CalculusEvalTest, EmAllowedAnswersStableUnderLevelIncrease) {
  // Theorem 6.6: once past the needed level, the answer stops changing.
  const char* corpus[] = {
      "{x, y | R(x) and succ(x) = y and not S(y)}",
      "{x | R(x) and exists y (succ(x) = y and not R(y))}",
      "{y | exists x (R(x) and y = double(succ(x)))}",
  };
  for (const char* text : corpus) {
    CalculusEvalOptions base;
    Relation a = Eval(text, base);
    CalculusEvalOptions higher;
    higher.level = 5;
    Relation b = Eval(text, higher);
    EXPECT_EQ(a, b) << text;
  }
}

TEST_F(CalculusEvalTest, EmAllowedAnswersStableUnderJunkValues) {
  // Domain independence: enlarging the evaluation domain with values that
  // appear nowhere must not change an em-allowed query's answer.
  CalculusEvalOptions junk;
  junk.extra_domain = {Value::Int(777), Value::Str("junk")};
  const char* corpus[] = {
      "{x | R(x) and not S(x)}",
      "{x, y | R(x) and succ(x) = y}",
      "{x | R(x) and forall y (not E(x, y) or S(y))}",
  };
  for (const char* text : corpus) {
    EXPECT_EQ(Eval(text), Eval(text, junk)) << text;
  }
}

TEST_F(CalculusEvalTest, UnsafeQueryAnswersChangeWithDomain) {
  // The complement query is *not* domain independent; junk values show up.
  CalculusEvalOptions junk;
  junk.extra_domain = {Value::Int(777)};
  Relation small = Eval("{x | not R(x)}");
  Relation big = Eval("{x | not R(x)}", junk);
  EXPECT_LT(small.size(), big.size());
}

TEST_F(CalculusEvalTest, FormulaAtValuation) {
  auto f = ParseFormula(ctx_, "R(x) and succ(x) = y");
  ASSERT_TRUE(f.ok());
  Symbol x = ctx_.symbols().Intern("x");
  Symbol y = ctx_.symbols().Intern("y");
  auto yes = EvaluateFormulaAt(ctx_, *f, {x, y},
                               {Value::Int(1), Value::Int(2)}, db_,
                               registry_);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = EvaluateFormulaAt(ctx_, *f, {x, y},
                              {Value::Int(1), Value::Int(3)}, db_,
                              registry_);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST_F(CalculusEvalTest, ErrorsOnUnknownNames) {
  auto q = ParseQuery(ctx_, "{x | NOPE(x)}");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(EvaluateCalculus(ctx_, *q, db_, registry_).ok());
  auto q2 = ParseQuery(ctx_, "{x | R(x) and mystery(x) = x}");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(EvaluateCalculus(ctx_, *q2, db_, registry_).ok());
}

// The term^k boundary: a valuation leaves the answer once a value it needs
// is outside term^level(adom). Here adom = {1, 2, 3}, so succ(succ(2)) = 4
// is in term^1 but not term^0, and double(double(2)) = 8 only in term^2.
TEST_F(CalculusEvalTest, AnswersStopAtTheClosureLevel) {
  auto at = [&](const char* text, int level) {
    CalculusEvalOptions options;
    options.level = level;
    return Eval(text, options);
  };
  Relation pairs(2);
  pairs.Insert({Value::Int(1), Value::Int(3)});
  const char* succ2 = "{x, y | R(x) and succ(succ(x)) = y}";
  EXPECT_EQ(at(succ2, 0), pairs);
  pairs.Insert({Value::Int(2), Value::Int(4)});
  EXPECT_EQ(at(succ2, 1), pairs);
  EXPECT_EQ(at(succ2, 2), pairs);

  Relation doubles(2);
  doubles.Insert({Value::Int(1), Value::Int(4)});
  const char* double2 = "{x, y | R(x) and double(double(x)) = y}";
  EXPECT_EQ(at(double2, 1), doubles);
  doubles.Insert({Value::Int(2), Value::Int(8)});
  EXPECT_EQ(at(double2, 2), doubles);
}

// A disjunction that is not domain independent: each disjunct's other
// variable ranges over the whole domain D = {1, 2, 3} (level 0), so the
// answer is R x D union D x S.
TEST_F(CalculusEvalTest, DisjunctionRangesOtherVariablesOverTheDomain) {
  Relation want(2);
  for (int64_t d = 1; d <= 3; ++d) {
    for (int64_t r : {1, 2}) want.Insert({Value::Int(r), Value::Int(d)});
    for (int64_t s : {2, 3}) want.Insert({Value::Int(d), Value::Int(s)});
  }
  EXPECT_EQ(Eval("{x, y | R(x) or S(y)}"), want);
}

// forall and not-exists take every domain value as a possible
// counterexample, not only the values of the atoms under the negation.
TEST_F(CalculusEvalTest, UniversalQuantifiersSeeTheWholeDomain) {
  // E = {(1,2), (2,3)}: only 1's successor is in R.
  Relation one(1);
  one.Insert({Value::Int(1)});
  EXPECT_EQ(Eval("{x | R(x) and forall y (not E(x, y) or R(y))}"), one);
  // E(x, y) fails for y = 1 whatever x is.
  EXPECT_TRUE(Eval("{x | R(x) and forall y (E(x, y))}").empty());
  // S = {2, 3}: 2 has an E-predecessor outside S, 3 does not.
  Relation three(1);
  three.Insert({Value::Int(3)});
  EXPECT_EQ(Eval("{x | S(x) and not exists y (E(y, x) and not S(y))}"),
            three);
  EXPECT_EQ(Eval("{x | R(x) and not exists y (not E(x, y))}").size(), 0u);
}

// A quantifier that rebinds a free variable hides the outer value in its
// scope: the inner x ranges over S - R = {3}.
TEST_F(CalculusEvalTest, ShadowedBinderHidesTheOuterValue) {
  Relation r(1);
  r.Insert({Value::Int(1)});
  r.Insert({Value::Int(2)});
  EXPECT_EQ(Eval("{x | R(x) and exists x (S(x) and not R(x))}"), r);
  EXPECT_TRUE(Eval("{x | R(x) and forall x (R(x))}").empty());
}

TEST_F(CalculusEvalTest, DomainBudgetEnforced) {
  auto q = ParseQuery(ctx_, "{x, y | R(x) and succ(x) = y}");
  ASSERT_TRUE(q.ok());
  CalculusEvalOptions tight;
  tight.level = 50;
  tight.domain_budget = 10;
  EXPECT_FALSE(EvaluateCalculus(ctx_, *q, db_, registry_, tight).ok());
}

}  // namespace
}  // namespace emcalc
