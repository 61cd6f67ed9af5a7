// Tests for pushnot, simplification, the em-allowed criterion, and the
// comparison criteria (GT91 allowed, AB88 range-restriction, Top91 safe).
#include <ostream>

#include <gtest/gtest.h>

#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/safety/allowed.h"
#include "src/safety/em_allowed.h"
#include "src/safety/pushnot.h"
#include "src/safety/simplify.h"

namespace emcalc {
namespace {

class SafetyTest : public ::testing::Test {
 protected:
  const Formula* Parse(std::string_view text) {
    auto f = ParseFormula(ctx_, text);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    return *f;
  }
  std::string Print(const Formula* f) { return FormulaToString(ctx_, f); }
  AstContext ctx_;
};

// --- pushnot ---

TEST_F(SafetyTest, PushNotSwapsEqualityPolarity) {
  EXPECT_EQ(Print(PushNotStep(ctx_, Parse("not x = y"))), "x != y");
  EXPECT_EQ(Print(PushNotStep(ctx_, Parse("not x != y"))), "x = y");
}

TEST_F(SafetyTest, PushNotLeavesRelationAtoms) {
  const Formula* f = Parse("not R(x)");
  EXPECT_EQ(PushNotStep(ctx_, f), f);
}

TEST_F(SafetyTest, PushNotDeMorgan) {
  EXPECT_EQ(Print(PushNotStep(ctx_, Parse("not (R(x) and S(x))"))),
            "not R(x) or not S(x)");
  EXPECT_EQ(Print(PushNotStep(ctx_, Parse("not (R(x) or S(x))"))),
            "not R(x) and not S(x)");
}

TEST_F(SafetyTest, PushNotFlipsQuantifiers) {
  EXPECT_EQ(Print(PushNotStep(ctx_, Parse("not exists x (R(x))"))),
            "forall x (not R(x))");
  EXPECT_EQ(Print(PushNotStep(ctx_, Parse("not forall x (R(x))"))),
            "exists x (not R(x))");
}

TEST_F(SafetyTest, NegationNormalForm) {
  const Formula* f =
      Parse("not (R(x) and (S(x) or not exists y (T(y) and x != y)))");
  const Formula* nnf = NegationNormalForm(ctx_, f);
  EXPECT_EQ(Print(nnf),
            "not R(x) or not S(x) and exists y (T(y) and x != y)");
}

// --- simplify ---

TEST_F(SafetyTest, SimplifyConstants) {
  EXPECT_EQ(Print(Simplify(ctx_, Parse("R(x) and true"))), "R(x)");
  EXPECT_EQ(Simplify(ctx_, Parse("R(x) and false")), ctx_.False());
  EXPECT_EQ(Simplify(ctx_, Parse("R(x) or true")), ctx_.True());
  EXPECT_EQ(Print(Simplify(ctx_, Parse("not not R(x)"))), "R(x)");
}

TEST_F(SafetyTest, SimplifyTrivialEqualities) {
  EXPECT_EQ(Simplify(ctx_, Parse("x = x")), ctx_.True());
  EXPECT_EQ(Simplify(ctx_, Parse("f(x) != f(x)")), ctx_.False());
  // Non-identical terms stay.
  EXPECT_EQ(Print(Simplify(ctx_, Parse("x = y"))), "x = y");
}

TEST_F(SafetyTest, SimplifyPrunesVacuousQuantifiers) {
  EXPECT_EQ(Print(Simplify(ctx_, Parse("exists y (R(x))"))), "R(x)");
  EXPECT_EQ(Print(Simplify(ctx_, Parse("exists y, z (R(x, z))"))),
            "exists z (R(x, z))");
}

TEST_F(SafetyTest, SimplifyIsIdempotentOnCorpus) {
  const char* corpus[] = {
      "R(x) and (true or S(x))",
      "not not (R(x) and x = x)",
      "exists x (exists y (R(x, y)))",
      "forall x (R(x) or false)",
  };
  for (const char* text : corpus) {
    const Formula* once = Simplify(ctx_, Parse(text));
    EXPECT_TRUE(IsSimplified(once)) << Print(once);
    EXPECT_EQ(Simplify(ctx_, once), once) << text;
  }
}

// --- em-allowed: the paper's named queries ---

struct Case {
  const char* name;
  const char* text;
  bool em_allowed;
};

// gtest_discover_tests names each case by its printed value; printing the
// name (not the default byte dump of pointers) keeps ctest names stable.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class EmAllowedCase : public SafetyTest,
                      public ::testing::WithParamInterface<Case> {};

TEST_P(EmAllowedCase, Matches) {
  const Formula* f = Parse(GetParam().text);
  SafetyResult r = CheckEmAllowed(ctx_, f);
  EXPECT_EQ(r.em_allowed, GetParam().em_allowed)
      << GetParam().text << " : " << r.reason;
}

INSTANTIATE_TEST_SUITE_P(
    PaperQueries, EmAllowedCase,
    ::testing::Values(
        // q1: project-style function query.
        Case{"q1_project", "exists x (R(x) and y = g(f(x)))", true},
        // q2: em-allowed but not range-restricted (Section 2).
        Case{"q2_not_range_restricted",
             "R(x) and exists y (f(x) = y and not R(y))", true},
        // q4 (with the bounding atom B(x); DESIGN.md R3): em-allowed.
        Case{"q4_bounded",
             "B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
             "((h(x) != y and k(x) != y) or P(x, y)))",
             true},
        // q4 without any bounding for x: x escapes, not em-allowed.
        Case{"q4_unbounded",
             "not (((f(x) != y and g(x) != y) or R(x, y)) and "
             "((h(x) != y and k(x) != y) or P(x, y)))",
             false},
        // q5: em-allowed but not Top91-safe.
        Case{"q5_not_top91_safe",
             "(R(x) and f(x) = y) or (S(y) and g(y) = x)", true},
        // q6: the classic difference query.
        Case{"q6_difference", "R(x, y, z) and not S(y, z)", true},
        // q7: not embedded domain independent (Section 2 vs Top91).
        Case{"q7_not_embedded_domain_independent",
             "x = 0 and forall u (exists v (plus(u, 1) = v))", false}));

class UnsafeCase : public SafetyTest,
                   public ::testing::WithParamInterface<const char*> {};

TEST_P(UnsafeCase, Rejected) {
  const Formula* f = Parse(GetParam());
  SafetyResult r = CheckEmAllowed(ctx_, f);
  EXPECT_FALSE(r.em_allowed) << GetParam();
  EXPECT_FALSE(r.reason.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Unsafe, UnsafeCase,
    ::testing::Values(
        "not R(x)",                          // complement of a relation
        "x = y",                             // unbounded equality
        "f(x) = y",                          // no base bounding
        "R(x) or S(y)",                      // disjunct leaves y free
        "R(x) and x != y",                   // inequality bounds nothing
        "R(x) and not (S(y) and T(y))",      // negation hides y
        "exists y (R(x))",                   // vacuous quantifier unbounded
        "R(f(x))",                           // no inverse functions
        "R(x) and forall y (S(x, y))"));     // forall over infinite domain

TEST_F(SafetyTest, EmAllowedForContext) {
  // f(x) = y alone is not em-allowed, but it is em-allowed for {x}
  // (the paper's "em-allowed for X" for embedded program variables).
  const Formula* f = Parse("f(x) = y");
  EmAllowedChecker checker(ctx_);
  EXPECT_FALSE(checker.CheckFormula(f, SymbolSet{}).em_allowed);
  EXPECT_TRUE(
      checker.CheckFormula(f, SymbolSet{ctx_.symbols().Intern("x")})
          .em_allowed);
}

TEST_F(SafetyTest, EmAllowedQueryFormMatchesFormulaForm) {
  auto q = ParseQuery(ctx_, "{x, y | R(x) and f(x) = y}");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(CheckEmAllowed(ctx_, *q).em_allowed);
}

TEST_F(SafetyTest, ForallCheckedViaDual) {
  // forall y (R(y) -> S(y)) style: not exists y (R(y) and not S(y)).
  const Formula* ok = Parse("Q(x) and not exists y (R(y) and not S(y))");
  EXPECT_TRUE(CheckEmAllowed(ctx_, ok).em_allowed);
  const Formula* dual = Parse("Q(x) and forall y (not R(y) or S(y))");
  EXPECT_TRUE(CheckEmAllowed(ctx_, dual).em_allowed);
}

// --- comparison criteria ---

TEST_F(SafetyTest, AllowedGT91RejectsFunctions) {
  EXPECT_FALSE(IsAllowedGT91(ctx_, Parse("R(x) and f(x) = y")));
  EXPECT_TRUE(IsAllowedGT91(ctx_, Parse("R(x, y) and not S(y)")));
  EXPECT_FALSE(IsAllowedGT91(ctx_, Parse("not R(x)")));
}

TEST_F(SafetyTest, RangeRestrictionIsLocal) {
  // q2 is em-allowed but NOT range-restricted (paper, Section 2).
  const Formula* q2 = Parse("R(x) and exists y (f(x) = y and not R(y))");
  EXPECT_TRUE(CheckEmAllowed(ctx_, q2).em_allowed);
  EXPECT_FALSE(IsRangeRestricted(ctx_, q2));
  // Plain positive queries are range-restricted.
  EXPECT_TRUE(IsRangeRestricted(ctx_, Parse("R(x, y) and S(y)")));
  // Function of a restricted variable restricts its target.
  EXPECT_TRUE(IsRangeRestricted(ctx_, Parse("R(x) and f(x) = y")));
}

TEST_F(SafetyTest, Top91SafeRejectsQ5) {
  // q5 is em-allowed but not Top91-safe (paper, Section 2).
  const Formula* q5 = Parse("(R(x) and f(x) = y) or (S(y) and g(y) = x)");
  EXPECT_TRUE(CheckEmAllowed(ctx_, q5).em_allowed);
  EXPECT_FALSE(IsTop91Safe(ctx_, q5));
  // Uniform disjunctions stay safe.
  const Formula* uniform = Parse("(R(x) and f(x) = y) or (S(x) and f(x) = y)");
  EXPECT_TRUE(IsTop91Safe(ctx_, uniform));
}

TEST_F(SafetyTest, Top91SafeAcceptsQ4) {
  // q4 satisfies Top91's safety definition (though GT91-only
  // transformations cannot translate it — that's experiment E6).
  const Formula* q4 =
      Parse("B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
            "((h(x) != y and k(x) != y) or P(x, y)))");
  EXPECT_TRUE(IsTop91Safe(ctx_, q4));
}

TEST_F(SafetyTest, ContainmentOnFunctionFreeFormulas) {
  // For function-free formulas, em-allowed == GT91 allowed by definition,
  // and both imply nothing about range restriction in general; check a few
  // concrete points of the containment table (experiment E8).
  const char* function_free[] = {
      "R(x, y) and not S(y)",
      "R(x) or S(x)",
      "R(x) and exists y (S(x, y) and not T(y))",
  };
  for (const char* text : function_free) {
    const Formula* f = Parse(text);
    EXPECT_EQ(IsAllowedGT91(ctx_, f), CheckEmAllowed(ctx_, f).em_allowed)
        << text;
  }
}

TEST_F(SafetyTest, RejectionsCarryStructuredBlame) {
  SafetyResult r = CheckEmAllowed(ctx_, Parse("R(x) and not (S(y) and T(y))"));
  ASSERT_FALSE(r.em_allowed);
  // Structured fields are the supported interface: a violation code and the
  // set of variables that could not be confined.
  EXPECT_NE(r.violation, SafetyViolation::kNone);
  EXPECT_FALSE(SafetyViolationCode(r.violation).empty());
  EXPECT_TRUE(r.unbounded.Contains(ctx_.symbols().Intern("y")));
  // The flat reason string remains populated for backward compatibility.
  EXPECT_NE(r.reason.find("y"), std::string::npos);
}

}  // namespace
}  // namespace emcalc
