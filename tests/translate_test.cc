// Integration tests for the four-step translation pipeline: ENF, RANF,
// algebra generation, plan equivalence with the reference evaluator, the
// T10 ablation, and the active-domain baseline translator.
#include <gtest/gtest.h>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/eval/calculus_eval.h"
#include "src/translate/active_domain.h"
#include "src/translate/enf.h"
#include "src/translate/pipeline.h"
#include "src/translate/ranf.h"

namespace emcalc {
namespace {

class TranslateTest : public ::testing::Test {
 protected:
  TranslateTest() : registry_(BuiltinFunctions()) {
    for (int i = 1; i <= 4; ++i) {
      EXPECT_TRUE(db_.Insert("R", {Value::Int(i)}).ok());
    }
    EXPECT_TRUE(db_.Insert("S", {Value::Int(2)}).ok());
    EXPECT_TRUE(db_.Insert("S", {Value::Int(5)}).ok());
    EXPECT_TRUE(db_.Insert("T", {Value::Int(3), Value::Int(4)}).ok());
    EXPECT_TRUE(db_.Insert("T", {Value::Int(4), Value::Int(5)}).ok());
    EXPECT_TRUE(db_.Insert("B", {Value::Int(1)}).ok());
    EXPECT_TRUE(db_.Insert("B", {Value::Int(2)}).ok());
    EXPECT_TRUE(db_.Insert("T3", {Value::Int(1), Value::Int(2),
                                  Value::Int(3)})
                    .ok());
    EXPECT_TRUE(db_.Insert("T3", {Value::Int(2), Value::Int(1),
                                  Value::Int(5)})
                    .ok());
    EXPECT_TRUE(db_.Insert("P", {Value::Int(1), Value::Int(2)}).ok());
    EXPECT_TRUE(db_.Insert("Q2", {Value::Int(2), Value::Int(3)}).ok());
  }

  Query Parse(std::string_view text) {
    auto q = ParseQuery(ctx_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? *q : Query{};
  }

  // Translates and checks the plan's answer against the reference
  // evaluator.
  void ExpectMatchesOracle(std::string_view text,
                           TranslateOptions options = {}) {
    Query q = Parse(text);
    auto t = TranslateQuery(ctx_, q, options);
    ASSERT_TRUE(t.ok()) << text << " : " << t.status().ToString();
    auto plan_answer = EvaluateAlgebra(ctx_, t->plan, db_, registry_);
    ASSERT_TRUE(plan_answer.ok()) << plan_answer.status().ToString();
    auto oracle = EvaluateCalculus(ctx_, q, db_, registry_);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(*plan_answer, *oracle)
        << text << "\nplan: " << AlgExprToString(ctx_, t->plan)
        << "\nplan answer:\n" << plan_answer->ToString()
        << "oracle:\n" << oracle->ToString();
    // The unoptimized plan must agree too.
    auto raw_answer = EvaluateAlgebra(ctx_, t->raw_plan, db_, registry_);
    ASSERT_TRUE(raw_answer.ok());
    EXPECT_EQ(*raw_answer, *oracle) << text << " (raw plan)";
  }

  AstContext ctx_;
  Database db_;
  FunctionRegistry registry_;
};

// Counts surviving forall nodes (ENF must remove them all).
int QuantifierCountForall(const Formula* f) {
  switch (f->kind()) {
    case FormulaKind::kForall:
      return 1 + QuantifierCountForall(f->child());
    case FormulaKind::kNot:
    case FormulaKind::kExists:
      return QuantifierCountForall(f->child());
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      int n = 0;
      for (const Formula* c : f->children()) {
        n += QuantifierCountForall(c);
      }
      return n;
    }
    default:
      return 0;
  }
}

// --- ENF ---

TEST_F(TranslateTest, EnfEliminatesForall) {
  auto f = ParseFormula(ctx_, "R(x) and forall y (not T(x, y) or S(y))");
  ASSERT_TRUE(f.ok());
  const Formula* enf = ToEnf(ctx_, *f);
  EXPECT_TRUE(IsEnf(enf)) << FormulaToString(ctx_, enf);
  EXPECT_EQ(QuantifierCountForall(enf), 0);
}

TEST_F(TranslateTest, EnfPushesNegationOverOr) {
  auto f = ParseFormula(ctx_, "R(x) and not (S(x) or T(x, x))");
  ASSERT_TRUE(f.ok());
  const Formula* enf = ToEnf(ctx_, *f);
  EXPECT_EQ(FormulaToString(ctx_, enf),
            "R(x) and not S(x) and not T(x, x)");
}

TEST_F(TranslateTest, EnfKeepsNegatedConjunctionWithoutBoundingGain) {
  auto f = ParseFormula(ctx_, "R(x) and not (S(x) and B(x))");
  ASSERT_TRUE(f.ok());
  const Formula* enf = ToEnf(ctx_, *f);
  // No bounding information inside: keep for the difference operator.
  EXPECT_EQ(FormulaToString(ctx_, enf), "R(x) and not (S(x) and B(x))");
}

TEST_F(TranslateTest, EnfT10PushesWhenBoundingAppears) {
  auto f = ParseFormula(ctx_, "B(x) and not (succ(x) != y and pred(x) != y)");
  ASSERT_TRUE(f.ok());
  const Formula* with_t10 = ToEnf(ctx_, *f);
  EXPECT_EQ(FormulaToString(ctx_, with_t10),
            "B(x) and (succ(x) = y or pred(x) = y)");
  EnfOptions no_t10;
  no_t10.enable_t10 = false;
  const Formula* without = ToEnf(ctx_, *f, no_t10);
  EXPECT_EQ(FormulaToString(ctx_, without),
            "B(x) and not (succ(x) != y and pred(x) != y)");
}

// --- RANF ---

TEST_F(TranslateTest, RanfOrdersConjunctions) {
  // The negation must move after the atoms that bound its variables.
  auto f = ParseFormula(ctx_, "not S(y) and succ(x) = y and R(x)");
  ASSERT_TRUE(f.ok());
  auto ranf = ToRanf(ctx_, ToEnf(ctx_, *f), SymbolSet{});
  ASSERT_TRUE(ranf.ok()) << ranf.status().ToString();
  EXPECT_TRUE(IsRanf(*ranf, SymbolSet{}));
  ASSERT_EQ((*ranf)->kind(), FormulaKind::kAnd);
  EXPECT_EQ(FormulaToString(ctx_, (*ranf)->children()[0]), "R(x)");
  EXPECT_EQ(FormulaToString(ctx_, (*ranf)->children()[2]), "not S(y)");
}

TEST_F(TranslateTest, RanfRejectsUnboundedNegation) {
  auto f = ParseFormula(ctx_, "R(x) and not S(y)");
  ASSERT_TRUE(f.ok());
  auto ranf = ToRanf(ctx_, ToEnf(ctx_, *f), SymbolSet{});
  EXPECT_FALSE(ranf.ok());
  EXPECT_EQ(ranf.status().code(), StatusCode::kNotSafe);
}

TEST_F(TranslateTest, RanfContextEnablesAtoms) {
  auto f = ParseFormula(ctx_, "succ(x) = y");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(IsRanf(*f, SymbolSet{}));
  EXPECT_TRUE(IsRanf(*f, SymbolSet{ctx_.symbols().Intern("x")}));
}

TEST_F(TranslateTest, RanfConstructiveAtomConditionT16) {
  // R-atom with a function argument needs its variables bound first.
  auto f = ParseFormula(ctx_, "T(succ(x), y) and R(x)");
  ASSERT_TRUE(f.ok());
  auto ranf = ToRanf(ctx_, ToEnf(ctx_, *f), SymbolSet{});
  ASSERT_TRUE(ranf.ok()) << ranf.status().ToString();
  ASSERT_EQ((*ranf)->kind(), FormulaKind::kAnd);
  EXPECT_EQ(FormulaToString(ctx_, (*ranf)->children()[0]), "R(x)");
}

// --- end-to-end equivalence on a corpus ---

class PipelineCase : public TranslateTest,
                     public ::testing::WithParamInterface<const char*> {};

TEST_P(PipelineCase, PlanMatchesOracle) { ExpectMatchesOracle(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Corpus, PipelineCase,
    ::testing::Values(
        "{x | R(x)}",
        "{x | R(x) and not S(x)}",
        "{x | R(x) and x != 2}",
        "{x, y | R(x) and succ(x) = y}",
        "{y | exists x (R(x) and y = double(succ(x)))}",
        "{x | R(x) and exists y (succ(x) = y and not R(y))}",
        "{x, y | (R(x) and succ(x) = y) or (S(y) and double(y) = x)}",
        "{x, y | T(x, y) and not Q2(x, y)}",
        "{x | R(x) and exists y (T(x, y))}",
        "{x | R(x) and not exists y (T(x, y))}",
        "{x | R(x) and forall y (not T(x, y) or S(y))}",
        "{x | R(x) and (S(x) or B(x))}",
        "{x, y | R(x) and R(y) and x != y and not T(x, y)}",
        "{x | R(x) and succ(x) = 3}",
        "{x | R(x) and 3 = succ(x)}",
        "{x, y | B(x) and T(succ(x), y)}",
        "{x, y | R(x) and y = 7}",
        "{ | exists x (R(x) and S(x))}",
        "{x | R(x) and not (S(x) and B(x))}",
        "{x, y | R(x) and succ(x) = y and not S(y)}",
        "{x, y, z | R(x) and succ(x) = y and succ(y) = z and not R(z)}",
        "{x | S(x) or B(x)}",
        "{x | R(x) and (x = 1 or x = 2)}",
        "{x, y | B(x) and not (((succ(x) != y and pred(x) != y) or "
        "T(x, y)) and ((double(x) != y and plus(x, 2) != y) or P(x, y)))}",
        // T16 in full generality: the atom binds z but its third argument
        // needs y, which is bound from z by a sibling — orderable only
        // after flattening the function argument into a fresh existential.
        "{x, y, z | B(x) and T3(z, x, plus(z, y)) and succ(z) = y}",
        "{x, z | B(x) and T3(z, x, succ(z))}"));

TEST_F(TranslateTest, NotSafeQueriesRejectedWithReason) {
  auto t = TranslateQuery(ctx_, Parse("{x | not R(x)}"));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotSafe);
  EXPECT_NE(t.status().message().find("not em-allowed"), std::string::npos);
}

TEST_F(TranslateTest, IllFormedQueriesRejected) {
  auto t = TranslateQuery(ctx_, Parse("{x | R(x) and R(x, x)}"));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

// The parameter set X is the translation's context: the body's free
// variables must be exactly head ∪ X, and the plan reads each parameter as
// a scalar, never as a column.
TEST_F(TranslateTest, ParametersAreTheTranslationContext) {
  const Symbol p = ctx_.symbols().Intern("p");
  const Symbol y = ctx_.symbols().Intern("y");
  const Symbol one[] = {p};
  auto t = TranslateQuery(ctx_, Parse("{y | succ(p) = y}"), {}, one);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_NE(AlgExprToString(ctx_, t->plan).find("succ($p)"),
            std::string::npos)
      << AlgExprToString(ctx_, t->plan);
  // Closed, the same text is ill-formed: p is free but not in the head.
  EXPECT_EQ(TranslateQuery(ctx_, Parse("{y | succ(p) = y}")).status().code(),
            StatusCode::kInvalidArgument);

  auto message = [&](std::string_view text,
                     std::span<const Symbol> params) -> std::string {
    return TranslateQuery(ctx_, Parse(text), {}, params).status().message();
  };
  const Symbol twice[] = {p, p};
  EXPECT_EQ(message("{y | succ(p) = y}", twice), "duplicate parameter name");
  const Symbol head[] = {y};
  EXPECT_EQ(message("{y | R(y)}", head), "head variable is also a parameter");
  EXPECT_EQ(message("{y | succ(1) = y}", one),
            "body's free variables must be exactly head + parameters");
  auto unsafe = TranslateQuery(ctx_, Parse("{y | not R(y) and R(p)}"), {}, one);
  EXPECT_EQ(unsafe.status().code(), StatusCode::kNotSafe);
  EXPECT_NE(unsafe.status().message().find("not em-allowed for its parameters"),
            std::string::npos);
}

TEST_F(TranslateTest, T10AblationFailsOnQ4) {
  // q4 (with bounding atom B): translatable with T10, untranslatable with
  // GT91's transformation set (experiment E6 / paper Section 7).
  const char* q4 =
      "{x, y | B(x) and not (((succ(x) != y and pred(x) != y) or "
      "T(x, y)) and ((double(x) != y and plus(x, 2) != y) or P(x, y)))}";
  TranslateOptions with_t10;
  EXPECT_TRUE(TranslateQuery(ctx_, Parse(q4), with_t10).ok());
  TranslateOptions without;
  without.enable_t10 = false;
  auto t = TranslateQuery(ctx_, Parse(q4), without);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotSafe);
}

TEST_F(TranslateTest, T10AblationDoesNotAffectGT91Queries) {
  TranslateOptions without;
  without.enable_t10 = false;
  const char* corpus[] = {
      "{x | R(x) and not S(x)}",
      "{x, y | T(x, y) and not Q2(x, y)}",
      "{x | R(x) and not (S(x) and B(x))}",
  };
  for (const char* text : corpus) {
    EXPECT_TRUE(TranslateQuery(ctx_, Parse(text), without).ok()) << text;
  }
}

TEST_F(TranslateTest, DisjunctionUnderConjunctionMatchesOracle) {
  // Context threaded into the disjunctions, and T13 where the RANF walk
  // stalls: an equality that binds nothing yet, next to a disjunction whose
  // disjuncts bind different variables.
  const char* corpus[] = {
      "{x | R(x) and (S(x) or B(x))}",
      "{x, y | (R(x) and succ(x) = y) or (S(y) and double(y) = x)}",
      "{x | R(x) and (S(x) or B(x)) and (x = 1 or x = 2 or S(x))}",
      "{x | R(x) and exists y (T(x, y) and (S(y) or B(y)))}",
      "{x, y | x = y and (R(x) or T(x, y))}",
      "{x, y | succ(x) = y and (R(x) or T(x, y))}",
  };
  for (const char* text : corpus) {
    ExpectMatchesOracle(text);
  }
}

TEST_F(TranslateTest, NaiveCoversProduceSamePlans) {
  TranslateOptions naive;
  naive.bound.use_reduced_covers = false;
  ExpectMatchesOracle("{x, y | (R(x) and succ(x) = y) or (S(y) and "
                      "double(y) = x)}",
                      naive);
}

// --- active-domain baseline ---

class BaselineCase : public TranslateTest,
                     public ::testing::WithParamInterface<const char*> {};

TEST_P(BaselineCase, BaselineMatchesOracle) {
  Query q = Parse(GetParam());
  auto plan = TranslateActiveDomain(ctx_, q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto answer = EvaluateAlgebra(ctx_, *plan, db_, registry_);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto oracle = EvaluateCalculus(ctx_, q, db_, registry_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(*answer, *oracle)
      << GetParam() << "\nplan: " << AlgExprToString(ctx_, *plan);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BaselineCase,
    ::testing::Values(
        "{x | R(x)}",
        "{x | R(x) and not S(x)}",
        "{x, y | T(x, y) and not Q2(x, y)}",
        "{x, y | R(x) and succ(x) = y}",
        "{x | R(x) and exists y (succ(x) = y and not R(y))}",
        "{x | R(x) and forall y (not T(x, y) or S(y))}",
        "{x | R(x) and (S(x) or B(x))}",
        // The baseline also handles non-em-allowed (but em-DI at level k)
        // shapes the direct translation rejects:
        "{x | R(x) and not (S(x) or x = 9)}"));

TEST_F(TranslateTest, BaselinePlansUseAdom) {
  auto plan = TranslateActiveDomain(ctx_, Parse("{x | R(x) and not S(x)}"));
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(AlgExprToString(ctx_, *plan).find("adom"), std::string::npos);
  // The direct translation of the same query avoids adom entirely.
  auto direct = TranslateQuery(ctx_, Parse("{x | R(x) and not S(x)}"));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(AlgExprToString(ctx_, direct->plan).find("adom"),
            std::string::npos);
}

}  // namespace
}  // namespace emcalc
