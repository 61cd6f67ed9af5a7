// Tests for the Section-9 extensions: external comparison predicates
// (<, <=, >, >=) and parameterized "em-allowed for X" queries, including
// the prepared-plan contract: one plan lowered at compile time, runs that
// allocate nothing in the compiler, and concurrent runs (under TSAN in CI).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"
#include "src/eval/calculus_eval.h"
#include "src/safety/em_allowed.h"
#include "src/safety/pushnot.h"
#include "src/safety/simplify.h"
#include "src/translate/pipeline.h"
#include "src/verify/verify.h"

namespace emcalc {
namespace {

class ComparisonTest : public ::testing::Test {
 protected:
  ComparisonTest() : registry_(BuiltinFunctions()) {
    for (int i = 1; i <= 6; ++i) {
      EXPECT_TRUE(db_.Insert("R", {Value::Int(i)}).ok());
    }
    EXPECT_TRUE(db_.Insert("T", {Value::Int(2), Value::Int(5)}).ok());
    EXPECT_TRUE(db_.Insert("T", {Value::Int(4), Value::Int(1)}).ok());
  }

  const Formula* Parse(std::string_view text) {
    auto f = ParseFormula(ctx_, text);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    return *f;
  }

  AstContext ctx_;
  Database db_;
  FunctionRegistry registry_;
};

TEST_F(ComparisonTest, ParseAndPrint) {
  EXPECT_EQ(FormulaToString(ctx_, Parse("x < y")), "x < y");
  EXPECT_EQ(FormulaToString(ctx_, Parse("x <= succ(y)")), "x <= succ(y)");
  // > and >= normalize to swapped < / <=.
  EXPECT_EQ(FormulaToString(ctx_, Parse("x > y")), "y < x");
  EXPECT_EQ(FormulaToString(ctx_, Parse("x >= y")), "y <= x");
}

TEST_F(ComparisonTest, RoundTrip) {
  const char* corpus[] = {"R(x) and x < 3", "R(x) and 2 <= x and x <= 4"};
  for (const char* text : corpus) {
    const Formula* f = Parse(text);
    std::string printed = FormulaToString(ctx_, f);
    const Formula* again = Parse(printed);
    EXPECT_TRUE(FormulasEqual(f, again)) << printed;
  }
}

TEST_F(ComparisonTest, PushNotFlipsComparisons) {
  EXPECT_EQ(FormulaToString(ctx_, PushNotStep(ctx_, Parse("not x < y"))),
            "y <= x");
  EXPECT_EQ(FormulaToString(ctx_, PushNotStep(ctx_, Parse("not x <= y"))),
            "y < x");
}

TEST_F(ComparisonTest, SimplifyIdenticalSides) {
  EXPECT_EQ(Simplify(ctx_, Parse("x < x")), ctx_.False());
  EXPECT_EQ(Simplify(ctx_, Parse("x <= x")), ctx_.True());
}

TEST_F(ComparisonTest, ComparisonsGiveNoBounding) {
  // Externally defined predicates bound nothing (Section 9(d)).
  EXPECT_FALSE(CheckEmAllowed(ctx_, Parse("x < 5")).em_allowed);
  EXPECT_FALSE(CheckEmAllowed(ctx_, Parse("R(x) and x < y")).em_allowed);
  EXPECT_TRUE(CheckEmAllowed(ctx_, Parse("R(x) and x < 5")).em_allowed);
  // Negated comparisons give no bounding either.
  EXPECT_FALSE(
      CheckEmAllowed(ctx_, Parse("R(x) and not (x < y)")).em_allowed);
}

TEST_F(ComparisonTest, TranslatesToSelection) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | R(x) and x < 4}");
  ASSERT_TRUE(q.ok());
  auto t = TranslateQuery(ctx, *q);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(AlgExprToString(ctx, t->plan), "select({@1<4}, R)");
}

TEST_F(ComparisonTest, MatchesOracle) {
  const char* corpus[] = {
      "{x | R(x) and x < 4}",
      "{x | R(x) and 2 <= x and x <= 4}",
      "{x | R(x) and not (x < 3)}",
      "{x, y | T(x, y) and x < y}",
      "{x, y | T(x, y) and succ(x) <= y}",
      "{x | R(x) and not exists y (T(x, y) and y < x)}",
      "{x | R(x) and (x < 2 or 5 <= x)}",
  };
  for (const char* text : corpus) {
    auto q = ParseQuery(ctx_, text);
    ASSERT_TRUE(q.ok());
    auto t = TranslateQuery(ctx_, *q);
    ASSERT_TRUE(t.ok()) << text << ": " << t.status().ToString();
    auto plan_answer = EvaluateAlgebra(ctx_, t->plan, db_, registry_);
    ASSERT_TRUE(plan_answer.ok());
    auto oracle = EvaluateCalculus(ctx_, *q, db_, registry_);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(*plan_answer, *oracle)
        << text << "\nplan: " << AlgExprToString(ctx_, t->plan);
  }
}

TEST_F(ComparisonTest, MixedTypeOrderIsTotal) {
  Database db;
  ASSERT_TRUE(db.Insert("M", {Value::Int(5)}).ok());
  ASSERT_TRUE(db.Insert("M", {Value::Str("apple")}).ok());
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | M(x) and x < 'zebra'}");
  ASSERT_TRUE(q.ok());
  auto t = TranslateQuery(ctx, *q);
  ASSERT_TRUE(t.ok());
  auto answer = EvaluateAlgebra(ctx, t->plan, db, registry_);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 2u);  // ints precede all strings
}

// --- parameterized queries ---

class ParameterizedTest : public ::testing::Test {
 protected:
  ParameterizedTest() {
    // EMP(id, dept, salary)
    EXPECT_TRUE(db_.Insert("EMP", {Value::Int(1), Value::Int(10),
                                   Value::Int(50'000)})
                    .ok());
    EXPECT_TRUE(db_.Insert("EMP", {Value::Int(2), Value::Int(10),
                                   Value::Int(80'000)})
                    .ok());
    EXPECT_TRUE(db_.Insert("EMP", {Value::Int(3), Value::Int(20),
                                   Value::Int(60'000)})
                    .ok());
  }
  Compiler compiler_;
  Database db_;
};

TEST_F(ParameterizedTest, RunWithDifferentArguments) {
  auto q = compiler_.CompileParameterized(
      "{e | exists s (EMP(e, d, s) and cap <= s)}", {"d", "cap"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->parameters().size(), 2u);

  auto dept10_60k = q->Run(db_, {Value::Int(10), Value::Int(60'000)});
  ASSERT_TRUE(dept10_60k.ok()) << dept10_60k.status().ToString();
  ASSERT_EQ(dept10_60k->size(), 1u);
  EXPECT_TRUE(dept10_60k->Contains({Value::Int(2)}));

  auto dept10_40k = q->Run(db_, {Value::Int(10), Value::Int(40'000)});
  ASSERT_TRUE(dept10_40k.ok());
  EXPECT_EQ(dept10_40k->size(), 2u);

  auto dept20 = q->Run(db_, {Value::Int(20), Value::Int(0)});
  ASSERT_TRUE(dept20.ok());
  EXPECT_TRUE(dept20->Contains({Value::Int(3)}));
}

TEST_F(ParameterizedTest, ParameterBoundFunctionImage) {
  // The q2 shape relative to a parameter: y = f(p) is em-allowed *for* p
  // but not as a closed query.
  auto bad = compiler_.Compile("{y | succ(p) = y}");
  EXPECT_FALSE(bad.ok());
  auto good = compiler_.CompileParameterized("{y | succ(p) = y}", {"p"});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  auto answer = good->Run(db_, {Value::Int(41)});
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), 1u);
  EXPECT_TRUE(answer->Contains({Value::Int(42)}));
}

TEST_F(ParameterizedTest, BareFormulaFormDropsParamsFromHead) {
  auto q = compiler_.CompileParameterized("EMP(e, d, s) and cap <= s",
                                          {"cap"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Head = {d, e, s} (sorted), cap excluded.
  EXPECT_EQ(q->query().head.size(), 3u);
}

TEST_F(ParameterizedTest, ValidationErrors) {
  // Arg count mismatch.
  auto q = compiler_.CompileParameterized("{y | succ(p) = y}", {"p"});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->Run(db_, {}).ok());
  EXPECT_FALSE(q->Run(db_, {Value::Int(1), Value::Int(2)}).ok());
  // Unsafe even given parameters.
  EXPECT_FALSE(
      compiler_.CompileParameterized("{y | not EMP(p, y, y)}", {"p"}).ok());
  // Duplicate parameter names.
  EXPECT_FALSE(
      compiler_.CompileParameterized("{y | succ(p) = y}", {"p", "p"}).ok());
  // Declared parameter not free in the body is a mismatch.
  EXPECT_FALSE(
      compiler_.CompileParameterized("{y | succ(1) = y}", {"p"}).ok());
}

TEST_F(ParameterizedTest, PlanForShowsGroundedPlan) {
  auto q = compiler_.CompileParameterized("{y | succ(p) = y}", {"p"});
  ASSERT_TRUE(q.ok());
  auto plan = q->PlanFor({Value::Int(7)});
  ASSERT_TRUE(plan.ok());
  std::string text = AlgExprToString(compiler_.ctx(), *plan);
  EXPECT_NE(text.find("succ(7)"), std::string::npos) << text;
}

TEST_F(ParameterizedTest, PreparedPlanReadsParameters) {
  auto q = compiler_.CompileParameterized(
      "{e | exists s (EMP(e, d, s) and cap <= s)}", {"d", "cap"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // The prepared plan holds the parameters themselves, no argument values.
  std::string plan = AlgExprToString(compiler_.ctx(), q->plan());
  EXPECT_NE(plan.find("$d"), std::string::npos) << plan;
  EXPECT_NE(plan.find("$cap"), std::string::npos) << plan;

  auto explain = q->ExplainAnalyze(db_, {Value::Int(10), Value::Int(60'000)});
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("plan: " + plan + "\n"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("args: $d=10 $cap=60000\n"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("answer rows: 1\n"), std::string::npos) << *explain;
}

TEST_F(ParameterizedTest, RunsAllocateNothingInTheCompiler) {
  auto q = compiler_.CompileParameterized(
      "{e | exists s (EMP(e, d, s) and cap <= succ(s))}", {"d", "cap"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const size_t arena = compiler_.ctx().arena().bytes_allocated();
  for (int i = 0; i < 10'000; ++i) {
    auto answer =
        q->Run(db_, {Value::Int(10 * (1 + i % 3)), Value::Int(i * 10)});
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
  EXPECT_EQ(compiler_.ctx().arena().bytes_allocated(), arena);
}

TEST_F(ParameterizedTest, ConcurrentRunsMatchPlanFor) {
  // Four threads run one query with different arguments; each answer must
  // equal the substitute-and-retranslate plan for its own arguments.
  // PlanFor allocates into the compiler, so the references are built
  // before the threads start. EMP outgrows the morsel threshold, so each
  // run's filter also fans out to the shared thread pool.
  for (int64_t id = 4; id < 6'000; ++id) {
    ASSERT_TRUE(db_.Insert("EMP", {Value::Int(id), Value::Int(10 * (id % 4)),
                                   Value::Int(1'000 * id)})
                    .ok());
  }
  auto q = compiler_.CompileParameterized(
      "{e, s | EMP(e, d, s) and cap <= s and s != succ(cap)}", {"d", "cap"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 50;
  std::vector<std::vector<Value>> args;
  std::vector<Relation> expected;
  for (int t = 0; t < kThreads; ++t) {
    args.push_back({Value::Int(10 * t), Value::Int(5'000 * t)});
    auto plan = q->PlanFor(args.back());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto answer =
        EvaluateAlgebra(compiler_.ctx(), *plan, db_, compiler_.functions());
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    expected.push_back(std::move(answer).value());
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        auto answer = q->Run(db_, args[static_cast<size_t>(t)]);
        if (!answer.ok() || !(*answer == expected[static_cast<size_t>(t)])) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

// The first runs over a base relation filled out of order race to its lazy
// normalize: two threads each start a run before either has read it. The
// relation must be sorted exactly once, with no data race, and both
// answers must be right. Each round gets a fresh, dirty database.
TEST(ConcurrentFirstRunTest, DirtyBaseRelationIsNormalizedOnce) {
  Compiler compiler;
  auto q = compiler.Compile("{x | exists y (R(x, y) and y = 3)}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Relation expected(1);
  for (int64_t x = 0; x < 5'000; ++x) {
    if (x % 7 == 3) expected.Insert({Value::Int(x)});
  }
  for (int round = 0; round < 10; ++round) {
    Database db;
    for (int64_t x = 5'000; x-- > 0;) {
      ASSERT_TRUE(db.Insert("R", {Value::Int(x), Value::Int(x % 7)}).ok());
    }
    std::vector<int> wrong(2, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        auto answer = q->Run(db);
        if (!answer.ok() || !(*answer == expected)) wrong[t] = 1;
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(wrong, std::vector<int>({0, 0})) << "round " << round;
    EXPECT_EQ(db.Find("R")->Normalize(), 0u);
  }
}

TEST_F(ParameterizedTest, AgreesWithConstantSubstitutedQuery) {
  // Each query runs with d = 10 and cap = 70000 and must equal its closed
  // twin, the same text with those constants substituted for d and cap.
  struct Case {
    const char* parameterized;
    const char* closed;
  };
  const Case cases[] = {
      {"{e | exists s (EMP(e, d, s) and s < cap)}",
       "{e | exists s (EMP(e, 10, s) and s < 70000)}"},
      // The inner quantifier shadows the parameter d.
      {"{e | exists s (EMP(e, d, s) and exists d (EMP(e, d, s) and s < cap))}",
       "{e | exists s (EMP(e, 10, s) and exists d (EMP(e, d, s) and "
       "s < 70000))}"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.parameterized);
    auto param = compiler_.CompileParameterized(c.parameterized, {"d", "cap"});
    ASSERT_TRUE(param.ok()) << param.status().ToString();
    auto direct = compiler_.Compile(c.closed);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto a = param->Run(db_, {Value::Int(10), Value::Int(70'000)});
    auto b = direct->Run(db_);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_FALSE(b->empty());
    EXPECT_EQ(*a, *b);
  }
}

struct ScopedVerify {
  explicit ScopedVerify(int mode) { verify::ForceEnabled(mode); }
  ~ScopedVerify() { verify::ForceEnabled(-1); }
};

// A closed query is the parameterized case X = {}: with no parameters,
// CompileParameterized yields Compile's plan under every translation
// setting, with each stage boundary verified.
TEST(ParameterizedPipelineTest, ZeroParametersGiveCompilesPlan) {
  ScopedVerify on(1);
  const char* const corpus[] = {
      "{y | exists x (R(x) and y = g(f(x)))}",               // q1
      "{x | R(x) and exists y (f(x) = y and not R(y))}",     // q2
      "{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
      "((h(x) != y and k(x) != y) or P(x, y)))}",            // q4
      "{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",  // q5
      "{x, y, z | R(x, y, z) and not S(y, z)}",              // q6
  };
  TranslateOptions no_optimize;
  no_optimize.optimize = false;
  FunctionRegistry functions = BuiltinFunctions();
  for (const char* fn : {"f", "g", "h", "k"}) {
    functions.Register(fn, 1, [](std::span<const Value> a) { return a[0]; });
  }
  for (const TranslateOptions& options :
       {TranslateOptions{}, no_optimize}) {
    for (const char* text : corpus) {
      SCOPED_TRACE(text);
      Compiler compiler(functions);
      auto param = compiler.CompileParameterized(text, {}, options);
      ASSERT_TRUE(param.ok()) << param.status().ToString();
      auto closed = compiler.Compile(text, options);
      ASSERT_TRUE(closed.ok()) << closed.status().ToString();
      EXPECT_EQ(AlgExprToString(compiler.ctx(), param->plan()),
                closed->PlanString());
    }
  }
}

}  // namespace
}  // namespace emcalc
