// Property tests for the facade-level features: view expansion and
// parameterized queries must agree with the equivalent "manual" queries on
// random inputs. Parameterized runs execute one plan prepared at compile
// time; the differential suite checks it bit for bit against the
// substitute-and-retranslate plan (PlanFor), run through the physical
// layer, and against the reference calculus evaluator.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/algebra/eval.h"
#include "src/calculus/analysis.h"
#include "src/calculus/printer.h"
#include "src/calculus/rewrite.h"
#include "src/core/compiler.h"
#include "src/core/random_query.h"
#include "src/core/workload.h"
#include "src/eval/calculus_eval.h"
#include "src/exec/lower.h"

namespace emcalc {
namespace {

// Builtins plus the generator's rf0/rf1 functions.
FunctionRegistry TestFunctions() {
  FunctionRegistry reg = BuiltinFunctions();
  reg.Register("rf0", 1, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 2;
    return Value::Int((n + 1) % 6);
  });
  reg.Register("rf1", 2, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 1;
    int64_t m = a[1].is_int() ? a[1].AsInt() : 4;
    return Value::Int((n * 2 + m) % 6);
  });
  return reg;
}

class FacadePropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Strings sharing a 15-byte prefix: equal order_prefix words, so `<`/`<=`
// settle on the full-string tie path and `==` on distinct raw words.
Value LongString(int i) {
  return Value::Str("position-title-" + std::to_string(i));
}

// Checks one argument binding of `pq` against every oracle: Run and the
// prepared plan must equal PlanFor(args) run through the physical layer,
// and the calculus evaluator on the query with the arguments substituted
// as constants.
void ExpectRunMatchesOracles(Compiler& compiler, const ParameterizedQuery& pq,
                             const Database& db,
                             const std::vector<Value>& args,
                             const std::string& label) {
  auto run = pq.Run(db, args);
  ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();

  AstContext& ctx = compiler.ctx();
  Substitution sub;
  for (size_t i = 0; i < args.size(); ++i) {
    sub.emplace(pq.parameters()[i], ctx.MakeConst(args[i]));
  }
  Query grounded{pq.query().head, SubstituteFormula(ctx, pq.query().body, sub)};
  auto calculus = EvaluateCalculus(ctx, grounded, db, compiler.functions());
  ASSERT_TRUE(calculus.ok()) << label << ": " << calculus.status().ToString();
  EXPECT_TRUE(*run == *calculus) << label << " vs calculus";

  auto plan = pq.PlanFor(args);
  ASSERT_TRUE(plan.ok()) << label << ": " << plan.status().ToString();
  auto substituted = EvaluateAlgebra(ctx, *plan, db, compiler.functions());
  ASSERT_TRUE(substituted.ok()) << label << ": "
                                << substituted.status().ToString();
  EXPECT_TRUE(*run == *substituted) << label << " vs PlanFor";

  auto prepared = Lower(ctx, pq.plan(), compiler.functions(), ExecOptions{},
                        static_cast<int>(pq.parameters().size()));
  ASSERT_TRUE(prepared.ok()) << label << ": " << prepared.status().ToString();
  auto bound = prepared->ExecuteToRelation(db, nullptr, args);
  ASSERT_TRUE(bound.ok()) << label << ": " << bound.status().ToString();
  EXPECT_TRUE(*run == *bound) << label << " vs prepared plan";
}

// A query using a view must compute exactly what the hand-inlined query
// computes.
TEST_P(FacadePropertyTest, ViewsAgreeWithManualInlining) {
  struct Case {
    const char* view;       // defined as VIEW
    const char* with_view;  // query using VIEW
    const char* inlined;    // the same query with VIEW expanded by hand
  };
  const Case cases[] = {
      {"{a, b | E0(a, b) and a != b}",
       "{x | exists y (VIEW(x, y) and E1(y))}",
       "{x | exists y (E0(x, y) and x != y and E1(y))}"},
      {"{a | E1(a) and not E2(a, a)}",
       "{x, y | E0(x, y) and VIEW(y)}",
       "{x, y | E0(x, y) and (E1(y) and not E2(y, y))}"},
      {"{a, b | exists c (E2(a, c) and E2(c, b))}",
       "{x | VIEW(x, x)}",
       "{x | exists c (E2(x, c) and E2(c, x))}"},
  };
  Database db;
  AddRandomTuples(db, "E0", 2, 20, 6, GetParam());
  AddRandomTuples(db, "E1", 1, 8, 6, GetParam() + 1);
  AddRandomTuples(db, "E2", 2, 20, 6, GetParam() + 2);
  for (const Case& c : cases) {
    Compiler with_views;
    ASSERT_TRUE(with_views.DefineView("VIEW", c.view).ok()) << c.view;
    auto q1 = with_views.Compile(c.with_view);
    ASSERT_TRUE(q1.ok()) << c.with_view << ": " << q1.status().ToString();
    Compiler plain;
    auto q2 = plain.Compile(c.inlined);
    ASSERT_TRUE(q2.ok()) << c.inlined << ": " << q2.status().ToString();
    auto a = q1->Run(db);
    auto b = q2->Run(db);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << c.with_view;
  }
}

// Running a parameterized query must match compiling the query with the
// arguments substituted as constants, across random argument values.
TEST_P(FacadePropertyTest, ParameterizedMatchesConstantSubstitution) {
  Database db;
  AddRandomTuples(db, "E0", 2, 25, 8, GetParam() * 3);
  AddRandomTuples(db, "E1", 1, 10, 8, GetParam() * 3 + 1);
  struct Case {
    const char* parameterized;
    const char* templated;  // %P replaced by the argument value
  };
  const Case cases[] = {
      {"{x | E0(p, x)}", "{x | E0(%P, x)}"},
      {"{x | E0(x, q) and not E1(x)}", "{x | E0(x, %P) and not E1(x)}"},
      {"{x, y | E0(x, y) and succ(p) = x}",
       "{x, y | E0(x, y) and succ(%P) = x}"},
      {"{x | E1(x) and p <= x}", "{x | E1(x) and %P <= x}"},
  };
  const char* param_names[] = {"p", "q", "p", "p"};
  for (size_t i = 0; i < std::size(cases); ++i) {
    Compiler compiler;
    auto pq = compiler.CompileParameterized(cases[i].parameterized,
                                            {param_names[i]});
    ASSERT_TRUE(pq.ok()) << cases[i].parameterized << ": "
                         << pq.status().ToString();
    for (int64_t value : {0, 3, 7, 100}) {
      auto a = pq->Run(db, {Value::Int(value)});
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      std::string text = cases[i].templated;
      size_t pos = text.find("%P");
      ASSERT_NE(pos, std::string::npos);
      text.replace(pos, 2, std::to_string(value));
      Compiler direct;
      auto dq = direct.Compile(text);
      ASSERT_TRUE(dq.ok()) << text << ": " << dq.status().ToString();
      auto b = dq->Run(db);
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << text;
    }
  }
}

// Seeded random em-allowed queries with a random subset of their head
// variables declared as parameters. Arguments come from the instance's
// value pool, outside it, and from long strings sharing a prefix.
TEST_P(FacadePropertyTest, RandomParameterizedRunsMatchOracles) {
  Compiler compiler(TestFunctions());
  RandomQueryGen gen(compiler.ctx(), GetParam() + 4242);
  std::mt19937_64 rng(GetParam());
  Database db;
  const auto& arities = gen.relation_arities();
  for (size_t i = 0; i < arities.size(); ++i) {
    const std::string name = "R" + std::to_string(i);
    AddRandomTuples(db, name, arities[i], 25, 5, GetParam() * 13 + i, 0.1);
    for (int row = 0; row < 2; ++row) {
      Tuple t;
      for (int c = 0; c < arities[i]; ++c) {
        t.push_back(rng() % 2 == 0
                        ? LongString(static_cast<int>(rng() % 3))
                        : Value::Int(static_cast<int64_t>(rng() % 4)));
      }
      ASSERT_TRUE(db.Insert(name, std::move(t)).ok());
    }
  }
  const std::vector<Value> pool = {
      Value::Int(0),      Value::Int(3),   Value::Str("s1"), LongString(1),
      Value::Int(-7),     Value::Int(1'000'000'007),
      LongString(9),      Value::Str("position-title-")};
  int checked = 0;
  for (int i = 0; i < 400 && checked < 12; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value() || q->head.empty()) continue;
    if (CountApplications(q->body) > 2) continue;
    // Half the bindings come from answers of the closed query (its head
    // holds the parameters), so only queries with answers are kept.
    const std::string text = QueryToString(compiler.ctx(), *q);
    auto closed = compiler.Compile(text);
    ASSERT_TRUE(closed.ok()) << text << ": " << closed.status().ToString();
    auto answers = closed->Run(db);
    ASSERT_TRUE(answers.ok()) << text << ": " << answers.status().ToString();
    if (answers->empty()) continue;
    std::vector<std::string> params;
    for (Symbol h : q->head) {
      if (rng() % 3 != 0) params.emplace_back(compiler.ctx().symbols().Name(h));
    }
    if (params.empty()) {
      params.emplace_back(compiler.ctx().symbols().Name(q->head[0]));
    }
    auto pq = compiler.CompileParameterized(text, params);
    ASSERT_TRUE(pq.ok()) << text << ": " << pq.status().ToString();
    std::vector<size_t> param_cols;
    for (const std::string& p : params) {
      for (size_t c = 0; c < q->head.size(); ++c) {
        if (compiler.ctx().symbols().Name(q->head[c]) == p) {
          param_cols.push_back(c);
        }
      }
    }
    for (int binding = 0; binding < 6; ++binding) {
      std::vector<Value> args;
      if (binding % 2 == 0) {
        TupleRef row = answers->row(rng() % answers->size());
        for (size_t c : param_cols) args.push_back(row[c]);
      } else {
        for (size_t j = 0; j < params.size(); ++j) {
          args.push_back(pool[rng() % pool.size()]);
        }
      }
      ExpectRunMatchesOracles(compiler, *pq, db, args, text);
    }
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

// Hand-written shapes for the comparison kernels the random generator
// never emits: `<`/`<=` against a parameter over long shared-prefix
// strings, and parameter equality in atom positions and join keys.
TEST_P(FacadePropertyTest, ParameterizedComparisonsMatchOracles) {
  Compiler compiler;
  Database db;
  std::mt19937_64 rng(GetParam() * 5 + 1);
  ASSERT_TRUE(db.AddRelation("E0", 2).ok());
  ASSERT_TRUE(db.AddRelation("E1", 1).ok());
  auto value = [&] {
    switch (rng() % 3) {
      case 0: return Value::Int(static_cast<int64_t>(rng() % 6) - 2);
      case 1: return LongString(static_cast<int>(rng() % 5));
      default: return Value::Str("s" + std::to_string(rng() % 3));
    }
  };
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.Insert("E0", {value(), value()}).ok());
    ASSERT_TRUE(db.Insert("E1", {value()}).ok());
  }
  struct Case {
    const char* text;
    std::vector<std::string> params;
  };
  const Case cases[] = {
      {"{x | E1(x) and p <= x}", {"p"}},
      {"{x | E1(x) and x < p}", {"p"}},
      {"{x, y | E0(x, y) and p <= y and y != q}", {"p", "q"}},
      {"{x | E0(x, p)}", {"p"}},
      {"{x | E0(p, x) and not E1(x)}", {"p"}},
      {"{x, y | E0(x, y) and succ(p) = x}", {"p"}},
      {"{x, z | exists y (E0(x, y) and E0(y, z) and x < p)}", {"p"}},
  };
  const std::vector<Value> pool = {
      Value::Int(0),  Value::Int(2),   Value::Int(-3), Value::Int(99),
      Value::Int(int64_t{1} << 62),  // beyond the inline int encoding
      LongString(0),  LongString(2),   LongString(7),  Value::Str("s1"),
      Value::Str("position-title-"), Value::Str("position-title-2a")};
  for (const Case& c : cases) {
    auto pq = compiler.CompileParameterized(c.text, c.params);
    ASSERT_TRUE(pq.ok()) << c.text << ": " << pq.status().ToString();
    for (int binding = 0; binding < 6; ++binding) {
      std::vector<Value> args;
      for (size_t j = 0; j < c.params.size(); ++j) {
        args.push_back(pool[rng() % pool.size()]);
      }
      ExpectRunMatchesOracles(compiler, *pq, db, args, c.text);
    }
  }
}

// Random em-allowed queries keep working when routed through a view
// ("VIEW(args) == body"), exercising expansion on arbitrary shapes.
TEST_P(FacadePropertyTest, RandomQueriesSurviveViewIndirection) {
  Compiler compiler(TestFunctions());
  RandomQueryGen gen(compiler.ctx(), GetParam() + 777);
  Database db;
  const auto& arities = gen.relation_arities();
  for (size_t i = 0; i < arities.size(); ++i) {
    AddRandomTuples(db, "R" + std::to_string(i), arities[i], 6, 6,
                    GetParam() * 11 + i);
  }
  int checked = 0;
  for (int i = 0; i < 30 && checked < 5; ++i) {
    auto q = gen.NextEmAllowed();
    if (!q.has_value()) continue;
    if (q->head.empty() || CountApplications(q->body) > 3) continue;
    std::string body_text = QueryToString(compiler.ctx(), *q);
    Compiler with_view(TestFunctions());
    if (!with_view.DefineView("W", body_text).ok()) continue;
    std::string args;
    for (size_t j = 0; j < q->head.size(); ++j) {
      if (j > 0) args += ", ";
      args +=
          std::string(compiler.ctx().symbols().Name(q->head[j]));
    }
    std::string head = args;
    auto via_view =
        with_view.Compile("{" + head + " | W(" + args + ")}");
    if (!via_view.ok()) continue;
    Compiler direct(TestFunctions());
    auto plain = direct.Compile(body_text);
    ASSERT_TRUE(plain.ok()) << body_text;
    auto a = via_view->Run(db);
    auto b = plain->Run(db);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << body_text;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FacadePropertyTest,
                         ::testing::Values(51, 52, 53, 54));

}  // namespace
}  // namespace emcalc
