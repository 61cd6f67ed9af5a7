// Differential tests for the physical execution layer (src/exec/): the
// lowered plans must agree tuple-for-tuple with the legacy recursive
// interpreter and with the reference calculus evaluator, over the paper
// corpus and a large seeded random corpus; the shared-ownership execution
// must copy strictly fewer relations/tuples than the legacy memo path.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"
#include "src/core/random_query.h"
#include "src/core/workload.h"
#include "src/eval/calculus_eval.h"
#include "src/exec/lower.h"
#include "src/exec/physical.h"
#include "src/translate/pipeline.h"

namespace emcalc {
namespace {

// Small total functions with compact integer images so the oracle's term
// closures stay tiny.
FunctionRegistry CorpusFunctions() {
  FunctionRegistry reg = BuiltinFunctions();
  auto mod_fn = [](int64_t mul, int64_t add) {
    return [mul, add](std::span<const Value> a) {
      int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
      return Value::Int((n * mul + add) % 7);
    };
  };
  reg.Register("f", 1, mod_fn(1, 1));
  reg.Register("g", 1, mod_fn(2, 0));
  reg.Register("h", 1, mod_fn(3, 2));
  reg.Register("k", 1, mod_fn(1, 4));
  return reg;
}

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : factory_(ctx_), registry_(BuiltinFunctions()) {
    EXPECT_TRUE(db_.AddRelation("R", 2).ok());
    for (int i = 1; i <= 3; ++i) {
      EXPECT_TRUE(db_.Insert("R", {Value::Int(i), Value::Int(10 * i)}).ok());
    }
    EXPECT_TRUE(db_.Insert("S", {Value::Int(10)}).ok());
    EXPECT_TRUE(db_.Insert("S", {Value::Int(99)}).ok());
  }

  // Runs `plan` through both evaluators and checks they agree; returns the
  // physical answer.
  Relation RunBoth(const AlgExpr* plan) {
    auto legacy = EvaluateAlgebraLegacy(ctx_, plan, db_, registry_);
    auto phys = EvaluateAlgebra(ctx_, plan, db_, registry_);
    EXPECT_TRUE(legacy.ok()) << legacy.status().ToString();
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    if (legacy.ok() && phys.ok()) {
      EXPECT_EQ(*legacy, *phys) << AlgExprToString(ctx_, plan);
    }
    return phys.ok() ? *phys : Relation(plan->arity());
  }

  PhysOpKind RootKind(const AlgExpr* plan) {
    auto physical = Lower(ctx_, plan, registry_);
    EXPECT_TRUE(physical.ok()) << physical.status().ToString();
    return physical.ok() ? physical->root()->kind : PhysOpKind::kSingleton;
  }

  AstContext ctx_;
  AlgebraFactory factory_;
  FunctionRegistry registry_;
  Database db_;
};

// Lower() must produce a physical plan for every logical node kind, with
// the documented operator mapping.
TEST_F(ExecTest, LowerCoversEveryLogicalNodeKind) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* rel = factory_.Rel("R", 2);
  EXPECT_EQ(RootKind(rel), PhysOpKind::kScan);
  EXPECT_EQ(RootKind(factory_.Project({e.Col(0)}, rel)),
            PhysOpKind::kProjectMap);
  EXPECT_EQ(RootKind(factory_.Select(
                {{e.Col(0), AlgCompareOp::kLt, e.Col(1)}}, rel)),
            PhysOpKind::kFilterSelect);
  EXPECT_EQ(RootKind(factory_.Join({{e.Col(1), AlgCompareOp::kEq, e.Col(2)}},
                                   rel, factory_.Rel("S", 1))),
            PhysOpKind::kHashJoin);
  EXPECT_EQ(RootKind(factory_.Join({}, rel, factory_.Rel("S", 1))),
            PhysOpKind::kNestedLoopJoin);
  EXPECT_EQ(RootKind(factory_.Union(rel, rel)), PhysOpKind::kUnionMerge);
  EXPECT_EQ(RootKind(factory_.Diff(rel, rel)), PhysOpKind::kDiffAnti);
  EXPECT_EQ(RootKind(factory_.Unit()), PhysOpKind::kSingleton);
  EXPECT_EQ(RootKind(factory_.Empty(3)), PhysOpKind::kSingleton);
  EXPECT_EQ(RootKind(factory_.Adom(0, {}, {})), PhysOpKind::kAdomScan);
}

// A HashJoin is chosen only when a hashable equality exists: an
// inequality-only join must fall back to nested loops, and a mixed
// condition set hashes the equality and filters the rest as residual.
TEST_F(ExecTest, HashJoinRequiresEqualityKeys) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* lt_only = factory_.Join(
      {{e.Col(1), AlgCompareOp::kLt, e.Col(2)}}, factory_.Rel("R", 2),
      factory_.Rel("S", 1));
  EXPECT_EQ(RootKind(lt_only), PhysOpKind::kNestedLoopJoin);
  RunBoth(lt_only);

  const AlgExpr* mixed = factory_.Join(
      {{e.Col(1), AlgCompareOp::kEq, e.Col(2)},
       {e.Col(0), AlgCompareOp::kLt, e.Col(2)}},
      factory_.Rel("R", 2), factory_.Rel("S", 1));
  auto physical = Lower(ctx_, mixed, registry_);
  ASSERT_TRUE(physical.ok());
  ASSERT_EQ(physical->root()->kind, PhysOpKind::kHashJoin);
  EXPECT_EQ(physical->root()->keys.size(), 1u);
  EXPECT_EQ(physical->root()->conds.size(), 1u);
  RunBoth(mixed);
}

// Every operator evaluates identically to the legacy interpreter.
TEST_F(ExecTest, OperatorsMatchLegacyInterpreter) {
  ExprFactory& e = factory_.exprs();
  Symbol succ = ctx_.symbols().Intern("succ");
  const AlgExpr* rel = factory_.Rel("R", 2);
  std::vector<const AlgExpr*> plans = {
      rel,
      factory_.Project({e.Col(1), e.Apply(succ, std::vector<const ScalarExpr*>{
                                              e.Col(0)})},
                       rel),
      factory_.Select({{e.Col(0), AlgCompareOp::kNe,
                        e.ConstValue(Value::Int(2))}},
                      rel),
      factory_.Join({{e.Col(1), AlgCompareOp::kEq, e.Col(2)}}, rel,
                    factory_.Rel("S", 1)),
      factory_.Join({}, rel, factory_.Rel("S", 1)),
      factory_.Union(rel, rel),
      factory_.Diff(rel, factory_.Select({{e.Col(0), AlgCompareOp::kEq,
                                           e.ConstValue(Value::Int(1))}},
                                         rel)),
      factory_.Unit(),
      factory_.Empty(2),
      factory_.Adom(1, {succ}, {}),
  };
  for (const AlgExpr* plan : plans) RunBoth(plan);
}

// The wrapper's aggregated stats must reproduce the legacy counters.
TEST_F(ExecTest, WrapperStatsMatchLegacyCounters) {
  ExprFactory& e = factory_.exprs();
  Symbol succ = ctx_.symbols().Intern("succ");
  const AlgExpr* shared = factory_.Select(
      {{e.Col(0), AlgCompareOp::kNe, e.ConstValue(Value::Int(9))}},
      factory_.Rel("R", 2));
  const AlgExpr* plan = factory_.Diff(
      shared, factory_.Project(
                  {e.Col(0), e.Apply(succ, std::vector<const ScalarExpr*>{
                                         e.Col(1)})},
                  shared));
  ExecTotals legacy, phys;
  ASSERT_TRUE(EvaluateAlgebraLegacy(ctx_, plan, db_, registry_, &legacy).ok());
  ASSERT_TRUE(EvaluateAlgebra(ctx_, plan, db_, registry_, &phys).ok());
  EXPECT_EQ(phys.rows_in, legacy.rows_in);
  EXPECT_EQ(phys.rows_out, legacy.rows_out);
  EXPECT_EQ(phys.function_calls, legacy.function_calls);
}

// Validation failures surface before execution, as in the legacy path.
TEST_F(ExecTest, ValidationErrorsMatchLegacy) {
  const AlgExpr* unknown = factory_.Rel("NoSuch", 1);
  auto physical = Lower(ctx_, unknown, registry_);
  ASSERT_TRUE(physical.ok());  // functions resolve; relations bind per-db
  auto result = physical->Execute(db_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);

  const AlgExpr* wrong_arity = factory_.Rel("R", 3);
  auto r2 = Lower(ctx_, wrong_arity, registry_);
  ASSERT_TRUE(r2.ok());
  auto e2 = r2->Execute(db_);
  ASSERT_FALSE(e2.ok());
  EXPECT_EQ(e2.status().code(), StatusCode::kInvalidArgument);

  ExprFactory& e = factory_.exprs();
  const AlgExpr* bad_fn = factory_.Project(
      {e.Apply(ctx_.symbols().Intern("mystery"),
               std::vector<const ScalarExpr*>{e.Col(0)})},
      factory_.Rel("R", 2));
  auto r3 = Lower(ctx_, bad_fn, registry_);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kNotFound);
}

// The legacy memo path copies a shared subplan's whole result twice (once
// into the memo map, once per extra reference out of it); the execution
// layer's Materialize hands the same relation out by pointer. This is the
// copy-counting check of the shared-ownership refactor.
TEST_F(ExecTest, MaterializeSharesWithoutCopying) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* shared = factory_.Select(
      {{e.Col(0), AlgCompareOp::kNe, e.ConstValue(Value::Int(0))}},
      factory_.Rel("R", 2));
  const AlgExpr* plan = factory_.Union(
      factory_.Select({{e.Col(0), AlgCompareOp::kEq,
                        e.ConstValue(Value::Int(1))}},
                      shared),
      factory_.Select({{e.Col(0), AlgCompareOp::kEq,
                        e.ConstValue(Value::Int(2))}},
                      shared));

  uint64_t before = Relation::CopiesMade();
  auto legacy = EvaluateAlgebraLegacy(ctx_, plan, db_, registry_);
  ASSERT_TRUE(legacy.ok());
  uint64_t legacy_copies = Relation::CopiesMade() - before;

  before = Relation::CopiesMade();
  auto phys = EvaluateAlgebra(ctx_, plan, db_, registry_);
  ASSERT_TRUE(phys.ok());
  uint64_t phys_copies = Relation::CopiesMade() - before;

  EXPECT_EQ(*legacy, *phys);
  EXPECT_EQ(phys_copies, 0u);
  EXPECT_GT(legacy_copies, phys_copies);

  // The shared node lowers to a Materialize with two consumers; the second
  // reference renders as a shared stub in the profile.
  auto physical = Lower(ctx_, plan, registry_);
  ASSERT_TRUE(physical.ok());
  ExecProfile profile;
  ASSERT_TRUE(physical->Execute(db_, &profile).ok());
  std::string rendered = ExecProfileToString(profile);
  EXPECT_NE(rendered.find("Materialize(consumers=2)"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("shared result"), std::string::npos) << rendered;
}

// Union/difference-heavy plans (the q6 family) copy measurably fewer
// tuples through the execution layer, and the copy counter is exposed in
// the profile.
TEST_F(ExecTest, Q6FamilyCopiesFewerTuples) {
  FunctionRegistry registry = BuiltinFunctions();
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x, y, z | R(x, y, z) and not S(y, z)}");
  ASSERT_TRUE(q.ok());
  auto t = TranslateQuery(ctx, *q);
  ASSERT_TRUE(t.ok());
  Database db = MakeQ6Instance(400, 200, /*value_pool=*/50, 7);

  uint64_t before = Relation::TuplesCopied();
  auto legacy = EvaluateAlgebraLegacy(ctx, t->plan, db, registry);
  ASSERT_TRUE(legacy.ok());
  uint64_t legacy_tuples = Relation::TuplesCopied() - before;

  before = Relation::TuplesCopied();
  ExecTotals stats;
  auto phys = EvaluateAlgebra(ctx, t->plan, db, registry, &stats);
  ASSERT_TRUE(phys.ok());
  uint64_t phys_tuples = Relation::TuplesCopied() - before;

  EXPECT_EQ(*legacy, *phys);
  EXPECT_LT(phys_tuples, legacy_tuples);
  // The operator-attributed copy counter is exposed through the profile
  // aggregation (the difference copies its surviving tuples).
  EXPECT_GT(stats.tuple_copies, 0u);
}

struct CorpusQuery {
  const char* text;
  std::vector<std::pair<const char*, int>> schema;
};

// The paper's named corpus (q1–q7; q3 names the paper's running safety
// discussion and has no query text, q7 must be rejected — see below).
const CorpusQuery kPaperCorpus[] = {
    {"{y | exists x (R(x) and y = g(f(x)))}", {{"R", 1}}},                // q1
    {"{x | R(x) and exists y (f(x) = y and not R(y))}", {{"R", 1}}},      // q2
    {"{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
     "((h(x) != y and k(x) != y) or P(x, y)))}",
     {{"B", 1}, {"R", 2}, {"P", 2}}},                                     // q4
    {"{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",
     {{"R", 1}, {"S", 1}}},                                               // q5
    {"{x, y, z | R(x, y, z) and not S(y, z)}", {{"R", 3}, {"S", 2}}},     // q6
};

TEST(ExecCorpusTest, PaperCorpusAgreesWithLegacyAndOracle) {
  FunctionRegistry registry = CorpusFunctions();
  for (const CorpusQuery& cq : kPaperCorpus) {
    AstContext ctx;
    auto q = ParseQuery(ctx, cq.text);
    ASSERT_TRUE(q.ok()) << cq.text;
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok()) << cq.text << " : " << t.status().ToString();
    for (uint64_t seed : {1u, 2u, 3u}) {
      Database db;
      for (const auto& [name, arity] : cq.schema) {
        AddRandomTuples(db, name, arity, /*rows=*/6, /*value_pool=*/6,
                        seed * 131 + arity);
      }
      auto legacy = EvaluateAlgebraLegacy(ctx, t->plan, db, registry);
      auto phys = EvaluateAlgebra(ctx, t->plan, db, registry);
      ASSERT_TRUE(legacy.ok()) << cq.text;
      ASSERT_TRUE(phys.ok()) << cq.text;
      EXPECT_EQ(*legacy, *phys) << cq.text;
      CalculusEvalOptions oracle_options;
      oracle_options.domain_budget = 5000;
      auto oracle = EvaluateCalculus(ctx, *q, db, registry, oracle_options);
      if (oracle.ok()) {
        EXPECT_EQ(*phys, *oracle) << cq.text;
      }
    }
  }
}

TEST(ExecCorpusTest, Q7StaysRejected) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | x = 0 and forall u (exists v (plus(u, 1) = v))}");
  ASSERT_TRUE(q.ok());
  auto t = TranslateQuery(ctx, *q);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotSafe);
}

// 500 seeded random em-allowed queries: the execution layer must agree
// with the legacy interpreter on every one (answers and aggregate stats),
// and with the reference calculus evaluator whenever its domain budget
// allows.
TEST(ExecCorpusTest, RandomEmAllowedQueriesAgree) {
  FunctionRegistry registry = CorpusFunctions();
  // Small modular functions registered under the generator's names.
  registry.Register("rf0", 1, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
    return Value::Int((n + 1) % 7);
  });
  registry.Register("rf1", 2, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 3;
    int64_t m = a[1].is_int() ? a[1].AsInt() : 5;
    return Value::Int((n * 3 + m) % 7);
  });

  int checked = 0;
  int oracle_checked = 0;
  for (uint64_t seed = 0; checked < 500 && seed < 200; ++seed) {
    AstContext ctx;
    RandomQueryGen gen(ctx, seed);
    for (int i = 0; i < 10 && checked < 500; ++i) {
      auto q = gen.NextEmAllowed();
      if (!q.has_value()) continue;
      auto t = TranslateQuery(ctx, *q);
      ASSERT_TRUE(t.ok()) << QueryToString(ctx, *q) << "\n"
                          << t.status().ToString();
      Database db;
      const std::vector<int>& arities = gen.relation_arities();
      for (size_t r = 0; r < arities.size(); ++r) {
        AddRandomTuples(db, "R" + std::to_string(r), arities[r], /*rows=*/5,
                        /*value_pool=*/6, seed * 977 + r * 101 + i);
      }
      ExecTotals ls, ps;
      auto legacy = EvaluateAlgebraLegacy(ctx, t->plan, db, registry, &ls);
      auto phys = EvaluateAlgebra(ctx, t->plan, db, registry, &ps);
      ASSERT_TRUE(legacy.ok()) << QueryToString(ctx, *q);
      ASSERT_TRUE(phys.ok()) << QueryToString(ctx, *q);
      ASSERT_EQ(*legacy, *phys)
          << QueryToString(ctx, *q) << "\nplan: "
          << AlgExprToString(ctx, t->plan);
      EXPECT_EQ(ls.rows_in, ps.rows_in)
          << QueryToString(ctx, *q);
      EXPECT_EQ(ls.rows_out, ps.rows_out)
          << QueryToString(ctx, *q);
      // The physical hash join short-circuits when either input is empty,
      // skipping key-expression evaluation the legacy interpreter still
      // performs — so it may make strictly fewer scalar function calls.
      EXPECT_LE(ps.function_calls, ls.function_calls)
          << QueryToString(ctx, *q);
      ++checked;
      // Oracle pass on a budgeted prefix: the calculus evaluator is
      // exponential in the variable count.
      if (oracle_checked < 80 && CountApplications(q->body) <= 4) {
        CalculusEvalOptions oracle_options;
        oracle_options.domain_budget = 3000;
        auto oracle = EvaluateCalculus(ctx, *q, db, registry, oracle_options);
        if (oracle.ok()) {
          ASSERT_EQ(*phys, *oracle) << QueryToString(ctx, *q);
          ++oracle_checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 500) << "generator exhausted before 500 queries";
  EXPECT_GT(oracle_checked, 20);
}

// The morsel-parallel operators must be bit-identical across thread
// counts: morsel boundaries depend only on (n, grain) and every parallel
// region renormalizes, so num_threads is purely a performance knob. The
// corpus databases are sized past the parallel threshold so the parallel
// paths actually execute (not just the sequential fallbacks).
TEST(ExecDeterminismTest, PaperCorpusIdenticalAcrossThreadCounts) {
  FunctionRegistry registry = CorpusFunctions();
  for (const CorpusQuery& cq : kPaperCorpus) {
    AstContext ctx;
    auto q = ParseQuery(ctx, cq.text);
    ASSERT_TRUE(q.ok()) << cq.text;
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok()) << cq.text;
    Database db;
    for (const auto& [name, arity] : cq.schema) {
      AddRandomTuples(db, name, arity, /*rows=*/6000, /*value_pool=*/100000,
                      /*seed=*/arity * 7 + 1);
    }
    auto legacy = EvaluateAlgebraLegacy(ctx, t->plan, db, registry);
    ASSERT_TRUE(legacy.ok()) << cq.text;
    ExecOptions options;
    Relation sequential(t->plan->arity());
    // 0 = hardware concurrency; it must agree with every explicit count.
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
      options.num_threads = threads;
      auto phys = EvaluateAlgebra(ctx, t->plan, db, registry,
                                  /*totals=*/nullptr, options);
      ASSERT_TRUE(phys.ok()) << cq.text;
      if (threads == 1) {
        sequential = *std::move(phys);
        EXPECT_EQ(sequential, *legacy) << cq.text;
      } else {
        EXPECT_EQ(*phys, sequential)
            << cq.text << " differs at num_threads=" << threads;
        EXPECT_EQ(phys->ToString(), sequential.ToString()) << cq.text;
      }
    }
  }
}

// 200 seeded random em-allowed queries evaluated at 1 and 4 threads:
// answers must be identical to each other and to the legacy interpreter.
// (The databases here are small — this sweeps plan shapes through the
// threaded entry points; the corpus test above covers the actual parallel
// code paths on large inputs.)
TEST(ExecDeterminismTest, RandomQueriesIdenticalAcrossThreadCounts) {
  FunctionRegistry registry = CorpusFunctions();
  registry.Register("rf0", 1, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
    return Value::Int((n + 1) % 7);
  });
  registry.Register("rf1", 2, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 3;
    int64_t m = a[1].is_int() ? a[1].AsInt() : 5;
    return Value::Int((n * 3 + m) % 7);
  });

  ExecOptions one_thread;
  one_thread.num_threads = 1;
  ExecOptions four_threads;
  four_threads.num_threads = 4;
  int checked = 0;
  for (uint64_t seed = 1000; checked < 200 && seed < 1100; ++seed) {
    AstContext ctx;
    RandomQueryGen gen(ctx, seed);
    for (int i = 0; i < 8 && checked < 200; ++i) {
      auto q = gen.NextEmAllowed();
      if (!q.has_value()) continue;
      auto t = TranslateQuery(ctx, *q);
      ASSERT_TRUE(t.ok()) << QueryToString(ctx, *q);
      Database db;
      const std::vector<int>& arities = gen.relation_arities();
      for (size_t r = 0; r < arities.size(); ++r) {
        AddRandomTuples(db, "R" + std::to_string(r), arities[r], /*rows=*/40,
                        /*value_pool=*/9, seed * 37 + r * 13 + i);
      }
      auto legacy = EvaluateAlgebraLegacy(ctx, t->plan, db, registry);
      auto seq = EvaluateAlgebra(ctx, t->plan, db, registry,
                                 /*totals=*/nullptr, one_thread);
      auto par = EvaluateAlgebra(ctx, t->plan, db, registry,
                                 /*totals=*/nullptr, four_threads);
      ASSERT_TRUE(legacy.ok()) << QueryToString(ctx, *q);
      ASSERT_TRUE(seq.ok()) << QueryToString(ctx, *q);
      ASSERT_TRUE(par.ok()) << QueryToString(ctx, *q);
      ASSERT_EQ(*seq, *par) << QueryToString(ctx, *q) << "\nplan: "
                            << AlgExprToString(ctx, t->plan);
      ASSERT_EQ(*seq, *legacy) << QueryToString(ctx, *q);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 200) << "generator exhausted before 200 queries";
}

// Per-operator statistics surface through Run's profile / ExplainAnalyze.
TEST(ExecProfileTest, CompiledQueryExposesOperatorStats) {
  Compiler compiler;
  Database db = MakePayrollInstance(200, 8, 3);
  auto q = compiler.Compile(
      "{e | exists d, s (EMP(e, d, s) and not exists b (BONUS(e, b)))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  ExecProfile profile;
  auto answer = q->Run(db, &profile);
  ASSERT_TRUE(answer.ok());
  ExecTotals totals = SumProfile(profile);
  EXPECT_GT(totals.rows_in, 0u);
  EXPECT_GT(totals.rows_out, 0u);

  auto rendered = q->ExplainAnalyze(db);
  ASSERT_TRUE(rendered.ok());
  EXPECT_NE(rendered->find("rows_in="), std::string::npos) << *rendered;
  EXPECT_NE(rendered->find("rows_out="), std::string::npos) << *rendered;
  EXPECT_NE(rendered->find("time="), std::string::npos) << *rendered;
  EXPECT_NE(rendered->find("Scan(EMP)"), std::string::npos) << *rendered;
}

// Lowered plans are reusable: one plan, many databases, fresh stats each
// run (no state leaks across executions).
TEST(ExecProfileTest, PlansAreReusableAcrossDatabases) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x, y | R(x, y) and not S(y)}");
  ASSERT_TRUE(q.ok());
  auto t = TranslateQuery(ctx, *q);
  ASSERT_TRUE(t.ok());
  FunctionRegistry registry = BuiltinFunctions();
  auto physical = Lower(ctx, t->plan, registry);
  ASSERT_TRUE(physical.ok());
  for (uint64_t seed : {1u, 2u, 3u}) {
    Database db;
    AddRandomTuples(db, "R", 2, 20, 10, seed);
    AddRandomTuples(db, "S", 1, 5, 10, seed + 7);
    ExecProfile profile;
    auto phys = physical->ExecuteToRelation(db, &profile);
    auto legacy = EvaluateAlgebraLegacy(ctx, t->plan, db, registry);
    ASSERT_TRUE(phys.ok());
    ASSERT_TRUE(legacy.ok());
    EXPECT_EQ(*phys, *legacy);
    // Stats reflect exactly this run.
    EXPECT_EQ(profile.stats.invocations, 1u);
  }
}

}  // namespace
}  // namespace emcalc
