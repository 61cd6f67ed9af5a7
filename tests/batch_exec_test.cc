// Differential tests for the vectorized batch kernels (src/exec/
// scalar_program.h, src/exec/selection.h): every num_threads setting must
// produce output bit-identical to the reference calculus evaluator, over
// the paper corpus, a seeded random corpus, and hand-built join and filter
// plans spanning several morsels (checked against their calculus twins);
// plus unit tests for Selection edge cases and the compiled scalar program
// (CSE, constant folding, staged filters).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/random_query.h"
#include "src/core/workload.h"
#include "src/eval/calculus_eval.h"
#include "src/exec/lower.h"
#include "src/exec/physical.h"
#include "src/exec/scalar_program.h"
#include "src/exec/selection.h"
#include "src/translate/pipeline.h"

namespace emcalc {
namespace {

// ---------------------------------------------------------------------------
// Selection edge cases.

TEST(SelectionTest, EmptySelection) {
  Selection dense = Selection::Dense(42, 0);
  EXPECT_TRUE(dense.empty());
  EXPECT_EQ(dense.size(), 0u);
  Selection sparse = Selection::Sparse(nullptr, 0);
  EXPECT_TRUE(sparse.empty());
}

TEST(SelectionTest, FullDenseBatchIndexesAbsoluteRows) {
  Selection sel = Selection::Dense(2048, 1024);
  EXPECT_TRUE(sel.dense());
  EXPECT_EQ(sel.size(), 1024u);
  EXPECT_EQ(sel[0], 2048u);
  EXPECT_EQ(sel[1023], 2048u + 1023u);
  EXPECT_EQ(sel.indices(), nullptr);
  EXPECT_EQ(sel.first(), 2048u);
}

TEST(SelectionTest, SingleRowTailBatch) {
  // The last 1024-row batch of a 4097-row input covers one row.
  Selection sel = Selection::Dense(4096, 1);
  EXPECT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 4096u);
}

TEST(SelectionTest, SparseViewBorrowsIndexArray) {
  const uint32_t idx[] = {3, 7, 11};
  Selection sel = Selection::Sparse(idx, 3);
  EXPECT_FALSE(sel.dense());
  EXPECT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 3u);
  EXPECT_EQ(sel[2], 11u);
  EXPECT_EQ(sel.indices(), idx);
}

// ---------------------------------------------------------------------------
// Compiled scalar programs, driven directly through a lowered plan.

class BatchProgramTest : public ::testing::Test {
 protected:
  BatchProgramTest() : factory_(ctx_), registry_(BuiltinFunctions()) {
    EXPECT_TRUE(db_.AddRelation("R", 2).ok());
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(
          db_.Insert("R", {Value::Int(i), Value::Int(100 - i)}).ok());
    }
  }

  const ScalarExpr* Apply1(const char* fn, const ScalarExpr* a) {
    return factory_.exprs().Apply(ctx_.symbols().Intern(fn),
                                  std::vector<const ScalarExpr*>{a});
  }
  const ScalarExpr* Apply2(const char* fn, const ScalarExpr* a,
                           const ScalarExpr* b) {
    return factory_.exprs().Apply(ctx_.symbols().Intern(fn),
                                  std::vector<const ScalarExpr*>{a, b});
  }

  AstContext ctx_;
  AlgebraFactory factory_;
  FunctionRegistry registry_;
  Database db_;
};

// A subtree repeated across output columns is computed once per batch:
// runtime function_calls count each distinct application once per row.
TEST_F(BatchProgramTest, CommonSubexpressionsShareWork) {
  ExprFactory& e = factory_.exprs();
  const ScalarExpr* shared = Apply1("succ", e.Col(0));
  const AlgExpr* plan = factory_.Project(
      {Apply1("double", shared), Apply1("neg", shared)}, factory_.Rel("R", 2));

  ExecOptions batch_opts;
  batch_opts.num_threads = 1;
  ExecTotals bs;
  auto batch = EvaluateAlgebra(ctx_, plan, db_, registry_, &bs, batch_opts);
  ASSERT_TRUE(batch.ok());
  Relation want(2);
  for (int64_t i = 0; i < 50; ++i) {
    want.Insert({Value::Int(2 * (i + 1)), Value::Int(-(i + 1))});
  }
  EXPECT_EQ(*batch, want);
  // 4 applications per row in the plan (succ twice). Batch: 3 ops, the
  // shared succ register evaluated once, so 3 counted lanes per row.
  EXPECT_EQ(bs.function_calls, 3u * 50u);
}

// An all-constant application folds at compile time: zero runtime calls.
TEST_F(BatchProgramTest, ConstantApplicationsFoldAtCompileTime) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Project(
      {e.Col(0), Apply1("succ", e.ConstValue(Value::Int(41)))},
      factory_.Rel("R", 2));

  ExecOptions batch_opts;
  batch_opts.num_threads = 1;
  ExecTotals bs;
  auto batch = EvaluateAlgebra(ctx_, plan, db_, registry_, &bs, batch_opts);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(bs.function_calls, 0u);
  EXPECT_TRUE(batch->Contains({Value::Int(7), Value::Int(42)}));
}

// Staged filter evaluation: a second condition only runs over lanes that
// survived the first, so per-lane work equals a short-circuit count.
TEST_F(BatchProgramTest, StagedFilterMatchesShortCircuitCounts) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Select(
      {{Apply1("half", e.Col(0)), AlgCompareOp::kLt, e.Col(1)},
       {Apply1("succ", e.Col(0)), AlgCompareOp::kNe, e.Col(1)}},
      factory_.Rel("R", 2));

  ExecOptions batch_opts;
  batch_opts.num_threads = 1;
  ExecTotals bs;
  auto batch = EvaluateAlgebra(ctx_, plan, db_, registry_, &bs, batch_opts);
  ASSERT_TRUE(batch.ok());
  // Every row (i, 100-i) passes both: i/2 < 100-i and i+1 != 100-i.
  EXPECT_EQ(*batch, *db_.Find("R"));
  // half runs on all 50 rows; succ only on the rows where half(i) < 100-i,
  // which is all 50 of them.
  EXPECT_EQ(bs.function_calls, 100u);
}

// Mixed int/string comparison columns take the order-key gather path and
// must order exactly like Value's total order (ints before strings,
// strings lexicographic including 8-byte-prefix ties).
TEST_F(BatchProgramTest, MixedOrderComparisonsMatchValueOrder) {
  Database db;
  ASSERT_TRUE(db.AddRelation("M", 2).ok());
  const std::vector<Value> vals = {
      Value::Int(-5),
      Value::Int(0),
      Value::Int(12),
      Value::Str("alpha"),
      Value::Str("alphabet"),    // shares an 8-byte prefix region
      Value::Str("alphabets"),   // distinct beyond the prefix
      Value::Str("zeta"),
      Value::Str(""),
  };
  for (const Value& a : vals) {
    for (const Value& b : vals) {
      ASSERT_TRUE(db.Insert("M", {a, b}).ok());
    }
  }
  ExprFactory& e = factory_.exprs();
  for (AlgCompareOp op : {AlgCompareOp::kLt, AlgCompareOp::kLe,
                          AlgCompareOp::kEq, AlgCompareOp::kNe}) {
    const AlgExpr* plan =
        factory_.Select({{e.Col(0), op, e.Col(1)}}, factory_.Rel("M", 2));
    Relation want(2);
    for (const Value& a : vals) {
      for (const Value& b : vals) {
        const bool keep = op == AlgCompareOp::kLt   ? a < b
                          : op == AlgCompareOp::kLe ? !(b < a)
                          : op == AlgCompareOp::kEq ? a == b
                                                    : a != b;
        if (keep) want.Insert({a, b});
      }
    }
    auto batch = EvaluateAlgebra(ctx_, plan, db, registry_);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(want.ToString(), batch->ToString())
        << "op=" << static_cast<int>(op);
  }
}

// The fused FilterSelect→ProjectMap pair must keep both operators' row
// accounting identical to the unfused plan, and the batch counters must
// surface in the profile.
TEST_F(BatchProgramTest, FusedFilterProjectKeepsRowAccounting) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Project(
      {Apply2("plus", e.Col(0), e.Col(1))},
      factory_.Select({{e.Col(0), AlgCompareOp::kLt, e.Col(1)}},
                      factory_.Rel("R", 2)));

  ExecOptions opts;
  opts.num_threads = 1;
  auto physical = Lower(ctx_, plan, registry_, opts);
  ASSERT_TRUE(physical.ok());
  ExecProfile profile;
  auto result = physical->ExecuteToRelation(db_, &profile);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(profile.op, PhysOpKind::kProjectMap);
  ASSERT_EQ(profile.children.size(), 1u);
  const ExecProfile& filter = profile.children[0];
  ASSERT_EQ(filter.op, PhysOpKind::kFilterSelect);
  // R holds (i, 100-i) for i in [0,50): i < 100-i holds for every row.
  EXPECT_EQ(filter.stats.rows_in, 50u);
  EXPECT_EQ(filter.stats.rows_out, 50u);
  EXPECT_EQ(profile.stats.rows_in, 50u);
  EXPECT_EQ(profile.stats.batches, 1u);
  EXPECT_EQ(profile.stats.batch_rows, 50u);
  EXPECT_EQ(profile.stats.batch_sel_rows, 50u);
  // Fused: the filter materializes nothing, so it copies nothing.
  EXPECT_EQ(filter.stats.tuple_copies, 0u);
  std::string rendered = ExecProfileToString(profile);
  EXPECT_NE(rendered.find("batches="), std::string::npos);
  EXPECT_NE(rendered.find("sel_density="), std::string::npos);
}

// Profile JSON round-trip including the batch counters.
TEST_F(BatchProgramTest, BatchCountersRoundTripThroughJson) {
  ExecProfile p;
  p.op = PhysOpKind::kProjectMap;
  p.stats.batches = 7;
  p.stats.batch_rows = 7000;
  p.stats.batch_sel_rows = 4096;
  auto parsed = ExecProfileFromJson(ExecProfileToJson(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->stats.batches, 7u);
  EXPECT_EQ(parsed->stats.batch_rows, 7000u);
  EXPECT_EQ(parsed->stats.batch_sel_rows, 4096u);
}

// ---------------------------------------------------------------------------
// Differential grid over the paper corpus and a random corpus.

struct CorpusQuery {
  const char* text;
  std::vector<std::pair<const char*, int>> schema;
};

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

const size_t kThreadCounts[] = {1, 2, 4, 0};

// The calculus answer of `q`, which must be within the oracle's budget.
Relation Oracle(const AstContext& ctx, const Query& q, const Database& db,
                const FunctionRegistry& registry) {
  auto want = EvaluateCalculus(ctx, q, db, registry);
  EXPECT_TRUE(want.ok()) << QueryToString(ctx, q) << ": "
                         << want.status().ToString();
  return want.ok() ? *std::move(want)
                   : Relation(static_cast<int>(q.head.size()));
}

// Paper corpus on inputs large enough to exercise the parallel batch
// kernels: every num_threads setting must match the calculus bit-for-bit
// (ToString compares the normalized rendering).
TEST(BatchDifferentialTest, PaperCorpusIdenticalAcrossBatchGrid) {
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
    const std::string want = Oracle(ctx, *q, db, registry).ToString();
    for (size_t threads : kThreadCounts) {
      ExecOptions options;
      options.num_threads = threads;
      auto phys = EvaluateAlgebra(ctx, t->plan, db, registry,
                                  /*totals=*/nullptr, options);
      ASSERT_TRUE(phys.ok()) << cq.text;
      EXPECT_EQ(phys->ToString(), want)
          << cq.text << " differs at num_threads=" << threads;
    }
  }
}

// 200 seeded random em-allowed queries at every thread count. Small
// databases sweep plan shapes (including odd arities and empty inputs)
// through the batched entry points; answers must match the calculus, and
// row and function-call counts must not depend on the thread count.
TEST(BatchDifferentialTest, RandomQueriesIdenticalAcrossBatchGrid) {
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

  int checked = 0;
  for (uint64_t seed = 3000; checked < 200 && seed < 3100; ++seed) {
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
        AddRandomTuples(db, "R" + std::to_string(r), arities[r], /*rows=*/6,
                        /*value_pool=*/6, seed * 613 + r * 31 + i);
      }
      const std::string want = Oracle(ctx, *q, db, registry).ToString();
      ExecTotals first;
      for (size_t threads : kThreadCounts) {
        ExecOptions options;
        options.num_threads = threads;
        ExecTotals ps;
        auto phys = EvaluateAlgebra(ctx, t->plan, db, registry, &ps,
                                    options);
        ASSERT_TRUE(phys.ok()) << QueryToString(ctx, *q);
        ASSERT_EQ(phys->ToString(), want)
            << QueryToString(ctx, *q) << "\nplan: "
            << AlgExprToString(ctx, t->plan) << "\nnum_threads=" << threads;
        if (threads == kThreadCounts[0]) first = ps;
        EXPECT_EQ(ps.rows_in, first.rows_in) << QueryToString(ctx, *q);
        EXPECT_EQ(ps.rows_out, first.rows_out) << QueryToString(ctx, *q);
        EXPECT_EQ(ps.function_calls, first.function_calls)
            << QueryToString(ctx, *q);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 200) << "generator exhausted before 200 queries";
}

// The parallel fan-out floor (4096 input rows): at num_threads = 4 an input
// below it runs inline (no par_morsels recorded), one above it fans out.
TEST(BatchDifferentialTest, ParallelFloorControlsFanOut) {
  AstContext ctx;
  AlgebraFactory factory(ctx);
  ExprFactory& e = factory.exprs();
  FunctionRegistry registry = BuiltinFunctions();
  Symbol succ = ctx.symbols().Intern("succ");
  const AlgExpr* plan = factory.Project(
      {e.Apply(succ, std::vector<const ScalarExpr*>{e.Col(0)})},
      factory.Rel("R", 1));
  ExecOptions options;
  options.num_threads = 4;
  auto physical = Lower(ctx, plan, registry, options);
  ASSERT_TRUE(physical.ok());

  auto par_morsels = [&](int rows) {
    Database db;
    EXPECT_TRUE(db.AddRelation("R", 1).ok());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(db.Insert("R", {Value::Int(i)}).ok());
    }
    ExecProfile profile;
    auto result = physical->ExecuteToRelation(db, &profile);
    EXPECT_TRUE(result.ok());
    return profile.stats.par_morsels;
  };

  EXPECT_EQ(par_morsels(100), 0u);   // below the floor: inline
  EXPECT_GT(par_morsels(5000), 0u);  // above the floor: morsel-parallel
}

// Hand-built plans over 6500 rows: three full 2048-row morsels of two
// 1024-row batches each, then a partial morsel holding one partial batch.
// Every scalar program the executor runs is exercised across those
// boundaries: function-term and residual-filtered HashJoins, a
// NestedLoopJoin with conditions, and a fused filter→project, each at
// every thread count. Each plan's answer comes from its calculus twin,
// which must lower to the same root operator.
TEST(BatchDifferentialTest, JoinsAndFusedFilterAcrossMorsels) {
  AstContext ctx;
  AlgebraFactory factory(ctx);
  ExprFactory& e = factory.exprs();
  FunctionRegistry registry = CorpusFunctions();
  registry.Register("m", 1, [](std::span<const Value> a) {
    return Value::Int(a[0].AsInt() % 1000);
  });
  constexpr int kRows = 6500;
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 2).ok());
  ASSERT_TRUE(db.AddRelation("S", 2).ok());
  ASSERT_TRUE(db.AddRelation("T", 1).ok());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(db.Insert("R", {Value::Int(i), Value::Int(i * 7 % 3001)}).ok());
    ASSERT_TRUE(db.Insert("S", {Value::Int(i % 1500), Value::Int(i % 997)}).ok());
  }
  for (int i : {100, 2000, 4000}) {
    ASSERT_TRUE(db.Insert("T", {Value::Int(i)}).ok());
  }
  auto m = [&](const ScalarExpr* a) {
    return e.Apply(ctx.symbols().Intern("m"),
                   std::vector<const ScalarExpr*>{a});
  };
  const AlgExpr* r = factory.Rel("R", 2);
  const AlgExpr* s = factory.Rel("S", 2);
  // The R rows (i, i*7 % 3001) with m(i*7 % 3001) <= m(i).
  uint64_t survivors = 0;
  for (int i = 0; i < kRows; ++i) survivors += i * 7 % 3001 % 1000 <= i % 1000;
  // Each case counts the m calls its plan makes: the function-term keys
  // call m once per R row; the nested loop calls it only on the pairs that
  // pass a < t; the fused filter calls it twice per R row, then once per
  // surviving row in the projection.
  struct Case {
    const char* twin;
    const AlgExpr* plan;
    PhysOpKind root;
    uint64_t function_calls;
  };
  const Case cases[] = {
      // Function-term keys on both sides: m(@1) == @3 probes with m over
      // R's second column and builds on S's second column.
      {"{a, b, c, d | R(a, b) and S(c, d) and m(b) = d}",
       factory.Join({{m(e.Col(1)), AlgCompareOp::kEq, e.Col(3)}}, r, s),
       PhysOpKind::kHashJoin, kRows},
      // An equi-key plus a residual `<` over both sides.
      {"{a, b, c, d | R(a, b) and S(c, d) and c = m(a) and b < d}",
       factory.Join({{e.Col(2), AlgCompareOp::kEq, m(e.Col(0))},
                     {e.Col(1), AlgCompareOp::kLt, e.Col(3)}},
                    r, s),
       PhysOpKind::kHashJoin, kRows},
      // No equi-key: every R × T pair is a candidate.
      {"{a, b, t | R(a, b) and T(t) and a < t and m(b) != t}",
       factory.Join({{e.Col(0), AlgCompareOp::kLt, e.Col(2)},
                     {m(e.Col(1)), AlgCompareOp::kNe, e.Col(2)}},
                    r, factory.Rel("T", 1)),
       PhysOpKind::kNestedLoopJoin, 100 + 2000 + 4000},
      {"{u, b | exists a (R(a, b) and m(b) <= m(a) and u = m(a))}",
       factory.Project(
           {m(e.Col(0)), e.Col(1)},
           factory.Select({{m(e.Col(1)), AlgCompareOp::kLe, m(e.Col(0))}},
                          r)),
       PhysOpKind::kProjectMap, 2 * kRows + survivors},
  };
  for (const Case& c : cases) {
    auto q = ParseQuery(ctx, c.twin);
    ASSERT_TRUE(q.ok()) << c.twin;
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok()) << c.twin << ": " << t.status().ToString();
    auto twin = Lower(ctx, t->plan, registry);
    ASSERT_TRUE(twin.ok()) << c.twin;
    EXPECT_EQ(twin->root()->kind, c.root)
        << c.twin << "\nplan: " << AlgExprToString(ctx, t->plan);
    const Relation oracle = Oracle(ctx, *q, db, registry);
    ASSERT_GT(oracle.size(), 1024u) << c.twin << ": too few rows to batch";
    const std::string want = oracle.ToString();
    for (size_t threads : kThreadCounts) {
      ExecOptions options;
      options.num_threads = threads;
      auto physical = Lower(ctx, c.plan, registry, options);
      ASSERT_TRUE(physical.ok()) << c.twin;
      ASSERT_EQ(physical->root()->kind, c.root) << c.twin;
      ExecProfile profile;
      auto got = physical->ExecuteToRelation(db, &profile);
      ASSERT_TRUE(got.ok()) << c.twin << ": " << got.status().ToString();
      EXPECT_EQ(got->ToString(), want)
          << c.twin << " differs at num_threads=" << threads;
      EXPECT_EQ(profile.stats.rows_out, oracle.size()) << c.twin;
      EXPECT_EQ(SumProfile(profile).function_calls, c.function_calls)
          << c.twin;
    }
  }
}

// Sort work per operator. A projection that keeps the scan's key column
// first yields rows already in order, so its final normalize is one linear
// pass (rows_sorted == 0) at every thread count: the morsel buffers
// concatenate back into scan order. A projection that swaps columns really
// sorts. Answers are identical across thread counts either way.
TEST(SortWorkTest, OrderedProjectionSkipsTheSort) {
  FunctionRegistry registry = BuiltinFunctions();
  registry.Register("f", 1, [](std::span<const Value> a) {
    return Value::Int(a[0].is_int() ? a[0].AsInt() * 9 / 10 : 0);
  });
  const Database db = MakePayrollInstance(10000, 8, 3);
  struct Case {
    const char* text;
    bool sorts;
  };
  const Case cases[] = {
      {"{e, n | exists d, s (EMP(e, d, s) and n = f(s))}", false},
      {"{s, e | exists d (EMP(e, d, s))}", true},
  };
  for (const Case& c : cases) {
    AstContext ctx;
    auto q = ParseQuery(ctx, c.text);
    ASSERT_TRUE(q.ok()) << c.text;
    auto t = TranslateQuery(ctx, *q);
    ASSERT_TRUE(t.ok()) << c.text << ": " << t.status().ToString();
    std::string want;
    for (size_t threads : {1u, 2u, 4u}) {
      ExecOptions options;
      options.num_threads = threads;
      auto physical = Lower(ctx, t->plan, registry, options);
      ASSERT_TRUE(physical.ok()) << c.text;
      ASSERT_EQ(physical->root()->kind, PhysOpKind::kProjectMap) << c.text;
      ASSERT_EQ(physical->root()->left->kind, PhysOpKind::kScan) << c.text;
      ExecProfile profile;
      auto got = physical->ExecuteToRelation(db, &profile);
      ASSERT_TRUE(got.ok()) << c.text << ": " << got.status().ToString();
      EXPECT_EQ(got->size(), 10000u) << c.text;
      if (threads == 1) {
        want = got->ToString();
      } else {
        EXPECT_EQ(got->ToString(), want)
            << c.text << " differs at num_threads=" << threads;
      }
      if (c.sorts) {
        EXPECT_EQ(profile.stats.rows_sorted, 10000u) << c.text;
      } else {
        EXPECT_EQ(profile.stats.rows_sorted, 0u)
            << c.text << " at num_threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace emcalc
