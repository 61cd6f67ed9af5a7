// Differential tests for the physical execution layer (src/exec/): the
// lowered plans must agree tuple-for-tuple with the reference calculus
// evaluator over the paper corpus and a large seeded random corpus, and
// hand-built plans with their expected relations; the shared-ownership
// execution's copy counts are pinned.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/builder.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"
#include "src/core/random_query.h"
#include "src/core/workload.h"
#include "src/eval/calculus_eval.h"
#include "src/exec/lower.h"
#include "src/exec/physical.h"
#include "src/translate/pipeline.h"
#include "src/verify/verify.h"

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

// CorpusFunctions plus small modular functions under the random query
// generator's names rf0/rf1.
FunctionRegistry GeneratorFunctions() {
  FunctionRegistry reg = CorpusFunctions();
  reg.Register("rf0", 1, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
    return Value::Int((n + 1) % 7);
  });
  reg.Register("rf1", 2, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 3;
    int64_t m = a[1].is_int() ? a[1].AsInt() : 5;
    return Value::Int((n * 3 + m) % 7);
  });
  return reg;
}

// Restores the environment/build-type default on scope exit.
struct ScopedVerify {
  explicit ScopedVerify(int mode) { verify::ForceEnabled(mode); }
  ~ScopedVerify() { verify::ForceEnabled(-1); }
};

Value I(int64_t v) { return Value::Int(v); }

// A relation of `arity` holding `rows`.
Relation Rows(int arity, std::initializer_list<Tuple> rows) {
  Relation r(arity);
  for (const Tuple& t : rows) r.Insert(t);
  return r;
}

// The calculus answer of `q`, which must be within the oracle's budget.
Relation Oracle(const AstContext& ctx, const Query& q, const Database& db,
                const FunctionRegistry& registry) {
  auto want = EvaluateCalculus(ctx, q, db, registry);
  EXPECT_TRUE(want.ok()) << QueryToString(ctx, q) << ": "
                         << want.status().ToString();
  return want.ok() ? *std::move(want)
                   : Relation(static_cast<int>(q.head.size()));
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

  // Runs `plan` and checks its answer is `want`.
  void ExpectAnswer(const AlgExpr* plan, const Relation& want) {
    auto phys = EvaluateAlgebra(ctx_, plan, db_, registry_);
    ASSERT_TRUE(phys.ok()) << phys.status().ToString();
    EXPECT_EQ(*phys, want) << AlgExprToString(ctx_, plan) << "\ngot "
                           << phys->ToString();
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
  ExpectAnswer(lt_only, Rows(3, {{I(1), I(10), I(99)},
                                 {I(2), I(20), I(99)},
                                 {I(3), I(30), I(99)}}));

  const AlgExpr* mixed = factory_.Join(
      {{e.Col(1), AlgCompareOp::kEq, e.Col(2)},
       {e.Col(0), AlgCompareOp::kLt, e.Col(2)}},
      factory_.Rel("R", 2), factory_.Rel("S", 1));
  auto physical = Lower(ctx_, mixed, registry_);
  ASSERT_TRUE(physical.ok());
  ASSERT_EQ(physical->root()->kind, PhysOpKind::kHashJoin);
  EXPECT_EQ(physical->root()->keys.size(), 1u);
  EXPECT_EQ(physical->root()->conds.size(), 1u);
  ExpectAnswer(mixed, Rows(3, {{I(1), I(10), I(10)}}));
}

// Every operator computes its expected relation over R = {(1, 10),
// (2, 20), (3, 30)} and S = {10, 99}.
TEST_F(ExecTest, OperatorsMatchExpectedRelations) {
  ExprFactory& e = factory_.exprs();
  Symbol succ = ctx_.symbols().Intern("succ");
  const AlgExpr* rel = factory_.Rel("R", 2);
  const Relation r = Rows(2, {{I(1), I(10)}, {I(2), I(20)}, {I(3), I(30)}});
  ExpectAnswer(rel, r);
  ExpectAnswer(
      factory_.Project({e.Col(1), e.Apply(succ, std::vector<const ScalarExpr*>{
                                                e.Col(0)})},
                       rel),
      Rows(2, {{I(10), I(2)}, {I(20), I(3)}, {I(30), I(4)}}));
  ExpectAnswer(factory_.Select({{e.Col(0), AlgCompareOp::kNe,
                                 e.Const(Value::Int(2))}},
                               rel),
               Rows(2, {{I(1), I(10)}, {I(3), I(30)}}));
  ExpectAnswer(factory_.Join({{e.Col(1), AlgCompareOp::kEq, e.Col(2)}}, rel,
                             factory_.Rel("S", 1)),
               Rows(3, {{I(1), I(10), I(10)}}));
  ExpectAnswer(factory_.Join({}, rel, factory_.Rel("S", 1)),
               Rows(3, {{I(1), I(10), I(10)},
                        {I(1), I(10), I(99)},
                        {I(2), I(20), I(10)},
                        {I(2), I(20), I(99)},
                        {I(3), I(30), I(10)},
                        {I(3), I(30), I(99)}}));
  ExpectAnswer(factory_.Union(rel, rel), r);
  ExpectAnswer(
      factory_.Diff(rel, factory_.Select({{e.Col(0), AlgCompareOp::kEq,
                                           e.Const(Value::Int(1))}},
                                         rel)),
      Rows(2, {{I(2), I(20)}, {I(3), I(30)}}));
  ExpectAnswer(factory_.Unit(), Rows(0, {{}}));
  ExpectAnswer(factory_.Empty(2), Rows(2, {}));
  // term^1 of adom = {1, 2, 3, 10, 20, 30, 99} under succ.
  Relation adom(1);
  for (int64_t v : {1, 2, 3, 10, 20, 30, 99}) {
    adom.Insert({I(v)});
    adom.Insert({I(v + 1)});
  }
  ExpectAnswer(factory_.Adom(1, {succ}, {}), adom);
}

// The wrapper's aggregated stats count each operator once. The scan of R
// and the shared select (3 rows in, 3 out each) run once for both
// consumers, the projection (3 in, 3 out) calls succ once per row, and the
// difference reads both sides (6 in) and keeps all 3 rows of the select.
TEST_F(ExecTest, WrapperStatsCountEachOperatorOnce) {
  ExprFactory& e = factory_.exprs();
  Symbol succ = ctx_.symbols().Intern("succ");
  const AlgExpr* shared = factory_.Select(
      {{e.Col(0), AlgCompareOp::kNe, e.Const(Value::Int(9))}},
      factory_.Rel("R", 2));
  const AlgExpr* plan = factory_.Diff(
      shared, factory_.Project(
                  {e.Col(0), e.Apply(succ, std::vector<const ScalarExpr*>{
                                         e.Col(1)})},
                  shared));
  ExecTotals phys;
  ASSERT_TRUE(EvaluateAlgebra(ctx_, plan, db_, registry_, &phys).ok());
  EXPECT_EQ(phys.rows_in, 15u);
  EXPECT_EQ(phys.rows_out, 12u);
  EXPECT_EQ(phys.function_calls, 3u);
}

// Unknown functions fail at Lower; unknown relations and arity mismatches
// fail at Execute, before any operator runs.
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

// The execution layer's Materialize hands a shared subplan's result to
// each consumer by pointer, so the whole plan copies no relation. This is
// the copy-counting check of the shared-ownership refactor.
TEST_F(ExecTest, MaterializeSharesWithoutCopying) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* shared = factory_.Select(
      {{e.Col(0), AlgCompareOp::kNe, e.Const(Value::Int(0))}},
      factory_.Rel("R", 2));
  const AlgExpr* plan = factory_.Union(
      factory_.Select({{e.Col(0), AlgCompareOp::kEq,
                        e.Const(Value::Int(1))}},
                      shared),
      factory_.Select({{e.Col(0), AlgCompareOp::kEq,
                        e.Const(Value::Int(2))}},
                      shared));

  uint64_t before = Relation::CopiesMade();
  auto phys = EvaluateAlgebra(ctx_, plan, db_, registry_);
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ(Relation::CopiesMade() - before, 0u);
  EXPECT_EQ(*phys, Rows(2, {{I(1), I(10)}, {I(2), I(20)}}));

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

// Union/difference-heavy plans (the q6 family) copy no Relation tuple: the
// anti-join appends each answer row it keeps once, and that copy shows in
// the operator-attributed counter of the profile.
TEST_F(ExecTest, Q6FamilyCopiesFewerTuples) {
  FunctionRegistry registry = BuiltinFunctions();
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x, y, z | R(x, y, z) and not S(y, z)}");
  ASSERT_TRUE(q.ok());
  auto t = TranslateQuery(ctx, *q);
  ASSERT_TRUE(t.ok());
  Database db = MakeQ6Instance(400, 200, /*value_pool=*/50, 7);

  uint64_t before = Relation::TuplesCopied();
  ExecTotals stats;
  auto phys = EvaluateAlgebra(ctx, t->plan, db, registry, &stats);
  ASSERT_TRUE(phys.ok());
  uint64_t phys_tuples = Relation::TuplesCopied() - before;

  EXPECT_EQ(*phys, Oracle(ctx, *q, db, registry));
  EXPECT_EQ(phys_tuples, 0u);
  // The operator-attributed copy counter is exposed through the profile
  // aggregation (the difference copies its surviving tuples).
  EXPECT_EQ(stats.tuple_copies, phys->size());
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

TEST(ExecCorpusTest, PaperCorpusAgreesWithOracle) {
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
      auto phys = EvaluateAlgebra(ctx, t->plan, db, registry);
      ASSERT_TRUE(phys.ok()) << cq.text;
      EXPECT_EQ(*phys, Oracle(ctx, *q, db, registry)) << cq.text;
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
// with the reference calculus evaluator on every one.
TEST(ExecCorpusTest, RandomEmAllowedQueriesAgree) {
  FunctionRegistry registry = GeneratorFunctions();

  int checked = 0;
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
      auto phys = EvaluateAlgebra(ctx, t->plan, db, registry);
      ASSERT_TRUE(phys.ok()) << QueryToString(ctx, *q);
      ASSERT_EQ(*phys, Oracle(ctx, *q, db, registry))
          << QueryToString(ctx, *q) << "\nplan: "
          << AlgExprToString(ctx, t->plan);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 500) << "generator exhausted before 500 queries";
}

// Constants at the edges of Value's encoding: the int64 limits, both sides
// of the inline/pooled seam at +-2^62, a negative big int, and strings that
// share a 12-byte prefix. Each goes into query text (the grammar takes
// every one of them) and into a query built with MakeConst; the printed
// text re-parses to an equal query, and the compiled plan answers as the
// calculus does on an instance holding the same values.
TEST(ExecCorpusTest, BoundaryConstantsAgreeWithOracle) {
  constexpr int64_t kSeam = int64_t{1} << 62;
  const std::vector<Value> constants = {
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Int(kSeam - 1),   // largest inline int
      Value::Int(kSeam),       // smallest pooled positive int
      Value::Int(-kSeam),      // smallest inline int
      Value::Int(-kSeam - 1),  // pooled negative int
      Value::Int(-5'000'000'000'000'000'000),
      Value::Str("twelve-bytes-x"),
      Value::Str("twelve-bytes-y"),
  };
  const FunctionRegistry registry = BuiltinFunctions();
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 1).ok());
  ASSERT_TRUE(db.AddRelation("S", 2).ok());
  std::vector<Value> domain = constants;
  for (int64_t v : {-1, 0, 1}) domain.push_back(Value::Int(v));
  domain.push_back(Value::Str("twelve-bytes"));
  for (size_t i = 0; i < domain.size(); ++i) {
    ASSERT_TRUE(db.Insert("R", {domain[i]}).ok());
    ASSERT_TRUE(db.Insert("S", {domain[i], domain[(i * 5 + 3) % domain.size()]})
                    .ok());
  }
  const char* const shapes[] = {
      "{x | R(x) and x = C}",         "{x | R(x) and x != C}",
      "{x | R(x) and x < C}",         "{x | R(x) and C <= x}",
      "{x, y | R(x) and y = C}",      "{x | S(x, C)}",
      "{x | R(x) and not S(x, C)}",   "{x | R(x) and not S(C, x)}",
  };

  Compiler compiler(registry);
  AstContext& ctx = compiler.ctx();
  auto check = [&](const Query& q) {
    const std::string text = QueryToString(ctx, q);
    auto again = ParseQuery(ctx, text);
    ASSERT_TRUE(again.ok()) << text << ": " << again.status().ToString();
    EXPECT_EQ(again->head, q.head) << text;
    EXPECT_TRUE(FormulasEqual(again->body, q.body))
        << text << " re-printed as " << QueryToString(ctx, *again);
    auto cq = compiler.Compile(text);
    ASSERT_TRUE(cq.ok()) << text << ": " << cq.status().ToString();
    auto got = cq->Run(db);
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    EXPECT_EQ(*got, Oracle(ctx, q, db, registry)) << text;
  };
  int nonempty = 0;
  for (const Value& c : constants) {
    for (std::string text : shapes) {
      text.replace(text.find('C'), 1, c.ToString());
      auto q = ParseQuery(ctx, text);
      ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
      check(*q);
      auto oracle = EvaluateCalculus(ctx, *q, db, registry);
      nonempty += oracle.ok() && !oracle->empty() ? 1 : 0;
    }
    const Term* x = builder::Var(ctx, "x");
    Query built{{ctx.symbols().Intern("x")},
                builder::And(ctx, {builder::Rel(ctx, "R", {x}),
                                   ctx.MakeEq(x, ctx.MakeConst(c))})};
    check(built);
  }
  EXPECT_GT(nonempty, 50) << "instance too sparse to test answers";
}

// The RANF ordering regression corpus (tests/testdata/ranf_order_corpus.txt):
// every text compiles with the stage verifier on, and its plan answers as
// the calculus does on seeded R0/R1/R2 instances.
TEST(ExecCorpusTest, RanfOrderCorpusCompilesAndAgrees) {
  ScopedVerify verify(1);
  const FunctionRegistry registry = GeneratorFunctions();
  std::ifstream in(std::string(EMCALC_TESTDATA_DIR) +
                   "/ranf_order_corpus.txt");
  ASSERT_TRUE(in.is_open());
  int texts = 0;
  int nonempty = 0;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty() || text[0] == '#') continue;
    ++texts;
    Compiler compiler(registry);
    auto cq = compiler.Compile(text);
    if (!cq.ok()) {
      ADD_FAILURE() << text << "\n" << cq.status().ToString();
      continue;
    }
    AstContext ctx;
    auto q = ParseQuery(ctx, text);
    ASSERT_TRUE(q.ok()) << text;
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Database db;
      const size_t rows[] = {4, 12, 30};
      for (int r = 0; r < 3; ++r) {
        AddRandomTuples(db, "R" + std::to_string(r), r + 1, rows[r],
                        /*value_pool=*/5, texts * 101 + seed * 7 + r);
      }
      auto got = cq->Run(db);
      ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
      EXPECT_EQ(*got, Oracle(ctx, *q, db, registry)) << text;
      nonempty += got->empty() ? 0 : 1;
    }
  }
  EXPECT_EQ(texts, 764);
  EXPECT_GT(nonempty, texts / 4) << "instances too sparse to test answers";
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
    const Relation want = Oracle(ctx, *q, db, registry);
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
        EXPECT_EQ(sequential, want) << cq.text;
      } else {
        EXPECT_EQ(*phys, sequential)
            << cq.text << " differs at num_threads=" << threads;
        EXPECT_EQ(phys->ToString(), sequential.ToString()) << cq.text;
      }
    }
  }
}

// 200 seeded random em-allowed queries evaluated at 1 and 4 threads:
// answers must be identical to each other and to the calculus.
// (The databases here are small — this sweeps plan shapes through the
// threaded entry points; the corpus test above covers the actual parallel
// code paths on large inputs.)
TEST(ExecDeterminismTest, RandomQueriesIdenticalAcrossThreadCounts) {
  FunctionRegistry registry = GeneratorFunctions();

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
      auto seq = EvaluateAlgebra(ctx, t->plan, db, registry,
                                 /*totals=*/nullptr, one_thread);
      auto par = EvaluateAlgebra(ctx, t->plan, db, registry,
                                 /*totals=*/nullptr, four_threads);
      ASSERT_TRUE(seq.ok()) << QueryToString(ctx, *q);
      ASSERT_TRUE(par.ok()) << QueryToString(ctx, *q);
      ASSERT_EQ(*seq, *par) << QueryToString(ctx, *q) << "\nplan: "
                            << AlgExprToString(ctx, t->plan);
      ASSERT_EQ(*seq, Oracle(ctx, *q, db, registry)) << QueryToString(ctx, *q);
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
    ASSERT_TRUE(phys.ok());
    EXPECT_EQ(*phys, Oracle(ctx, *q, db, registry));
    // Stats reflect exactly this run.
    EXPECT_EQ(profile.stats.invocations, 1u);
  }
}

// --- The anti-join form of DiffAnti ---
//
// X - project[@1..@n](join(X, Y, C)) with equi-key conditions only lowers
// to one keyed DiffAnti: build on Y, probe with X, keep the X rows that find
// no key match. The folded join and projection never run, so the operator
// reads |X| + |Y| rows, builds |Y|, probes |X| and sorts nothing.
class AntiJoinTest : public ::testing::Test {
 protected:
  AntiJoinTest() : factory_(ctx_), registry_(BuiltinFunctions()) {}

  // X - project[@1..@|X|](join(conds, X, Y)).
  const AlgExpr* AntiJoin(const AlgExpr* x, const AlgExpr* y,
                          std::vector<AlgCondition> conds) {
    std::vector<const ScalarExpr*> cols;
    for (int i = 0; i < x->arity(); ++i) cols.push_back(Col(i));
    return factory_.Diff(
        x, factory_.Project(std::move(cols),
                            factory_.Join(std::move(conds), x, y)));
  }
  AlgCondition Eq(int a, int b) {
    return {Col(a), AlgCompareOp::kEq, Col(b)};
  }
  const ScalarExpr* Col(int i) { return factory_.exprs().Col(i); }

  // Executes `plan` at `threads`, checks its answer is `want`, and
  // returns the profile.
  ExecProfile RunChecked(const AlgExpr* plan, const Relation& want,
                         size_t threads = 1) {
    ExecOptions options;
    options.num_threads = threads;
    auto physical = Lower(ctx_, plan, registry_, options);
    EXPECT_TRUE(physical.ok()) << physical.status().ToString();
    ExecProfile profile;
    if (!physical.ok()) return profile;
    auto phys = physical->ExecuteToRelation(db_, &profile);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    if (phys.ok()) {
      EXPECT_EQ(*phys, want) << AlgExprToString(ctx_, plan);
    }
    return profile;
  }

  // The rows of base relation `rel` that satisfy `keep`.
  Relation RowsOf(const std::string& rel,
                  const std::function<bool(TupleRef)>& keep) const {
    Relation out(db_.Find(rel)->arity());
    for (TupleRef row : *db_.Find(rel)) {
      if (keep(row)) out.Insert(row);
    }
    return out;
  }

  size_t Size(const std::string& rel) const { return db_.Find(rel)->size(); }

  AstContext ctx_;
  AlgebraFactory factory_;
  FunctionRegistry registry_;
  Database db_;
};

// Every node of `kind` in the profile tree, preorder.
void CollectOps(const ExecProfile& p, PhysOpKind kind,
                std::vector<const ExecProfile*>* out) {
  if (p.op == kind && !p.shared_ref) out->push_back(&p);
  for (const ExecProfile& c : p.children) CollectOps(c, kind, out);
}

// The plan's one DiffAnti, which must be in anti-join form with no
// HashJoin or Materialize left anywhere in the plan.
const ExecProfile* OnlyAntiJoin(const ExecProfile& profile) {
  std::vector<const ExecProfile*> anti, joins, mats;
  CollectOps(profile, PhysOpKind::kDiffAnti, &anti);
  CollectOps(profile, PhysOpKind::kHashJoin, &joins);
  CollectOps(profile, PhysOpKind::kMaterialize, &mats);
  EXPECT_EQ(anti.size(), 1u) << ExecProfileToString(profile);
  EXPECT_TRUE(joins.empty()) << ExecProfileToString(profile);
  EXPECT_TRUE(mats.empty()) << ExecProfileToString(profile);
  if (anti.size() != 1) return nullptr;
  EXPECT_EQ(anti[0]->detail.rfind("keys=", 0), 0u) << anti[0]->detail;
  return anti[0];
}

void ExpectAntiStats(const ExecProfile* anti, uint64_t x, uint64_t y,
                     uint64_t out) {
  ASSERT_NE(anti, nullptr);
  EXPECT_EQ(anti->stats.rows_in, x + y);
  EXPECT_EQ(anti->stats.build_rows, y);
  EXPECT_EQ(anti->stats.hash_probes, x);
  EXPECT_EQ(anti->stats.rows_out, out);
  EXPECT_EQ(anti->stats.tuple_copies, out);  // each kept X row, once
  EXPECT_EQ(anti->stats.rows_sorted, 0u);
}

// The payroll report's q2 shape: the key pairs a department column and a
// function image (with_raise(s)) with UNDER. Large enough that four
// threads run the partitioned build and the morsel-parallel probe.
TEST_F(AntiJoinTest, PayrollQ2ShapeWithFunctionKey) {
  registry_.Register("with_raise", 1, [](std::span<const Value> a) {
    return Value::Int(a[0].AsInt() * 110 / 100);
  });
  ASSERT_TRUE(db_.AddRelation("EMP", 3).ok());
  ASSERT_TRUE(db_.AddRelation("UNDER", 2).ok());
  std::set<std::pair<int64_t, int64_t>> under;
  for (int64_t d = 0; d < 10; ++d) {
    for (int64_t step = 0; step < 40; step += 1 + d % 3) {
      int64_t r = (300 + step * 10) * 110 / 100;
      under.insert({d, r});
      ASSERT_TRUE(db_.Insert("UNDER", {Value::Int(d), Value::Int(r)}).ok());
    }
  }
  uint64_t kept = 0;
  for (int64_t e = 0; e < 6000; ++e) {
    int64_t d = e % 10, s = 300 + (e * 7 % 40) * 10;
    ASSERT_TRUE(db_.Insert("EMP", {Value::Int(e), Value::Int(d),
                                   Value::Int(s)})
                    .ok());
    if (!under.count({d, s * 110 / 100})) ++kept;
  }
  auto q = ParseQuery(ctx_,
                      "{e | exists d, s, r (EMP(e, d, s) and "
                      "with_raise(s) = r and not UNDER(d, r))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto t = TranslateQuery(ctx_, *q);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const Relation want = Oracle(ctx_, *q, db_, registry_);
  EXPECT_EQ(want.size(), kept);
  for (size_t threads : {1u, 4u}) {
    ExecProfile profile = RunChecked(t->plan, want, threads);
    const ExecProfile* anti = OnlyAntiJoin(profile);
    ExpectAntiStats(anti, Size("EMP"), Size("UNDER"), kept);
    if (anti == nullptr) continue;
    EXPECT_EQ(anti->detail, "keys=2");
    EXPECT_EQ(anti->stats.function_calls, 0u);  // with_raise runs in X
  }
}

// Several build rows share each key: a probe row is dropped once however
// many rows match it, and kept rows are never duplicated.
TEST_F(AntiJoinTest, DuplicateBuildKeys) {
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(db_.Insert("R", {Value::Int(i), Value::Int(i % 6)}).ok());
  }
  for (int64_t k = 0; k < 3; ++k) {
    for (int64_t v = 0; v < 5; ++v) {
      ASSERT_TRUE(db_.Insert("S", {Value::Int(k), Value::Int(v)}).ok());
    }
  }
  const AlgExpr* plan =
      AntiJoin(factory_.Rel("R", 2), factory_.Rel("S", 2), {Eq(1, 2)});
  const Relation want =
      RowsOf("R", [](TupleRef row) { return row[1].AsInt() >= 3; });
  ExpectAntiStats(OnlyAntiJoin(RunChecked(plan, want)), 30, 15, 15);
}

TEST_F(AntiJoinTest, StringKeys) {
  const char* names[] = {"ada", "bob", "cyd", "dee", "eve"};
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.Insert("R", {Value::Int(i), Value::Str(names[i])}).ok());
  }
  ASSERT_TRUE(db_.Insert("S", {Value::Str("bob")}).ok());
  ASSERT_TRUE(db_.Insert("S", {Value::Str("eve")}).ok());
  ASSERT_TRUE(db_.Insert("S", {Value::Str("zed")}).ok());
  const AlgExpr* plan =
      AntiJoin(factory_.Rel("R", 2), factory_.Rel("S", 1), {Eq(1, 2)});
  const Relation want = Rows(2, {{I(0), Value::Str("ada")},
                                 {I(2), Value::Str("cyd")},
                                 {I(3), Value::Str("dee")}});
  ExpectAntiStats(OnlyAntiJoin(RunChecked(plan, want)), 5, 3, 3);
}

// An empty build side subtracts nothing: the answer is X itself, shared
// when X is borrowed from a Scan and moved when X is owned. No table is
// built and no probe runs, so build_rows and hash_probes stay 0.
TEST_F(AntiJoinTest, EmptyBuildSideReturnsX) {
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_.Insert("R", {Value::Int(i), Value::Int(i % 2)}).ok());
  }
  ASSERT_TRUE(db_.AddRelation("S", 1).ok());
  const AlgExpr* borrowed =
      AntiJoin(factory_.Rel("R", 2), factory_.Rel("S", 1), {Eq(1, 2)});
  const AlgExpr* owned = AntiJoin(
      factory_.Select({{Col(0), AlgCompareOp::kNe, Col(1)}},
                      factory_.Rel("R", 2)),
      factory_.Rel("S", 1), {Eq(1, 2)});
  for (const AlgExpr* plan : {borrowed, owned}) {
    ExecProfile profile = RunChecked(
        plan, plan == borrowed ? RowsOf("R", [](TupleRef) { return true; })
                               : Rows(2, {{I(2), I(0)}, {I(3), I(1)}}));
    const ExecProfile* anti = OnlyAntiJoin(profile);
    ASSERT_NE(anti, nullptr);
    const uint64_t x = plan == borrowed ? 4 : 2;
    EXPECT_EQ(anti->stats.rows_in, x);
    EXPECT_EQ(anti->stats.rows_out, x);
    EXPECT_EQ(anti->stats.build_rows, 0u);
    EXPECT_EQ(anti->stats.hash_probes, 0u);
    EXPECT_EQ(anti->stats.tuple_copies, 0u);
    EXPECT_EQ(anti->stats.rows_sorted, 0u);

    auto physical = Lower(ctx_, plan, registry_);
    ASSERT_TRUE(physical.ok());
    uint64_t copies = Relation::TuplesCopied();
    auto result = physical->Execute(db_);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Relation::TuplesCopied(), copies);
    if (plan == borrowed) {
      EXPECT_EQ(result->relation.get(), db_.Find("R"));
      EXPECT_EQ(result->owned, nullptr);
    } else {
      EXPECT_NE(result->owned, nullptr);
      EXPECT_EQ(result->relation.get(), result->owned.get());
    }
  }
}

// An empty probe side: nothing to keep, so neither the table nor a probe
// is built or run.
TEST_F(AntiJoinTest, EmptyProbeSide) {
  ASSERT_TRUE(db_.AddRelation("R", 2).ok());
  ASSERT_TRUE(db_.Insert("S", {Value::Int(1)}).ok());
  ASSERT_TRUE(db_.Insert("S", {Value::Int(2)}).ok());
  const AlgExpr* plan =
      AntiJoin(factory_.Rel("R", 2), factory_.Rel("S", 1), {Eq(0, 2)});
  ExecProfile profile = RunChecked(plan, Rows(2, {}));
  const ExecProfile* anti = OnlyAntiJoin(profile);
  ASSERT_NE(anti, nullptr);
  EXPECT_EQ(anti->stats.rows_in, 2u);
  EXPECT_EQ(anti->stats.rows_out, 0u);
  EXPECT_EQ(anti->stats.build_rows, 0u);
  EXPECT_EQ(anti->stats.hash_probes, 0u);
  EXPECT_EQ(anti->stats.rows_sorted, 0u);
}

// A parameter in a key: the plan is lowered once and each run binds the
// key's value.
TEST(AntiJoinParamTest, ParameterizedKey) {
  Compiler compiler;
  Database db;
  ASSERT_TRUE(db.AddRelation("EMP", 2).ok());
  ASSERT_TRUE(db.AddRelation("UNDER", 2).ok());
  for (int64_t e = 0; e < 12; ++e) {
    ASSERT_TRUE(db.Insert("EMP", {Value::Int(e), Value::Int(e % 4)}).ok());
  }
  for (int64_t d = 0; d < 4; ++d) {
    for (int64_t cap = 0; cap <= d; ++cap) {
      ASSERT_TRUE(db.Insert("UNDER", {Value::Int(d), Value::Int(cap)}).ok());
    }
  }
  auto q = compiler.CompileParameterized(
      "{e | exists d (EMP(e, d) and not UNDER(d, cap))}", {"cap"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  for (int64_t cap = 0; cap < 5; ++cap) {
    ExecProfile profile;
    auto answer = q->Run(db, {Value::Int(cap)}, &profile);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    // UNDER(d, cap) holds exactly for d >= cap.
    uint64_t kept = 0;
    for (int64_t e = 0; e < 12; ++e) {
      const bool in = e % 4 < cap;
      EXPECT_EQ(answer->Contains({Value::Int(e)}), in) << e << " " << cap;
      kept += in ? 1 : 0;
    }
    const ExecProfile* anti = OnlyAntiJoin(profile);
    ASSERT_NE(anti, nullptr);
    ASSERT_EQ(anti->children.size(), 2u);
    const uint64_t x = anti->children[0].stats.rows_out;
    EXPECT_EQ(x, 12u);
    ExpectAntiStats(anti, x, anti->children[1].stats.rows_out, kept);
  }
}

// A memory ceiling that the build fits under but the probe's output does
// not: the governor trips at the probe's first morsel boundary, after the
// build, before any probe.
TEST_F(AntiJoinTest, MemoryLimitTripsInsideTheProbe) {
  for (int64_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(db_.Insert("R", {Value::Int(i), Value::Int(i)}).ok());
  }
  ASSERT_TRUE(db_.Insert("S", {Value::Int(7)}).ok());
  const AlgExpr* plan =
      AntiJoin(factory_.Rel("R", 2), factory_.Rel("S", 1), {Eq(1, 2)});
  ExecOptions options;
  options.num_threads = 1;
  options.limits.max_bytes = 100'000;  // the output alone reserves 160 kB
  auto physical = Lower(ctx_, plan, registry_, options);
  ASSERT_TRUE(physical.ok());
  ExecProfile profile;
  auto result = physical->Execute(db_, &profile);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("max_bytes"), std::string::npos)
      << result.status().ToString();
  std::vector<const ExecProfile*> anti;
  CollectOps(profile, PhysOpKind::kDiffAnti, &anti);
  ASSERT_EQ(anti.size(), 1u);
  EXPECT_EQ(anti[0]->stats.build_rows, 1u) << ExecProfileToString(profile);
  EXPECT_EQ(anti[0]->stats.hash_probes, 0u);
  EXPECT_EQ(anti[0]->stats.rows_out, 0u);
}

// Shapes that must not fold lower exactly as before: a HashJoin (or
// nested-loop join) and the merge form of DiffAnti, with each operator's
// rows counted once.
TEST_F(AntiJoinTest, UnfoldableShapesKeepTheMergeForm) {
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(db_.Insert("R", {Value::Int(i), Value::Int(i % 3)}).ok());
  }
  ASSERT_TRUE(db_.Insert("S", {Value::Int(1)}).ok());
  const AlgExpr* r = factory_.Rel("R", 2);
  const AlgExpr* s = factory_.Rel("S", 1);
  // The projected join has a second consumer.
  const AlgExpr* shared_proj =
      factory_.Project({Col(0), Col(1)}, factory_.Join({Eq(1, 2)}, r, s));
  // The join has a second consumer.
  const AlgExpr* shared_join = factory_.Join({Eq(1, 2)}, r, s);
  // R = {(0,0), (1,1), (2,2), (3,0), (4,1), (5,2)} and S = {1}: the join
  // on @1 = @2 matches (1,1) and (4,1).
  const Relation all = RowsOf("R", [](TupleRef) { return true; });
  auto all_but = [&](int64_t x) {
    return RowsOf("R", [x](TupleRef row) { return row[0].AsInt() != x; });
  };
  struct Case {
    const AlgExpr* plan;
    Relation want;
    uint64_t rows_in, rows_out;
  };
  const Case cases[] = {
      {factory_.Union(factory_.Diff(r, shared_proj), shared_proj), all,
       30, 21},
      {factory_.Union(
           factory_.Diff(r, factory_.Project({Col(0), Col(1)}, shared_join)),
           factory_.Project({Col(0), Col(1)}, shared_join)),
       all, 32, 23},
      // A residual (non-key) condition.
      {AntiJoin(r, s, {Eq(1, 2), {Col(0), AlgCompareOp::kLt, Col(2)}}), all,
       20, 13},
      // No condition at all.
      {AntiJoin(r, s, {}), Rows(2, {}), 32, 19},
      // A projection other than @1..@n.
      {factory_.Diff(r, factory_.Project({Col(1), Col(0)},
                                         factory_.Join({Eq(1, 2)}, r, s))),
       all_but(1), 24, 16},
      // The join's left input is not the difference's left input.
      {factory_.Diff(
           r, factory_.Project(
                  {Col(0), Col(1)},
                  factory_.Join(
                      {Eq(1, 2)},
                      factory_.Select({{Col(0), AlgCompareOp::kNe, Col(1)}},
                                      r),
                      s))),
       all_but(4), 25, 17},
  };
  for (const Case& c : cases) {
    const std::string text = AlgExprToString(ctx_, c.plan);
    ExecProfile profile = RunChecked(c.plan, c.want);
    std::vector<const ExecProfile*> anti, joins, nl_joins;
    CollectOps(profile, PhysOpKind::kDiffAnti, &anti);
    CollectOps(profile, PhysOpKind::kHashJoin, &joins);
    CollectOps(profile, PhysOpKind::kNestedLoopJoin, &nl_joins);
    ASSERT_EQ(anti.size(), 1u) << text;
    EXPECT_EQ(anti[0]->detail, "") << text;
    EXPECT_EQ(joins.size() + nl_joins.size(), 1u) << text;
    const ExecTotals totals = SumProfile(profile);
    EXPECT_EQ(totals.rows_in, c.rows_in) << text;
    EXPECT_EQ(totals.rows_out, c.rows_out) << text;
  }
}

}  // namespace
}  // namespace emcalc
