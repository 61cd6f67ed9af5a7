// Tests for the extended algebra: expression trees, plan construction,
// printing in the paper's syntax, evaluation of every operator, and the
// plan simplifier.
#include <gtest/gtest.h>

#include "src/algebra/ast.h"
#include "src/algebra/eval.h"
#include "src/algebra/optimizer.h"
#include "src/algebra/printer.h"
#include "src/storage/interpretation.h"

namespace emcalc {
namespace {

class AlgebraTest : public ::testing::Test {
 protected:
  AlgebraTest() : factory_(ctx_), registry_(BuiltinFunctions()) {
    // R = {(1,10), (2,20), (3,30)}; S = {(10), (99)}.
    EXPECT_TRUE(db_.AddRelation("R", 2).ok());
    for (int i = 1; i <= 3; ++i) {
      EXPECT_TRUE(
          db_.Insert("R", {Value::Int(i), Value::Int(10 * i)}).ok());
    }
    EXPECT_TRUE(db_.Insert("S", {Value::Int(10)}).ok());
    EXPECT_TRUE(db_.Insert("S", {Value::Int(99)}).ok());
  }

  Relation Run(const AlgExpr* plan) {
    auto r = EvaluateAlgebra(ctx_, plan, db_, registry_, &stats_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : Relation(plan->arity());
  }

  AstContext ctx_;
  AlgebraFactory factory_;
  FunctionRegistry registry_;
  Database db_;
  ExecTotals stats_;
};

TEST_F(AlgebraTest, ScanAndPrint) {
  const AlgExpr* r = factory_.Rel("R", 2);
  EXPECT_EQ(AlgExprToString(ctx_, r), "R");
  EXPECT_EQ(Run(r).size(), 3u);
}

TEST_F(AlgebraTest, ExtendedProjectionAppliesFunctions) {
  // project([@1, succ(@2)], R) — the paper's point-wise function
  // application.
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Project(
      {e.Col(0),
       e.Apply(ctx_.symbols().Intern("succ"), std::vector<const ScalarExpr*>{
                                                  e.Col(1)})},
      factory_.Rel("R", 2));
  EXPECT_EQ(AlgExprToString(ctx_, plan), "project([@1,succ(@2)], R)");
  Relation out = Run(plan);
  EXPECT_TRUE(out.Contains({Value::Int(1), Value::Int(11)}));
  EXPECT_TRUE(out.Contains({Value::Int(3), Value::Int(31)}));
  EXPECT_GT(stats_.function_calls, 0u);
}

TEST_F(AlgebraTest, ProjectionDeduplicates) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Project(
      {e.ConstValue(Value::Int(7))}, factory_.Rel("R", 2));
  EXPECT_EQ(Run(plan).size(), 1u);
}

TEST_F(AlgebraTest, SelectEqualAndNotEqual) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* eq = factory_.Select(
      {{e.Col(0), AlgCompareOp::kEq, e.ConstValue(Value::Int(2))}}, factory_.Rel("R", 2));
  EXPECT_EQ(Run(eq).size(), 1u);
  const AlgExpr* ne = factory_.Select(
      {{e.Col(0), AlgCompareOp::kNe, e.ConstValue(Value::Int(2))}}, factory_.Rel("R", 2));
  EXPECT_EQ(Run(ne).size(), 2u);
}

TEST_F(AlgebraTest, SelectWithFunctionCondition) {
  // select({times(@1,10) == @2}, R) keeps every R tuple.
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Select(
      {{e.Apply(ctx_.symbols().Intern("times"),
                std::vector<const ScalarExpr*>{
                    e.Col(0), e.ConstValue(Value::Int(10))}),
        AlgCompareOp::kEq, e.Col(1)}},
      factory_.Rel("R", 2));
  EXPECT_EQ(Run(plan).size(), 3u);
}

TEST_F(AlgebraTest, HashJoinOnColumns) {
  ExprFactory& e = factory_.exprs();
  // join({@2==@3}, R, S): R tuples whose second column appears in S.
  const AlgExpr* plan = factory_.Join({{e.Col(1), AlgCompareOp::kEq, e.Col(2)}},
                                      factory_.Rel("R", 2),
                                      factory_.Rel("S", 1));
  Relation out = Run(plan);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains({Value::Int(1), Value::Int(10), Value::Int(10)}));
  EXPECT_EQ(AlgExprToString(ctx_, plan), "join({@2==@3}, R, S)");
}

TEST_F(AlgebraTest, NestedLoopJoinWithResidual) {
  ExprFactory& e = factory_.exprs();
  // Non-equi condition forces the nested-loop path.
  const AlgExpr* plan = factory_.Join({{e.Col(1), AlgCompareOp::kNe, e.Col(2)}},
                                      factory_.Rel("R", 2),
                                      factory_.Rel("S", 1));
  EXPECT_EQ(Run(plan).size(), 5u);  // 3*2 - 1 matching pair
}

TEST_F(AlgebraTest, JoinWithComputedKey) {
  ExprFactory& e = factory_.exprs();
  // join({times(@1,10)==@3}, R, S): hashable computed key on the left.
  const AlgExpr* plan = factory_.Join(
      {{e.Apply(ctx_.symbols().Intern("times"),
                std::vector<const ScalarExpr*>{
                    e.Col(0), e.ConstValue(Value::Int(10))}),
        AlgCompareOp::kEq, e.Col(2)}},
      factory_.Rel("R", 2), factory_.Rel("S", 1));
  EXPECT_EQ(Run(plan).size(), 1u);
}

TEST_F(AlgebraTest, ProductIsJoinWithNoConditions) {
  const AlgExpr* plan =
      factory_.Join({}, factory_.Rel("R", 2), factory_.Rel("S", 1));
  EXPECT_EQ(Run(plan).size(), 6u);
  EXPECT_EQ(plan->arity(), 3);
}

TEST_F(AlgebraTest, UnionAndDifference) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* first = factory_.Project({e.Col(0)}, factory_.Rel("R", 2));
  const AlgExpr* second = factory_.Rel("S", 1);
  EXPECT_EQ(Run(factory_.Union(first, second)).size(), 5u);
  Relation diff = Run(factory_.Diff(second, first));
  EXPECT_EQ(diff.size(), 2u);  // S values 10 and 99 not in {1,2,3}
}

TEST_F(AlgebraTest, UnitAndEmpty) {
  Relation unit = Run(factory_.Unit());
  EXPECT_EQ(unit.arity(), 0);
  EXPECT_EQ(unit.size(), 1u);
  Relation empty = Run(factory_.Empty(2));
  EXPECT_EQ(empty.arity(), 2);
  EXPECT_TRUE(empty.empty());
}

TEST_F(AlgebraTest, AdomComputesTermClosure) {
  const AlgExpr* adom = factory_.Adom(
      1, {ctx_.symbols().Intern("succ")}, {ctx_.InternConstant(
                                              Value::Int(500))});
  Relation out = Run(adom);
  // Base: {1,2,3,10,20,30,99,500} plus succ of each; succ(1)=2 and
  // succ(2)=3 already belong to the base, so 8 + 6 new values.
  EXPECT_EQ(out.size(), 14u);
  EXPECT_TRUE(out.Contains({Value::Int(501)}));
  EXPECT_TRUE(out.Contains({Value::Int(11)}));
}

TEST_F(AlgebraTest, ValidationRejectsUnknownNames) {
  const AlgExpr* bad_rel = factory_.Rel("NOPE", 1);
  EXPECT_FALSE(EvaluateAlgebra(ctx_, bad_rel, db_, registry_).ok());
  ExprFactory& e = factory_.exprs();
  const AlgExpr* bad_fn = factory_.Project(
      {e.Apply(ctx_.symbols().Intern("mystery"),
               std::vector<const ScalarExpr*>{e.Col(0)})},
      factory_.Rel("S", 1));
  EXPECT_FALSE(EvaluateAlgebra(ctx_, bad_fn, db_, registry_).ok());
  const AlgExpr* bad_arity = factory_.Rel("R", 3);
  EXPECT_FALSE(EvaluateAlgebra(ctx_, bad_arity, db_, registry_).ok());
}

TEST_F(AlgebraTest, RemapColumns) {
  ExprFactory& e = factory_.exprs();
  const ScalarExpr* expr = e.Apply(
      ctx_.symbols().Intern("plus"),
      std::vector<const ScalarExpr*>{e.Col(0), e.Col(2)});
  int map[] = {2, 1, 0};
  const ScalarExpr* remapped = e.RemapColumns(expr, map);
  EXPECT_EQ(ScalarExprToString(ctx_, remapped), "plus(@3,@1)");
  EXPECT_EQ(ExprFactory::MaxColumn(remapped), 2);
}

// --- optimizer ---

TEST_F(AlgebraTest, OptimizerDropsIdentityProject) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* r = factory_.Rel("R", 2);
  const AlgExpr* plan = factory_.Project({e.Col(0), e.Col(1)}, r);
  EXPECT_EQ(OptimizePlan(factory_, plan), r);
}

TEST_F(AlgebraTest, OptimizerComposesProjections) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* inner = factory_.Project(
      {e.Col(1), e.Col(0)}, factory_.Rel("R", 2));
  const AlgExpr* outer = factory_.Project({e.Col(1)}, inner);
  const AlgExpr* opt = OptimizePlan(factory_, outer);
  EXPECT_EQ(AlgExprToString(ctx_, opt), "project([@1], R)");
  EXPECT_EQ(Run(opt), Run(outer));
}

TEST_F(AlgebraTest, OptimizerEliminatesUnitJoin) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* join = factory_.Join(
      {{e.Col(0), AlgCompareOp::kEq, e.ConstValue(Value::Int(10))}}, factory_.Unit(),
      factory_.Rel("S", 1));
  const AlgExpr* opt = OptimizePlan(factory_, join);
  EXPECT_EQ(AlgExprToString(ctx_, opt), "select({@1==10}, S)");
  EXPECT_EQ(Run(opt), Run(join));
}

TEST_F(AlgebraTest, OptimizerPropagatesEmpty) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Project(
      {e.Col(0)},
      factory_.Join({}, factory_.Empty(1), factory_.Rel("S", 1)));
  const AlgExpr* opt = OptimizePlan(factory_, plan);
  EXPECT_EQ(opt->kind(), AlgKind::kEmpty);
  const AlgExpr* u = factory_.Union(factory_.Empty(1), factory_.Rel("S", 1));
  EXPECT_EQ(AlgExprToString(ctx_, OptimizePlan(factory_, u)), "S");
  const AlgExpr* d = factory_.Diff(factory_.Rel("S", 1), factory_.Empty(1));
  EXPECT_EQ(AlgExprToString(ctx_, OptimizePlan(factory_, d)), "S");
}

TEST_F(AlgebraTest, OptimizerMergesSelects) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Select(
      {{e.Col(0), AlgCompareOp::kNe, e.ConstValue(Value::Int(1))}},
      factory_.Select({{e.Col(1), AlgCompareOp::kEq, e.ConstValue(Value::Int(20))}},
                      factory_.Rel("R", 2)));
  const AlgExpr* opt = OptimizePlan(factory_, plan);
  EXPECT_EQ(opt->kind(), AlgKind::kSelect);
  EXPECT_EQ(opt->conds().size(), 2u);
  EXPECT_EQ(Run(opt), Run(plan));
}

TEST_F(AlgebraTest, TreePrinterShowsStructure) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* plan = factory_.Diff(
      factory_.Rel("S", 1), factory_.Project({e.Col(0)},
                                             factory_.Rel("R", 2)));
  std::string tree = AlgExprToTreeString(ctx_, plan);
  EXPECT_NE(tree.find("difference"), std::string::npos);
  EXPECT_NE(tree.find("  project"), std::string::npos);
}

TEST_F(AlgebraTest, OptimizerFoldsSelectIntoJoin) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* join =
      factory_.Join({}, factory_.Rel("R", 2), factory_.Rel("S", 1));
  const AlgExpr* plan = factory_.Select(
      {{e.Col(1), AlgCompareOp::kEq, e.Col(2)}}, join);
  const AlgExpr* opt = OptimizePlan(factory_, plan);
  ASSERT_EQ(opt->kind(), AlgKind::kJoin);
  EXPECT_EQ(opt->conds().size(), 1u);  // now a hash-join key
  EXPECT_EQ(Run(opt), Run(plan));
}

TEST_F(AlgebraTest, OptimizerPushesSelectThroughProject) {
  ExprFactory& e = factory_.exprs();
  const AlgExpr* proj = factory_.Project(
      {e.Col(1),
       e.Apply(ctx_.symbols().Intern("succ"),
               std::vector<const ScalarExpr*>{e.Col(0)})},
      factory_.Rel("R", 2));
  const AlgExpr* plan = factory_.Select(
      {{e.Col(0), AlgCompareOp::kEq, e.ConstValue(Value::Int(20))}}, proj);
  const AlgExpr* opt = OptimizePlan(factory_, plan);
  // The selection moves below: project([...], select({@2==20}, R)).
  ASSERT_EQ(opt->kind(), AlgKind::kProject);
  EXPECT_EQ(opt->input()->kind(), AlgKind::kSelect);
  EXPECT_EQ(Run(opt), Run(plan));
  ASSERT_EQ(Run(opt).size(), 1u);
}

TEST_F(AlgebraTest, StatsCountWork) {
  ExecTotals stats;
  const AlgExpr* plan =
      factory_.Join({}, factory_.Rel("R", 2), factory_.Rel("S", 1));
  ASSERT_TRUE(EvaluateAlgebra(ctx_, plan, db_, registry_, &stats).ok());
  EXPECT_EQ(stats.rows_out, 3u + 2u + 6u);  // scans + join output
}

}  // namespace
}  // namespace emcalc
