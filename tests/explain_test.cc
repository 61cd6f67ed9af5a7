// Tests for the ExplainQuery reporting API.
#include <gtest/gtest.h>

#include "src/core/compiler.h"
#include "src/core/explain.h"
#include "src/storage/interpretation.h"

namespace emcalc {
namespace {

TEST(ExplainTest, SafeQueryFullReport) {
  AstContext ctx;
  auto e = ExplainQuery(ctx, "{x, y, z | R(x, y, z) and not S(y, z)}");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_TRUE(e->em_allowed);
  EXPECT_TRUE(e->gt91_allowed);
  EXPECT_TRUE(e->range_restricted);
  EXPECT_TRUE(e->top91_safe);
  EXPECT_EQ(e->application_count, 0);
  EXPECT_EQ(e->plan_text,
            "(R - project([@1,@2,@3], join({@2==@4,@3==@5}, R, S)))");
  EXPECT_GT(e->plan_nodes, 0);
  EXPECT_GE(e->raw_plan_nodes, e->plan_nodes);
  std::string report = e->ToString();
  EXPECT_NE(report.find("em-allowed:        yes"), std::string::npos);
  EXPECT_NE(report.find("plan tree:"), std::string::npos);
}

// EXPLAIN ANALYZE goes through the compiler's one run path.
TEST(ExplainTest, ExplainAnalyzeIncludesExecutionProfile) {
  Compiler compiler;
  Database db;
  ASSERT_TRUE(db.Insert("R", {Value::Int(1), Value::Int(2),
                              Value::Int(3)}).ok());
  ASSERT_TRUE(db.Insert("S", {Value::Int(2), Value::Int(3)}).ok());
  auto q = compiler.Compile("{x, y, z | R(x, y, z) and not S(y, z)}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto report = q->ExplainAnalyze(db);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The single R row matches S.
  EXPECT_NE(report->find("answer rows: 0\n"), std::string::npos) << *report;
  EXPECT_NE(report->find("rows_in="), std::string::npos) << *report;
  EXPECT_NE(report->find("rows_out="), std::string::npos) << *report;
  EXPECT_NE(report->find("time="), std::string::npos) << *report;
  // Rejected queries never reach execution.
  auto rejected = compiler.Compile("{x | not R3(x)}");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotSafe);
}

TEST(ExplainTest, UnsafeQueryCarriesReason) {
  AstContext ctx;
  auto e = ExplainQuery(ctx, "{x | not R(x)}");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e->em_allowed);
  EXPECT_NE(e->rejection_reason.find("not em-allowed"), std::string::npos);
  EXPECT_TRUE(e->plan_text.empty());
  std::string report = e->ToString();
  EXPECT_NE(report.find("em-allowed:        no"), std::string::npos);
}

TEST(ExplainTest, FunctionMeasuresReported) {
  AstContext ctx;
  auto e = ExplainQuery(ctx, "{y | exists x (R(x) and y = g(f(x)))}");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->application_count, 2);
  EXPECT_EQ(e->max_function_depth, 2);
  EXPECT_FALSE(e->gt91_allowed);  // function-free criterion
  EXPECT_EQ(e->plan_text, "project([g(f(@1))], R)");
}

TEST(ExplainTest, ErrorsSurfaceForBadInput) {
  AstContext ctx;
  EXPECT_FALSE(ExplainQuery(ctx, "{x | R(x").ok());
  EXPECT_FALSE(ExplainQuery(ctx, "{x | R(x) and R(x, x)}").ok());
}

TEST(ExplainTest, HonorsTranslateOptions) {
  AstContext ctx;
  TranslateOptions no_t10;
  no_t10.enable_t10 = false;
  const char* q4 =
      "{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
      "((h(x) != y and k(x) != y) or P(x, y)))}";
  auto with = ExplainQuery(ctx, q4);
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(with->em_allowed);
  auto without = ExplainQuery(ctx, q4, no_t10);
  ASSERT_TRUE(without.ok());
  // em-allowed holds, but the GT91-only pipeline cannot produce a plan —
  // reported as a rejection with the RANF failure as the reason.
  EXPECT_FALSE(without->em_allowed);
  EXPECT_NE(without->rejection_reason.find("stuck"), std::string::npos);
}

}  // namespace
}  // namespace emcalc
