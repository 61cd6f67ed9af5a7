// Tests for the public facade (emcalc::Compiler / CompiledQuery) and the
// workload generators.
#include <gtest/gtest.h>

#include "src/core/compiler.h"
#include "src/core/workload.h"

namespace emcalc {
namespace {

TEST(CompilerTest, CompileAndRun) {
  Compiler compiler;
  Database db;
  ASSERT_TRUE(db.Insert("R", {Value::Int(1)}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int(2)}).ok());
  ASSERT_TRUE(db.Insert("S", {Value::Int(3)}).ok());
  auto q = compiler.Compile("{x, y | R(x) and succ(x) = y and not S(y)}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto answer = q->Run(db);
  ASSERT_TRUE(answer.ok());
  Relation expected(2);
  expected.Insert({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(*answer, expected);
}

TEST(CompilerTest, ParseErrorsSurface) {
  Compiler compiler;
  auto q = compiler.Compile("{x | R(x");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompilerTest, UnsafeQueriesReportReason) {
  Compiler compiler;
  auto q = compiler.Compile("{x | not R(x)}");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotSafe);
  EXPECT_NE(q.status().message().find("em-allowed"), std::string::npos);
}

TEST(CompilerTest, PlanStringsAreReadable) {
  Compiler compiler;
  auto q = compiler.Compile("{x, y, z | R(x, y, z) and not S(y, z)}");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->PlanString(),
            "(R - project([@1,@2,@3], join({@2==@4,@3==@5}, R, S)))");
  EXPECT_NE(q->PlanTreeString().find("difference"), std::string::npos);
  EXPECT_EQ(q->QueryString(), "{x, y, z | R(x, y, z) and not S(y, z)}");
}

TEST(CompilerTest, CustomFunctions) {
  FunctionRegistry reg;
  reg.Register("tax", 1, [](std::span<const Value> a) {
    return Value::Int(a[0].AsInt() * 30 / 100);
  });
  Compiler compiler(std::move(reg));
  Database db;
  ASSERT_TRUE(db.Insert("SAL", {Value::Int(1000)}).ok());
  auto q = compiler.Compile("{t | exists s (SAL(s) and t = tax(s))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto answer = q->Run(db);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), 1u);
  EXPECT_TRUE(answer->Contains({Value::Int(300)}));
}

TEST(CompilerTest, UnknownFunctionFailsAtRun) {
  Compiler compiler;  // builtins only; 'mystery' is not among them
  Database db;
  ASSERT_TRUE(db.Insert("R", {Value::Int(1)}).ok());
  auto q = compiler.Compile("{x, y | R(x) and mystery(x) = y}");
  ASSERT_TRUE(q.ok());  // compiles: safety is purely syntactic
  auto answer = q->Run(db);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kNotFound);
}

TEST(CompilerTest, StatsPlumbThrough) {
  Compiler compiler;
  Database db;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("R", {Value::Int(i)}).ok());
  }
  auto q = compiler.Compile("{x, y | R(x) and succ(x) = y}");
  ASSERT_TRUE(q.ok());
  ExecProfile profile;
  ASSERT_TRUE(q->Run(db, &profile).ok());
  ExecTotals totals = SumProfile(profile);
  EXPECT_GT(totals.rows_out, 0u);
  EXPECT_EQ(totals.function_calls, 10u);
}

TEST(CompilerTest, ManyQueriesShareOneContext) {
  Compiler compiler;
  Database db;
  ASSERT_TRUE(db.Insert("R", {Value::Int(1)}).ok());
  std::vector<CompiledQuery> queries;
  for (int i = 0; i < 20; ++i) {
    auto q = compiler.Compile("{x | R(x) and x != " + std::to_string(i) +
                              "}");
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(q).value());
  }
  for (int i = 0; i < 20; ++i) {
    auto answer = queries[i].Run(db);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->size(), i == 1 ? 0u : 1u);
  }
}

TEST(WorkloadTest, RandomDatabaseShapes) {
  Database db = RandomDatabase({{"A", 2}, {"C", 1}}, 50, 10, 42);
  ASSERT_NE(db.Find("A"), nullptr);
  ASSERT_NE(db.Find("C"), nullptr);
  EXPECT_EQ(db.Find("A")->arity(), 2);
  EXPECT_LE(db.Find("A")->size(), 50u);  // dedup may shrink
  EXPECT_GT(db.Find("A")->size(), 10u);
}

TEST(WorkloadTest, DeterministicForSeed) {
  Database a = RandomDatabase({{"A", 2}}, 30, 8, 7);
  Database b = RandomDatabase({{"A", 2}}, 30, 8, 7);
  EXPECT_EQ(*a.Find("A"), *b.Find("A"));
}

TEST(WorkloadTest, Q6InstanceSchema) {
  Database db = MakeQ6Instance(100, 50, 20, 1);
  EXPECT_EQ(db.Find("R")->arity(), 3);
  EXPECT_EQ(db.Find("S")->arity(), 2);
}

TEST(WorkloadTest, PayrollInstanceSchema) {
  Database db = MakePayrollInstance(100, 5, 3);
  EXPECT_EQ(db.Find("EMP")->arity(), 3);
  EXPECT_EQ(db.Find("EMP")->size(), 100u);
  EXPECT_EQ(db.Find("DEPT")->size(), 5u);
  EXPECT_GE(db.Find("BONUS")->size(), 1u);
}

TEST(WorkloadTest, StringShareProducesStrings) {
  Database db;
  AddRandomTuples(db, "M", 1, 200, 10, 9, /*string_share=*/1.0);
  for (TupleRef t : *db.Find("M")) {
    EXPECT_TRUE(t[0].is_str());
  }
}

}  // namespace
}  // namespace emcalc
