// Tests for CSV import/export and the algebra-plan parser round-trip.
#include <limits>

#include <gtest/gtest.h>

#include "src/algebra/eval.h"
#include "src/algebra/parser.h"
#include "src/algebra/printer.h"
#include "src/calculus/parser.h"
#include "src/storage/csv.h"
#include "src/translate/pipeline.h"

namespace emcalc {
namespace {

TEST(CsvTest, LoadBasics) {
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "R",
                          "1,alice,30\n"
                          "2,bob,-4\n"
                          "# comment line\n"
                          "\n"
                          "3,'42',0\n")
                  .ok());
  const Relation* r = db.Find("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->arity(), 3);
  EXPECT_EQ(r->size(), 3u);
  EXPECT_TRUE(r->Contains({Value::Int(1), Value::Str("alice"),
                           Value::Int(30)}));
  EXPECT_TRUE(r->Contains({Value::Int(2), Value::Str("bob"),
                           Value::Int(-4)}));
  // Quoted '42' stays a string.
  EXPECT_TRUE(r->Contains({Value::Int(3), Value::Str("42"), Value::Int(0)}));
}

TEST(CsvTest, WhitespaceTrimmed) {
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "R", "  7 ,  spaced out  \n").ok());
  EXPECT_TRUE(db.Find("R")->Contains(
      {Value::Int(7), Value::Str("spaced out")}));
}

TEST(CsvTest, IntFieldsAtTheInt64Limits) {
  Database db;
  ASSERT_TRUE(
      LoadCsvText(db, "R", "9223372036854775807,-9223372036854775808,+7\n")
          .ok());
  EXPECT_TRUE(db.Find("R")->Contains(
      {Value::Int(std::numeric_limits<int64_t>::max()),
       Value::Int(std::numeric_limits<int64_t>::min()), Value::Int(7)}));
}

TEST(CsvTest, OutOfRangeIntFieldRejected) {
  for (const char* field : {"9223372036854775808", "-9223372036854775809"}) {
    Database db;
    Status s = LoadCsvText(db, "R",
                           std::string("1,2\n# comment\n3, ") + field + "\n");
    ASSERT_FALSE(s.ok()) << field;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.message();
    EXPECT_NE(s.message().find("out of range"), std::string::npos);
    EXPECT_NE(s.message().find(field), std::string::npos);
  }
}

TEST(CsvTest, ArityMismatchRejected) {
  Database db;
  Status s = LoadCsvText(db, "R", "1,2\n1,2,3\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(CsvTest, ConflictingCatalogAritySurfacesError) {
  // Importing into a pre-declared relation of another arity must produce a
  // status, not a crash (the insert path goes through Relation::TryInsert).
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 3).ok());
  Status s = LoadCsvText(db, "R", "1,2\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, MissingFileRejected) {
  Database db;
  EXPECT_FALSE(LoadCsvFile(db, "R", "/nonexistent/file.csv").ok());
}

TEST(CsvTest, RoundTrip) {
  Database db;
  ASSERT_TRUE(db.Insert("R", {Value::Int(2), Value::Str("x")}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int(1), Value::Str("y")}).ok());
  std::string text = WriteCsvText(*db.Find("R"));
  Database db2;
  ASSERT_TRUE(LoadCsvText(db2, "R", text).ok());
  EXPECT_EQ(*db.Find("R"), *db2.Find("R"));
}

class PlanParseTest : public ::testing::Test {
 protected:
  PlanParseTest() : registry_(BuiltinFunctions()) {
    (void)db_.Insert("R", {Value::Int(1), Value::Int(2), Value::Int(3)});
    (void)db_.Insert("R", {Value::Int(4), Value::Int(5), Value::Int(6)});
    (void)db_.Insert("S", {Value::Int(2), Value::Int(3)});
    arities_ = {{"R", 3}, {"S", 2}};
  }
  AstContext ctx_;
  Database db_;
  FunctionRegistry registry_;
  std::map<std::string, int> arities_;
};

TEST_F(PlanParseTest, ParsesPaperPlan) {
  const char* text =
      "(R - project([@1,@2,@3], join({@2==@4,@3==@5}, R, S)))";
  auto plan = ParseAlgebra(ctx_, text, arities_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(AlgExprToString(ctx_, *plan), text);
  auto answer = EvaluateAlgebra(ctx_, *plan, db_, registry_);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 1u);  // (1,2,3) is filtered out by S(2,3)
}

TEST_F(PlanParseTest, ParsesFunctionsAndLiterals) {
  auto plan = ParseAlgebra(
      ctx_, "select({succ(@1)<=5, @2!='x'}, project([@1,@2], R))", arities_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto answer = EvaluateAlgebra(ctx_, *plan, db_, registry_);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 2u);
}

TEST_F(PlanParseTest, UnitAndEmpty) {
  auto unit = ParseAlgebra(ctx_, "unit", arities_);
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ((*unit)->kind(), AlgKind::kUnit);
  auto empty = ParseAlgebra(ctx_, "empty_3", arities_);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ((*empty)->arity(), 3);
  auto u = ParseAlgebra(ctx_, "(R + empty_3)", arities_);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ((*u)->kind(), AlgKind::kUnion);
}

TEST_F(PlanParseTest, Rejections) {
  EXPECT_FALSE(ParseAlgebra(ctx_, "NOPE", arities_).ok());
  EXPECT_FALSE(ParseAlgebra(ctx_, "project([@9], S)", arities_).ok());
  EXPECT_FALSE(ParseAlgebra(ctx_, "join({@1=@2}, R, S)", arities_).ok());
  EXPECT_FALSE(ParseAlgebra(ctx_, "(R + S)", arities_).ok());  // arity 3 vs 2
  EXPECT_FALSE(ParseAlgebra(ctx_, "R extra", arities_).ok());
  EXPECT_FALSE(ParseAlgebra(ctx_, "adom", arities_).ok());
  EXPECT_FALSE(ParseAlgebra(ctx_, "select({@1==@2}, )", arities_).ok());
  // Integer literals one past either int64 end are rejected, as the
  // calculus parser and the CSV reader reject them, not clamped.
  for (const char* text : {"project([9223372036854775808], R)",
                           "project([-9223372036854775809], R)"}) {
    auto plan = ParseAlgebra(ctx_, text, arities_);
    ASSERT_FALSE(plan.ok()) << text;
    EXPECT_EQ(plan.status().message(), "integer literal out of range")
        << text;
  }
}

// Integer literals at the int64 ends and at the +-2^62 seam between
// inline and pooled ints print and reparse to the same plan and value.
TEST_F(PlanParseTest, IntegerLiteralsRoundTripAtTheBoundaries) {
  constexpr int64_t kSeam = int64_t{1} << 62;
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max(), -kSeam - 1, -kSeam,
                    kSeam - 1, kSeam}) {
    const std::string text = "project([" + std::to_string(v) + "], R)";
    auto plan = ParseAlgebra(ctx_, text, arities_);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    std::string printed = AlgExprToString(ctx_, *plan);
    auto reparsed = ParseAlgebra(ctx_, printed, arities_);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_TRUE(AlgExprsEqual(*plan, *reparsed)) << printed;
    auto answer = EvaluateAlgebra(ctx_, *reparsed, db_, registry_);
    ASSERT_TRUE(answer.ok()) << printed;
    Relation want(1);
    want.Insert({Value::Int(v)});
    EXPECT_EQ(*answer, want) << printed;
  }
}

// Round-trip property over real translator output.
TEST_F(PlanParseTest, TranslatedPlansRoundTrip) {
  const char* corpus[] = {
      "{x, y, z | R(x, y, z) and not S(y, z)}",
      "{x | exists y, z (R(x, y, z) and succ(x) = y)}",
      "{x, y | S(x, y) and x < y}",
      "{x, y | S(x, y) or S(y, x)}",
  };
  for (const char* text : corpus) {
    auto q = ParseQuery(ctx_, text);
    ASSERT_TRUE(q.ok());
    auto t = TranslateQuery(ctx_, *q);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    std::string printed = AlgExprToString(ctx_, t->plan);
    auto reparsed = ParseAlgebra(ctx_, printed, arities_);
    ASSERT_TRUE(reparsed.ok()) << printed << "\n"
                               << reparsed.status().ToString();
    EXPECT_TRUE(AlgExprsEqual(t->plan, *reparsed)) << printed;
    auto a = EvaluateAlgebra(ctx_, t->plan, db_, registry_);
    auto b = EvaluateAlgebra(ctx_, *reparsed, db_, registry_);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << printed;
  }
}

}  // namespace
}  // namespace emcalc
