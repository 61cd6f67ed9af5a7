// Tests for relations, databases, the function registry/builtins, active
// domains, and term closures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/calculus/parser.h"
#include "src/storage/adom.h"
#include "src/storage/database.h"
#include "src/storage/interpretation.h"
#include "src/storage/relation.h"

namespace emcalc {
namespace {

TEST(RelationTest, SetSemantics) {
  Relation r(2);
  r.Insert({Value::Int(1), Value::Int(2)});
  r.Insert({Value::Int(1), Value::Int(2)});
  r.Insert({Value::Int(0), Value::Int(9)});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(r.Contains({Value::Int(2), Value::Int(1)}));
}

TEST(RelationTest, TuplesAreSorted) {
  Relation r(1);
  r.Insert({Value::Int(5)});
  r.Insert({Value::Int(1)});
  r.Insert({Value::Str("a")});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.row(0)[0], Value::Int(1));
  EXPECT_EQ(r.row(2)[0], Value::Str("a"));
}

TEST(RelationTest, UnionAndDifference) {
  Relation a(1), b(1);
  a.Insert({Value::Int(1)});
  a.Insert({Value::Int(2)});
  b.Insert({Value::Int(2)});
  b.Insert({Value::Int(3)});
  Relation u = a.UnionWith(b);
  EXPECT_EQ(u.size(), 3u);
  Relation d = a.DifferenceWith(b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.Contains({Value::Int(1)}));
}

TEST(RelationTest, ZeroArity) {
  Relation t(0);
  EXPECT_TRUE(t.empty());
  t.Insert({});
  t.Insert({});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Contains({}));
}

TEST(RelationTest, TryInsertRejectsArityMismatch) {
  Relation r(2);
  EXPECT_TRUE(r.TryInsert({Value::Int(1), Value::Int(2)}).ok());
  Status s = r.TryInsert({Value::Int(1)});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  Status s3 = r.TryInsert({Value::Int(1), Value::Int(2), Value::Int(3)});
  EXPECT_FALSE(s3.ok());
  // Failed inserts leave the relation unchanged.
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, ReservePreservesContents) {
  Relation r(1);
  r.Insert({Value::Int(1)});
  r.Reserve(1000);
  r.Insert({Value::Int(2)});
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, MoveUnionMatchesCopyUnion) {
  Relation a(1), b(1);
  for (int i = 0; i < 6; ++i) a.Insert({Value::Int(i)});
  for (int i = 4; i < 10; ++i) b.Insert({Value::Int(i)});
  Relation expected = a.UnionWith(b);
  Relation a2 = a;
  uint64_t before = Relation::TuplesCopied();
  Relation moved = std::move(a2).UnionWith(b);
  // Only the right side's tuples are copied into the reused storage.
  EXPECT_EQ(Relation::TuplesCopied() - before, b.size());
  EXPECT_EQ(moved, expected);
}

TEST(RelationTest, MoveDifferenceMatchesCopyDifferenceWithoutCopies) {
  Relation a(1), b(1);
  for (int i = 0; i < 8; ++i) a.Insert({Value::Int(i)});
  for (int i = 0; i < 8; i += 2) b.Insert({Value::Int(i)});
  Relation expected = a.DifferenceWith(b);
  Relation a2 = a;
  uint64_t before = Relation::TuplesCopied();
  Relation moved = std::move(a2).DifferenceWith(b);
  EXPECT_EQ(Relation::TuplesCopied(), before);  // filtered in place
  EXPECT_EQ(moved, expected);
}

TEST(RelationTest, CopyInstrumentationCountsCopies) {
  Relation r(1);
  r.Insert({Value::Int(1)});
  r.Insert({Value::Int(2)});
  EXPECT_EQ(r.size(), 2u);  // normalize before sampling
  uint64_t copies_before = Relation::CopiesMade();
  uint64_t tuples_before = Relation::TuplesCopied();
  Relation c = r;
  EXPECT_EQ(Relation::CopiesMade() - copies_before, 1u);
  EXPECT_EQ(Relation::TuplesCopied() - tuples_before, 2u);
  Relation m = std::move(c);  // moves are free
  EXPECT_EQ(Relation::CopiesMade() - copies_before, 1u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(RelationTest, EqualityIgnoresInsertionOrder) {
  Relation a(1), b(1);
  a.Insert({Value::Int(1)});
  a.Insert({Value::Int(2)});
  b.Insert({Value::Int(2)});
  b.Insert({Value::Int(1)});
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// FlatRelation vs a std::set model: random inputs (mixed ints/strings,
// duplicates, arities 0-3, both operand orders, copy and move variants) are
// pushed through both, and every observable of the relation must equal the
// model's sorted, duplicate-free rows.

using RowModel = std::set<std::vector<Value>>;

Tuple RandomTuple(std::mt19937& rng, int arity) {
  std::uniform_int_distribution<int> v(0, 9);
  std::uniform_int_distribution<int> kind(0, 3);
  Tuple t;
  t.reserve(static_cast<size_t>(arity));
  for (int i = 0; i < arity; ++i) {
    if (kind(rng) == 0) {
      t.push_back(Value::Str(std::string(1, static_cast<char>('a' + v(rng)))));
    } else {
      t.push_back(Value::Int(v(rng)));
    }
  }
  return t;
}

// Size, then every row in order: row(i) must be the model's i-th tuple.
void ExpectMatchesModel(const FlatRelation& rel, const RowModel& model) {
  ASSERT_EQ(rel.size(), model.size());
  size_t row = 0;
  for (const Tuple& t : model) EXPECT_EQ(rel.row(row++).ToTuple(), t);
}

RowModel ModelUnion(RowModel a, const RowModel& b) {
  a.insert(b.begin(), b.end());
  return a;
}

RowModel ModelDifference(RowModel a, const RowModel& b) {
  for (const Tuple& t : b) a.erase(t);
  return a;
}

TEST(FlatVsSetModelTest, RandomInsertsAgree) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    int arity = trial % 4;  // includes arity 0
    FlatRelation flat(arity);
    RowModel model;
    int n = trial % 23;
    for (int i = 0; i < n; ++i) {
      Tuple t = RandomTuple(rng, arity);
      flat.Insert(t);
      model.insert(t);
    }
    ExpectMatchesModel(flat, model);
    // Membership agrees on present tuples and on random probes.
    for (const Tuple& t : model) EXPECT_TRUE(flat.Contains(t));
    for (int i = 0; i < 10; ++i) {
      Tuple probe = RandomTuple(rng, arity);
      EXPECT_EQ(flat.Contains(probe), model.count(probe) == 1);
    }
  }
}

TEST(FlatVsSetModelTest, RandomSetOperationsAgree) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    int arity = trial % 4;
    FlatRelation fa(arity), fb(arity);
    RowModel ma, mb;
    int na = trial % 17;
    int nb = (trial * 7 + 3) % 17;
    for (int i = 0; i < na; ++i) {
      Tuple t = RandomTuple(rng, arity);
      fa.Insert(t);
      ma.insert(t);
    }
    for (int i = 0; i < nb; ++i) {
      Tuple t = RandomTuple(rng, arity);
      fb.Insert(t);
      mb.insert(t);
    }
    ExpectMatchesModel(fa.UnionWith(fb), ModelUnion(ma, mb));
    ExpectMatchesModel(fb.UnionWith(fa), ModelUnion(mb, ma));
    ExpectMatchesModel(fa.DifferenceWith(fb), ModelDifference(ma, mb));
    ExpectMatchesModel(fb.DifferenceWith(fa), ModelDifference(mb, ma));
    // The move-aware variants, which reuse the left operand's storage.
    FlatRelation fa_copy1 = fa;
    ExpectMatchesModel(std::move(fa_copy1).UnionWith(fb), ModelUnion(ma, mb));
    FlatRelation fa_copy2 = fa;
    ExpectMatchesModel(std::move(fa_copy2).DifferenceWith(fb),
                       ModelDifference(ma, mb));
    // Equality is set equality.
    EXPECT_EQ(fa == fb, ma == mb);
  }
}

TEST(FlatRelationTest, AppendAllConcatenatesAndRenormalizes) {
  FlatRelation a(1), b(1);
  a.Insert({Value::Int(3)});
  a.Insert({Value::Int(1)});
  b.Insert({Value::Int(2)});
  b.Insert({Value::Int(1)});
  a.AppendAll(b);
  EXPECT_EQ(a.size(), 3u);  // {1, 2, 3}
  EXPECT_EQ(a.row(0)[0], Value::Int(1));
  EXPECT_EQ(a.row(2)[0], Value::Int(3));
}

// ---------------------------------------------------------------------------
// Normalize against a std::set model. For each input order, row width and
// value mix, the normalized rows must equal the model, and Normalize() must
// report a sort exactly when the input was not already
// non-decreasing. Arities up to 8 take the contiguous row sort, wider ones
// the permutation sort.

// Up to `n` distinct rows in ascending order, each cell drawn from `pool`.
std::vector<Tuple> AscendingRows(const std::vector<Value>& pool, int arity,
                                 size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
  RowModel rows;
  for (int tries = 0; rows.size() < n && tries < 1000; ++tries) {
    Tuple t;
    for (int c = 0; c < arity; ++c) t.push_back(pool[pick(rng)]);
    rows.insert(std::move(t));
  }
  return {rows.begin(), rows.end()};
}

TEST(NormalizeModelTest, MatchesSetModelAndReportsSortedRows) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Inline ints span [-2^62, 2^62); the values either side of both seams
  // are pooled big ints on one side and inline on the other.
  constexpr int64_t kSeam = int64_t{1} << 62;
  const std::vector<Value> ints = {
      Value::Int(kMin),     Value::Int(kMin + 1),  Value::Int(-kSeam - 1),
      Value::Int(-kSeam),   Value::Int(-1),        Value::Int(0),
      Value::Int(1),        Value::Int(kSeam - 1), Value::Int(kSeam),
      Value::Int(kMax - 1), Value::Int(kMax)};
  // Longer than the 8-byte order prefix, so compares fall through to the
  // pooled payload.
  const std::vector<Value> strs = {
      Value::Str("position-title-007"), Value::Str("position-title-070"),
      Value::Str("position-title-07"), Value::Str("position-title-700"),
      Value::Str("position-")};
  // Negative big ints, inline ints, positive big ints and shared-prefix
  // strings interleave in one column.
  std::vector<Value> mixed = ints;
  mixed.insert(mixed.end(), strs.begin(), strs.end());
  const std::pair<const char*, const std::vector<Value>*> pools[] = {
      {"ints", &ints}, {"strings", &strs}, {"mixed", &mixed}};

  struct Order {
    const char* name;
    bool ordered;  // non-decreasing: Normalize must not sort
    std::vector<Tuple> (*make)(const std::vector<Tuple>&);
  };
  const Order orders[] = {
      {"ascending", true, [](const std::vector<Tuple>& asc) { return asc; }},
      {"ascending with adjacent duplicates", true,
       [](const std::vector<Tuple>& asc) {
         std::vector<Tuple> out;
         for (size_t i = 0; i < asc.size(); ++i) {
           out.push_back(asc[i]);
           if (i % 2 == 0) out.push_back(asc[i]);
         }
         return out;
       }},
      {"all equal", true,
       [](const std::vector<Tuple>& asc) {
         return std::vector<Tuple>(asc.size(), asc.front());
       }},
      {"descending", false,
       [](const std::vector<Tuple>& asc) {
         return std::vector<Tuple>(asc.rbegin(), asc.rend());
       }},
      {"sorted except the last row", false,
       [](const std::vector<Tuple>& asc) {
         std::vector<Tuple> out(asc.begin() + 1, asc.end());
         out.push_back(asc.front());
         return out;
       }},
  };

  uint32_t seed = 1;
  for (int arity : {1, 3, 8, 9, 12}) {
    for (const auto& [pool_name, pool] : pools) {
      std::vector<Tuple> asc = AscendingRows(*pool, arity, 40, seed++);
      ASSERT_GE(asc.size(), 3u) << pool_name << " arity " << arity;
      for (const Order& order : orders) {
        SCOPED_TRACE(std::string(order.name) + ", " + pool_name +
                     ", arity " + std::to_string(arity));
        std::vector<Tuple> input = order.make(asc);
        FlatRelation rel(arity);
        for (const Tuple& t : input) rel.Insert(t);
        const size_t sorted = rel.Normalize();
        EXPECT_EQ(sorted, order.ordered ? 0u : input.size());
        RowModel model(input.begin(), input.end());
        std::vector<Tuple> got;
        for (TupleRef t : rel) got.push_back(t.ToTuple());
        EXPECT_EQ(got, std::vector<Tuple>(model.begin(), model.end()));
        EXPECT_EQ(rel.Normalize(), 0u);  // already normalized
      }
    }
  }
}

// Thousands of distinct strings that tie on the 8-byte order prefix (and
// on 15 bytes), shuffled with duplicates: the order-key sort's value table
// must grow many times, and arity 12 takes the permutation path.
TEST(NormalizeModelTest, ManySharedPrefixStringsMatchSetModel) {
  constexpr int kDistinct = 5000;
  std::vector<Value> titles;
  for (int i = 0; i < kDistinct; ++i) {
    titles.push_back(Value::Str("position-title-" + std::to_string(i)));
  }
  const std::vector<Value> ints = {
      Value::Int(std::numeric_limits<int64_t>::min()), Value::Int(-3),
      Value::Int(0), Value::Int(42),
      Value::Int(std::numeric_limits<int64_t>::max())};
  for (int arity : {3, 12}) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    std::mt19937 rng(static_cast<uint32_t>(arity));
    std::vector<Tuple> input;
    for (int r = 0; r < kDistinct + kDistinct / 5; ++r) {
      Tuple t;
      for (int c = 0; c < arity; ++c) {
        if (c == 0) {
          t.push_back(titles[static_cast<size_t>(r % kDistinct)]);
        } else if (c % 3 == 2 && rng() % 2 == 0) {
          t.push_back(titles[rng() % titles.size()]);
        } else {
          t.push_back(ints[rng() % ints.size()]);
        }
      }
      input.push_back(std::move(t));
    }
    for (int r = 0; r < kDistinct / 4; ++r) {
      input.push_back(input[rng() % input.size()]);
    }
    std::shuffle(input.begin(), input.end(), rng);

    FlatRelation rel(arity);
    for (const Tuple& t : input) rel.Insert(t);
    EXPECT_EQ(rel.Normalize(), input.size());
    RowModel model(input.begin(), input.end());
    ExpectMatchesModel(rel, model);
    EXPECT_EQ(rel.Normalize(), 0u);
  }
}

// Packed rows. Normalize packs a row into one word when the columns' key
// ranges (greatest minus least order key) fit 64 bits together, and sorts
// rows of keys otherwise. Each case below sets the columns' ranges on
// purpose: sums of 63, 64 and 65 bits, constant columns, a column spanning
// the whole key range, shared-prefix strings and arity 12, each at row
// counts either side of the radix cut-over and well above it.

// One column's cells: drawn from `values`, or uniformly from the inline
// ints [lo, hi] when `values` is empty.
struct ColumnSpec {
  int64_t lo = 0;
  int64_t hi = 0;
  std::vector<Value> values;
};

// Ints spanning exactly `width` bits from `lo`: key range 2^width - 1.
ColumnSpec IntBits(int64_t lo, int width) {
  return {lo, lo + static_cast<int64_t>((uint64_t{1} << width) - 1), {}};
}

ColumnSpec OneOf(std::vector<Value> values) { return {0, 0, std::move(values)}; }

// `n` rows (duplicates included) in which every column reaches both ends
// of its range, shuffled so that the first row is the greatest: Normalize
// must sort.
std::vector<Tuple> RowsOf(const std::vector<ColumnSpec>& cols, size_t n,
                          uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Tuple> rows;
  for (size_t r = 0; r < n; ++r) {
    Tuple t;
    for (const ColumnSpec& c : cols) {
      if (!c.values.empty()) {
        t.push_back(r < c.values.size() ? c.values[r]
                                        : c.values[rng() % c.values.size()]);
      } else if (r < 2) {
        t.push_back(Value::Int(r == 0 ? c.lo : c.hi));
      } else {
        std::uniform_int_distribution<int64_t> pick(c.lo, c.hi);
        t.push_back(Value::Int(pick(rng)));
      }
    }
    // Past the rows that place every listed value, every fifth row repeats
    // an earlier one.
    if (r >= 64 && r % 5 == 4) t = rows[rng() % rows.size()];
    rows.push_back(std::move(t));
  }
  std::shuffle(rows.begin(), rows.end(), rng);
  auto greatest = std::max_element(rows.begin(), rows.end());
  std::iter_swap(rows.begin(), greatest);
  if (std::adjacent_find(rows.begin(), rows.end(), std::not_equal_to<>()) ==
      rows.end()) {
    rows.clear();  // every row equal: nothing to sort
  }
  return rows;
}

TEST(NormalizeModelTest, PackedRowsMatchSetModel) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kSeam = int64_t{1} << 62;
  // Negative big ints, both inline/pool seams, positive big ints and
  // strings: the column's keys span from 0 to past 2^63, all 64 bits.
  const ColumnSpec full = OneOf(
      {Value::Int(kMin), Value::Int(kMin + 1), Value::Int(-kSeam - 1),
       Value::Int(-kSeam), Value::Int(-kSeam + 1), Value::Int(-1),
       Value::Int(0), Value::Int(kSeam - 1), Value::Int(kSeam),
       Value::Int(kMax), Value::Str("a"), Value::Str("position-title-1")});
  std::vector<Value> title_values;
  for (int i = 0; i < 40; ++i) {
    title_values.push_back(Value::Str("position-title-" + std::to_string(i)));
  }
  const ColumnSpec titles = OneOf(title_values);
  const ColumnSpec seven = OneOf({Value::Int(7)});
  const ColumnSpec bob = OneOf({Value::Str("bob")});
  const ColumnSpec small_mixed =
      OneOf({Value::Int(-3), Value::Int(5), Value::Int(1 << 20),
             Value::Str("a"), Value::Str("position-title-1")});
  std::vector<ColumnSpec> arity12;
  for (int c = 0; c < 12; ++c) arity12.push_back(IntBits(c - 6, 5));
  std::vector<ColumnSpec> arity12_wide = arity12;
  arity12_wide[11] = IntBits(0, 10);  // 11 * 5 + 10 = 65 bits

  const std::pair<const char*, std::vector<ColumnSpec>> cases[] = {
      {"32 + 31 bits", {IntBits(0, 32), IntBits(-5, 31)}},
      {"32 + 32 bits", {IntBits(0, 32), IntBits(-5, 32)}},
      {"33 + 32 bits", {IntBits(0, 33), IntBits(-5, 32)}},
      {"21 * 3 bits", {IntBits(100, 21), IntBits(-(1 << 20), 21),
                       IntBits(7, 21)}},
      {"22 + 21 + 21 bits", {IntBits(100, 22), IntBits(-(1 << 20), 21),
                             IntBits(7, 21)}},
      {"22 + 22 + 21 bits", {IntBits(100, 22), IntBits(-(1 << 20), 22),
                             IntBits(7, 21)}},
      {"constant columns", {seven, IntBits(0, 10), bob, IntBits(-3, 5)}},
      {"constant column before 64 bits", {seven, full}},
      {"full key range", {full}},
      {"full key range + 1 bit", {full, IntBits(0, 1)}},
      {"sparse digits", {OneOf({Value::Int(0), Value::Int(1 << 20)}),
                         IntBits(0, 2)}},
      {"shared-prefix strings", {titles, IntBits(0, 4), titles}},
      {"ints and strings in each column", {small_mixed, small_mixed}},
      {"arity 12, 60 bits", arity12},
      {"arity 12, 65 bits", arity12_wide},
  };
  constexpr size_t kCut = FlatRelation::kRadixSortMinRows;
  uint32_t seed = 1;
  for (const auto& [name, cols] : cases) {
    for (size_t n : {kCut - 1, kCut, kCut + 1, size_t{5'000}}) {
      SCOPED_TRACE(std::string(name) + ", " + std::to_string(n) + " rows");
      std::vector<Tuple> input = RowsOf(cols, n, seed++);
      ASSERT_FALSE(input.empty());
      const int arity = static_cast<int>(cols.size());
      FlatRelation rel(arity);
      for (const Tuple& t : input) rel.Insert(t);
      EXPECT_EQ(rel.Normalize(), input.size());
      RowModel model(input.begin(), input.end());
      ExpectMatchesModel(rel, model);
      EXPECT_EQ(rel.Normalize(), 0u);
    }
  }
}

TEST(DatabaseTest, CatalogOperations) {
  Database db;
  EXPECT_TRUE(db.AddRelation("R", 2).ok());
  EXPECT_TRUE(db.AddRelation("R", 2).ok());   // idempotent
  EXPECT_FALSE(db.AddRelation("R", 3).ok());  // arity conflict
  EXPECT_TRUE(db.Insert("R", {Value::Int(1), Value::Int(2)}).ok());
  EXPECT_FALSE(db.Insert("R", {Value::Int(1)}).ok());
  EXPECT_TRUE(db.Insert("S", {Value::Int(7)}).ok());  // auto-create
  EXPECT_NE(db.Find("S"), nullptr);
  EXPECT_EQ(db.Find("T"), nullptr);
  EXPECT_FALSE(db.Get("T").ok());
  EXPECT_EQ(db.TotalTuples(), 2u);
}

TEST(FunctionRegistryTest, RegisterAndLookup) {
  FunctionRegistry reg;
  reg.Register("inc", 1, [](std::span<const Value> a) {
    return Value::Int(a[0].AsInt() + 1);
  });
  ASSERT_NE(reg.Find("inc"), nullptr);
  EXPECT_EQ(reg.Find("inc")->arity, 1);
  EXPECT_FALSE(reg.Get("inc", 2).ok());
  EXPECT_FALSE(reg.Get("dec", 1).ok());
  auto f = reg.Get("inc", 1);
  ASSERT_TRUE(f.ok());
  Value in[] = {Value::Int(4)};
  EXPECT_EQ((*f)->fn(in), Value::Int(5));
}

TEST(BuiltinFunctionsTest, ArithmeticAndStrings) {
  FunctionRegistry reg = BuiltinFunctions();
  auto call1 = [&](const char* name, Value a) {
    Value args[] = {a};
    return reg.Find(name)->fn(args);
  };
  auto call2 = [&](const char* name, Value a, Value b) {
    Value args[] = {a, b};
    return reg.Find(name)->fn(args);
  };
  EXPECT_EQ(call1("succ", Value::Int(4)), Value::Int(5));
  EXPECT_EQ(call1("pred", Value::Int(4)), Value::Int(3));
  EXPECT_EQ(call1("abs", Value::Int(-4)), Value::Int(4));
  EXPECT_EQ(call2("plus", Value::Int(2), Value::Int(3)), Value::Int(5));
  EXPECT_EQ(call2("concat", Value::Str("a"), Value::Str("b")),
            Value::Str("ab"));
  EXPECT_EQ(call2("concat", Value::Int(1), Value::Str("b")),
            Value::Str("1b"));
  EXPECT_EQ(call1("len", Value::Str("abc")), Value::Int(3));
  EXPECT_EQ(call1("first_char", Value::Str("xyz")), Value::Str("x"));
}

TEST(BuiltinFunctionsTest, TotalOnMixedDomain) {
  // Every builtin must accept any mix of ints and strings (totality is the
  // paper's standing assumption on scalar functions).
  FunctionRegistry reg = BuiltinFunctions();
  Value samples[] = {Value::Int(-3), Value::Int(0), Value::Str(""),
                     Value::Str("abc")};
  for (const auto& [name, fn] : reg.functions()) {
    if (fn.arity == 1) {
      for (const Value& a : samples) {
        Value args[] = {a};
        (void)fn.fn(args);  // must not crash
      }
    } else if (fn.arity == 2) {
      for (const Value& a : samples) {
        for (const Value& b : samples) {
          Value args[] = {a, b};
          (void)fn.fn(args);
        }
      }
    }
  }
}

// The arithmetic builtins wrap modulo 2^64 (two's complement) instead of
// overflowing, which would be undefined behaviour: every numeric builtin's
// scalar and batch forms agree with the wrapped result at the int64
// boundaries. Runs under UBSan in the sanitizer build.
TEST(BuiltinFunctionsTest, ArithmeticWrapsAtInt64Boundaries) {
  using U = uint64_t;
  auto wrap = [](U v) { return static_cast<int64_t>(v); };
  const std::map<std::string, std::function<int64_t(int64_t)>> unary = {
      {"succ", [&](int64_t a) { return wrap(U(a) + 1); }},
      {"pred", [&](int64_t a) { return wrap(U(a) - 1); }},
      {"double", [&](int64_t a) { return wrap(U(a) * 2); }},
      {"half", [](int64_t a) { return a / 2; }},
      {"abs", [&](int64_t a) { return a < 0 ? wrap(U(0) - U(a)) : a; }},
      {"neg", [&](int64_t a) { return wrap(U(0) - U(a)); }},
      {"len", [](int64_t a) { return a; }},
  };
  const std::map<std::string, std::function<int64_t(int64_t, int64_t)>>
      binary = {
          {"plus", [&](int64_t a, int64_t b) { return wrap(U(a) + U(b)); }},
          {"minus", [&](int64_t a, int64_t b) { return wrap(U(a) - U(b)); }},
          {"times", [&](int64_t a, int64_t b) { return wrap(U(a) * U(b)); }},
          {"min2", [](int64_t a, int64_t b) { return std::min(a, b); }},
          {"max2", [](int64_t a, int64_t b) { return std::max(a, b); }},
          {"mix",
           [](int64_t a, int64_t b) {
             U x = U(a) * 0x9e3779b97f4a7c15ULL + U(b);
             x ^= x >> 29;
             return static_cast<int64_t>(x & 0x7fffffff);
           }},
      };
  const std::vector<int64_t> bounds = {INT64_MIN, INT64_MIN + 1, -1, 0,
                                       INT64_MAX};
  FunctionRegistry reg = BuiltinFunctions();
  size_t checked = 0;
  for (const auto& [name, fn] : reg.functions()) {
    if (!fn.batch) continue;  // string builtins have no numeric overflow
    ++checked;
    // One batch lane per input (pair), against the scalar form and the
    // wrapped expectation.
    std::vector<Value> a, b;
    for (int64_t x : bounds) {
      if (fn.arity == 1) {
        a.push_back(Value::Int(x));
        continue;
      }
      for (int64_t y : bounds) {
        a.push_back(Value::Int(x));
        b.push_back(Value::Int(y));
      }
    }
    std::vector<std::span<const Value>> cols = {a};
    if (fn.arity == 2) cols.push_back(b);
    std::vector<Value> out(a.size());
    fn.batch(cols, out);
    for (size_t i = 0; i < a.size(); ++i) {
      int64_t want;
      if (fn.arity == 1) {
        ASSERT_TRUE(unary.count(name)) << name << " has no expectation";
        want = unary.at(name)(a[i].AsInt());
      } else {
        ASSERT_TRUE(binary.count(name)) << name << " has no expectation";
        want = binary.at(name)(a[i].AsInt(), b[i].AsInt());
      }
      std::vector<Value> args = {a[i]};
      if (fn.arity == 2) args.push_back(b[i]);
      EXPECT_EQ(fn.fn(args), Value::Int(want)) << name << " scalar, lane " << i;
      EXPECT_EQ(out[i], Value::Int(want)) << name << " batch, lane " << i;
    }
  }
  EXPECT_EQ(checked, unary.size() + binary.size());
  Value max_arg[] = {Value::Int(INT64_MAX)};
  EXPECT_EQ(reg.Find("succ")->fn(max_arg), Value::Int(INT64_MIN));
  Value min_arg[] = {Value::Int(INT64_MIN)};
  EXPECT_EQ(reg.Find("abs")->fn(min_arg), Value::Int(INT64_MIN));
}

TEST(AdomTest, ActiveDomainCollectsAllColumns) {
  Database db;
  EXPECT_TRUE(db.Insert("R", {Value::Int(1), Value::Str("a")}).ok());
  EXPECT_TRUE(db.Insert("S", {Value::Int(2)}).ok());
  ValueSet adom = ActiveDomain(db);
  EXPECT_EQ(adom.size(), 3u);
  EXPECT_TRUE(std::binary_search(adom.begin(), adom.end(), Value::Str("a")));
}

TEST(AdomTest, QueryConstantsJoinActiveDomain) {
  AstContext ctx;
  auto f = ParseFormula(ctx, "R(x) and x != 99");
  ASSERT_TRUE(f.ok());
  Database db;
  EXPECT_TRUE(db.Insert("R", {Value::Int(1)}).ok());
  ValueSet adom = ActiveDomain(*f, db);
  EXPECT_EQ(adom.size(), 2u);
  EXPECT_TRUE(std::binary_search(adom.begin(), adom.end(), Value::Int(99)));
}

TEST(TermClosureTest, LevelsGrowMonotonically) {
  FunctionRegistry reg = BuiltinFunctions();
  ValueSet base = {Value::Int(0)};
  std::vector<std::pair<std::string, int>> fns = {{"succ", 1}};
  auto l0 = TermClosure(base, fns, reg, 0, 1000);
  auto l1 = TermClosure(base, fns, reg, 1, 1000);
  auto l3 = TermClosure(base, fns, reg, 3, 1000);
  ASSERT_TRUE(l0.ok() && l1.ok() && l3.ok());
  EXPECT_EQ(l0->size(), 1u);
  EXPECT_EQ(l1->size(), 2u);  // {0, 1}
  EXPECT_EQ(l3->size(), 4u);  // {0, 1, 2, 3}
  EXPECT_TRUE(std::includes(l3->begin(), l3->end(), l1->begin(), l1->end()));
}

TEST(TermClosureTest, BinaryFunctionsCloseOverPairs) {
  FunctionRegistry reg = BuiltinFunctions();
  ValueSet base = {Value::Int(1), Value::Int(2)};
  std::vector<std::pair<std::string, int>> fns = {{"plus", 2}};
  auto l1 = TermClosure(base, fns, reg, 1, 1000);
  ASSERT_TRUE(l1.ok());
  // 1+1=2, 1+2=3, 2+2=4 -> {1,2,3,4}
  EXPECT_EQ(l1->size(), 4u);
}

TEST(TermClosureTest, FixpointStops) {
  FunctionRegistry reg = BuiltinFunctions();
  ValueSet base = {Value::Int(5)};
  std::vector<std::pair<std::string, int>> fns = {{"abs", 1}};
  auto l5 = TermClosure(base, fns, reg, 5, 1000);
  ASSERT_TRUE(l5.ok());
  EXPECT_EQ(l5->size(), 1u);  // abs(5) = 5: closed immediately
}

TEST(TermClosureTest, BudgetEnforced) {
  FunctionRegistry reg = BuiltinFunctions();
  ValueSet base = {Value::Int(0)};
  std::vector<std::pair<std::string, int>> fns = {{"succ", 1}};
  auto r = TermClosure(base, fns, reg, 100, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(TermClosureTest, UnknownFunctionFails) {
  FunctionRegistry reg;
  auto r = TermClosure({Value::Int(0)}, {{"mystery", 1}}, reg, 1, 10);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace emcalc
