// Exhaustive soundness sweep: enumerate EVERY formula up to AST size 5
// over a fixed signature (R/1, S/2, f/1, variables x and y, constant 0)
// and verify the chain
//
//     em-allowed accepted  ==>  translation succeeds
//                          ==>  plan answer == reference answer
//                          ==>  answer invariant under junk domain values
//                          ==>  answer at level ||phi|| == at ||phi|| + 2
//
// on fixed instances, under a non-injective and an injective f (the last
// link is Theorem 6.6's level, checked under the injective one). Unlike
// the random property tests this covers the complete space of small
// formulas, including every pathological corner (vacuous quantifiers,
// trivial equalities, double negations, ...). The counts are pinned, so an
// enumerator that yields nothing fails.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <vector>

#include "src/algebra/eval.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/builder.h"
#include "src/calculus/printer.h"
#include "src/eval/calculus_eval.h"
#include "src/safety/em_allowed.h"
#include "src/translate/pipeline.h"

namespace emcalc {
namespace {

class Enumerator {
 public:
  explicit Enumerator(AstContext& ctx) : ctx_(ctx) {
    x_ = ctx.symbols().Intern("x");
    y_ = ctx.symbols().Intern("y");
    r_ = ctx.symbols().Intern("R");
    s_ = ctx.symbols().Intern("S");
    const Term* x = ctx.MakeVar(x_);
    const Term* y = ctx.MakeVar(y_);
    const Term* zero = ctx.MakeConst(Value::Int(0));
    std::vector<const Term*> fargs = {x};
    const Term* fx = ctx.MakeApply(ctx.symbols().Intern("f"), fargs);
    terms_ = {x, y, zero, fx};
  }

  // All formulas with exactly `size` nodes (kAnd/kOr counted as one node
  // plus their children's sizes; built strictly binary here).
  const std::vector<const Formula*>& OfSize(int size) {
    while (static_cast<int>(by_size_.size()) <= size) {
      int n = static_cast<int>(by_size_.size());
      std::vector<const Formula*> out;
      if (n == 1) {
        // Atoms.
        for (const Term* t : terms_) {
          std::vector<const Term*> args = {t};
          out.push_back(ctx_.MakeRel(r_, args));
        }
        for (const Term* a : terms_) {
          for (const Term* b : terms_) {
            std::vector<const Term*> args = {a, b};
            out.push_back(ctx_.MakeRel(s_, args));
            out.push_back(ctx_.MakeEq(a, b));
            out.push_back(ctx_.MakeNeq(a, b));
          }
        }
      } else if (n >= 2) {
        for (const Formula* c : by_size_[n - 1]) {
          out.push_back(ctx_.MakeNot(c));
          // Skip quantifiers over variables not free in the body: they are
          // semantically vacuous and already covered by the body itself.
          SymbolSet free = FreeVars(c);
          if (free.Contains(x_)) {
            out.push_back(ctx_.MakeExists(std::vector<Symbol>{x_}, c));
          }
          if (free.Contains(y_)) {
            out.push_back(ctx_.MakeExists(std::vector<Symbol>{y_}, c));
          }
        }
        for (int left = 1; left <= n - 2; ++left) {
          int right = n - 1 - left;
          if (right < 1) continue;
          for (const Formula* a : by_size_[left]) {
            for (const Formula* b : by_size_[right]) {
              std::vector<const Formula*> pair = {a, b};
              out.push_back(ctx_.MakeAnd(pair));
              out.push_back(ctx_.MakeOr(pair));
            }
          }
        }
      }
      by_size_.push_back(std::move(out));
    }
    return by_size_[size];
  }

 private:
  AstContext& ctx_;
  Symbol x_, y_, r_, s_;
  std::vector<const Term*> terms_;
  std::vector<std::vector<const Formula*>> by_size_;
};

// f is (n + 1) mod 4, which folds the domain onto itself, or the injective
// n + 1, under which term^k(adom) grows with every level.
FunctionRegistry SweepFunctions(bool injective) {
  FunctionRegistry reg;
  reg.Register("f", 1, [injective](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 9;
    return Value::Int(injective ? n + 1 : (n + 1) % 4);
  });
  return reg;
}

Database SweepInstance(int variant) {
  Database db;
  if (variant == 0) {
    (void)db.Insert("R", {Value::Int(0)});
    (void)db.Insert("R", {Value::Int(2)});
    (void)db.Insert("S", {Value::Int(0), Value::Int(1)});
    (void)db.Insert("S", {Value::Int(2), Value::Int(2)});
  } else {
    (void)db.AddRelation("R", 1);  // empty R
    (void)db.Insert("S", {Value::Int(1), Value::Int(3)});
    (void)db.Insert("S", {Value::Int(3), Value::Int(1)});
  }
  return db;
}

// One slice of the sweep: the formulas of `size` whose index in the
// enumeration, halved, is `shard` modulo `shards`. Halving keeps the kAnd
// and the kOr built from one pair in one shard; a stride over single
// formulas would send every kAnd, most of the em-allowed ones, to the even
// shards.
struct Slice {
  int size;
  int shard = 0;
  int shards = 1;
};

// Whole sizes print as the size, so their test names end in /1 ... /4.
void PrintTo(const Slice& s, std::ostream* os) {
  *os << s.size;
  if (s.shards > 1) *os << "-shard" << s.shard;
}

constexpr int kShards = 8;
// Formulas of each size 1..5, and the em-allowed ones among them; size 5's
// em-allowed count is split by shard.
constexpr size_t kFormulas[] = {0, 52, 112, 5604, 37632, 1277364};
constexpr int kAccepted[] = {0, 20, 26, 1154, 4244};
constexpr int kAcceptedSize5[kShards] = {24401, 16564, 34323, 16112,
                                          25781, 18076, 33139, 15280};
static_assert(std::accumulate(kAcceptedSize5, kAcceptedSize5 + kShards, 0) ==
              183676);

class ExhaustiveTest : public ::testing::TestWithParam<Slice> {};

TEST_P(ExhaustiveTest, AcceptedFormulasTranslateAndMatchOracle) {
  AstContext ctx;
  Enumerator en(ctx);
  const FunctionRegistry registries[] = {SweepFunctions(false),
                                         SweepFunctions(true)};
  const Database instances[] = {SweepInstance(0), SweepInstance(1)};
  CalculusEvalOptions junk;
  junk.extra_domain = {Value::Int(77), Value::Str("junk")};
  const Slice slice = GetParam();
  const auto& formulas = en.OfSize(slice.size);
  int accepted = 0;
  for (size_t i = 0; i < formulas.size(); ++i) {
    if (static_cast<int>(i / 2 % static_cast<size_t>(slice.shards)) !=
        slice.shard) {
      continue;
    }
    const Formula* f = formulas[i];
    SymbolSet free = FreeVars(f);
    Query q{{free.begin(), free.end()}, f};
    EmAllowedChecker checker(ctx);
    if (!checker.Check(q).em_allowed) continue;
    ++accepted;
    SCOPED_TRACE(QueryToString(ctx, q));
    auto t = TranslateQuery(ctx, q);
    ASSERT_TRUE(t.ok()) << "accepted but untranslatable: "
                        << t.status().ToString();
    for (bool injective : {false, true}) {
      const FunctionRegistry& registry = registries[injective ? 1 : 0];
      for (int variant = 0; variant < 2; ++variant) {
        SCOPED_TRACE(::testing::Message()
                     << "instance " << variant << ", f(n) = "
                     << (injective ? "n + 1" : "(n + 1) % 4"));
        const Database& db = instances[variant];
        auto plan_answer = EvaluateAlgebra(ctx, t->plan, db, registry);
        ASSERT_TRUE(plan_answer.ok());
        auto oracle = EvaluateCalculus(ctx, q, db, registry);
        ASSERT_TRUE(oracle.ok());
        ASSERT_EQ(*plan_answer, *oracle)
            << "plan: " << AlgExprToString(ctx, t->plan);
        // Domain independence: junk values must not change the answer.
        auto bigger = EvaluateCalculus(ctx, q, db, registry, junk);
        ASSERT_TRUE(bigger.ok());
        ASSERT_EQ(*oracle, *bigger) << "accepted query is domain-dependent";
        if (!injective) continue;
        // Theorem 6.6: term^k(adom) at k = ||phi|| already holds the answer.
        CalculusEvalOptions higher;
        higher.level = CountApplications(q.body) + 2;
        auto deeper = EvaluateCalculus(ctx, q, db, registry, higher);
        ASSERT_TRUE(deeper.ok());
        ASSERT_EQ(*oracle, *deeper) << "answer grows past level ||phi||";
      }
    }
  }
  std::printf("size %d shard %d/%d: %zu formulas, %d em-allowed\n",
              slice.size, slice.shard, slice.shards, formulas.size(),
              accepted);
  EXPECT_EQ(formulas.size(), kFormulas[slice.size]);
  EXPECT_EQ(accepted, slice.shards > 1 ? kAcceptedSize5[slice.shard]
                                       : kAccepted[slice.size]);
}

std::vector<Slice> AllSlices() {
  std::vector<Slice> slices;
  for (int size = 1; size <= 4; ++size) slices.push_back({size});
  for (int shard = 0; shard < kShards; ++shard) {
    slices.push_back({5, shard, kShards});
  }
  return slices;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExhaustiveTest,
                         ::testing::ValuesIn(AllSlices()));

}  // namespace
}  // namespace emcalc
