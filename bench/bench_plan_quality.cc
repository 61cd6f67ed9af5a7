// Experiment E10 — plan-quality ablations.
//
// (a) Context-threading vs literal T13/T14 distribution: GT91's syntactic
//     strategy duplicates the bounding conjuncts into every disjunction
//     branch; our generator threads the context plan instead. Same answers,
//     different plan sizes and evaluation costs.
// (b) The plan simplifier: raw generated plans vs simplified plans.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/algebra/eval.h"
#include "src/calculus/parser.h"
#include "src/core/workload.h"
#include "src/translate/pipeline.h"

namespace {

// k stacked 2-way disjunctions over a shared bounding core: the worst case
// for distribution (2^k branches).
std::string StackedDisjunctions(int k) {
  std::string body = "R(x, y, z)";
  for (int i = 0; i < k; ++i) {
    body += " and (S" + std::to_string(i) + "(x) or T" + std::to_string(i) +
            "(y))";
  }
  return "{x, y, z | " + body + "}";
}

emcalc::Database Instance(int k) {
  emcalc::Database db;
  emcalc::AddRandomTuples(db, "R", 3, 2000, 50, 3);
  for (int i = 0; i < k; ++i) {
    emcalc::AddRandomTuples(db, "S" + std::to_string(i), 1, 25, 50, 11 + i);
    emcalc::AddRandomTuples(db, "T" + std::to_string(i), 1, 25, 50, 37 + i);
  }
  return db;
}

void Report() {
  emcalc::bench::Banner(
      "E10: plan quality — context threading vs T13 distribution, and the "
      "plan simplifier",
      "literal distribution duplicates the context into every branch "
      "(plans grow ~2^k); context threading keeps plans linear in k with "
      "identical answers");
  emcalc::FunctionRegistry registry = emcalc::BuiltinFunctions();
  std::printf("%-12s %10s %12s %14s %16s\n", "disjunctions",
              "plan nodes", "plan (T13)", "tuples", "tuples (T13)");
  for (int k : {1, 2, 3, 4, 5}) {
    emcalc::AstContext ctx;
    auto q = emcalc::ParseQuery(ctx, StackedDisjunctions(k));
    if (!q.ok()) continue;
    auto threaded = emcalc::TranslateQuery(ctx, *q);
    emcalc::TranslateOptions dist_options;
    dist_options.distribute_disjunctions = true;
    auto distributed = emcalc::TranslateQuery(ctx, *q, dist_options);
    if (!threaded.ok() || !distributed.ok()) continue;
    emcalc::Database db = Instance(k);
    emcalc::ExecTotals ts, ds;
    auto a = emcalc::EvaluateAlgebra(ctx, threaded->plan, db, registry, &ts);
    auto b =
        emcalc::EvaluateAlgebra(ctx, distributed->plan, db, registry, &ds);
    if (!a.ok() || !b.ok()) continue;
    if (!(*a == *b)) {
      std::printf("MISMATCH at k=%d!\n", k);
      continue;
    }
    std::printf("%-12d %10d %12d %14llu %16llu\n", k,
                threaded->plan->NodeCount(), distributed->plan->NodeCount(),
                static_cast<unsigned long long>(ts.rows_out),
                static_cast<unsigned long long>(ds.rows_out));
  }

  std::printf("\nplan simplifier (raw generated vs optimized):\n");
  std::printf("%-12s %10s %12s %14s %16s\n", "disjunctions", "raw nodes",
              "opt nodes", "raw tuples", "opt tuples");
  for (int k : {1, 3, 5}) {
    emcalc::AstContext ctx;
    auto q = emcalc::ParseQuery(ctx, StackedDisjunctions(k));
    auto t = emcalc::TranslateQuery(ctx, *q);
    if (!t.ok()) continue;
    emcalc::Database db = Instance(k);
    emcalc::ExecTotals rs, os;
    auto a = emcalc::EvaluateAlgebra(ctx, t->raw_plan, db, registry, &rs);
    auto b = emcalc::EvaluateAlgebra(ctx, t->plan, db, registry, &os);
    if (!a.ok() || !b.ok() || !(*a == *b)) continue;
    std::printf("%-12d %10d %12d %14llu %16llu\n", k,
                t->raw_plan->NodeCount(), t->plan->NodeCount(),
                static_cast<unsigned long long>(rs.rows_out),
                static_cast<unsigned long long>(os.rows_out));
  }
  std::printf("\n");
}

void BM_Threaded(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  emcalc::AstContext ctx;
  auto q = emcalc::ParseQuery(ctx, StackedDisjunctions(k));
  auto t = emcalc::TranslateQuery(ctx, *q);
  if (!t.ok()) {
    state.SkipWithError("translate");
    return;
  }
  emcalc::Database db = Instance(k);
  emcalc::FunctionRegistry registry = emcalc::BuiltinFunctions();
  for (auto _ : state) {
    auto r = emcalc::EvaluateAlgebra(ctx, t->plan, db, registry);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_Threaded)->Arg(1)->Arg(3)->Arg(5);

void BM_Distributed(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  emcalc::AstContext ctx;
  auto q = emcalc::ParseQuery(ctx, StackedDisjunctions(k));
  emcalc::TranslateOptions options;
  options.distribute_disjunctions = true;
  auto t = emcalc::TranslateQuery(ctx, *q, options);
  if (!t.ok()) {
    state.SkipWithError("translate");
    return;
  }
  emcalc::Database db = Instance(k);
  emcalc::FunctionRegistry registry = emcalc::BuiltinFunctions();
  for (auto _ : state) {
    auto r = emcalc::EvaluateAlgebra(ctx, t->plan, db, registry);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_Distributed)->Arg(1)->Arg(3)->Arg(5);

}  // namespace

EMCALC_BENCH_MAIN(Report)
