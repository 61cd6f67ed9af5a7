// Experiment E10 — plan quality: raw generated plans vs plans after the
// simplifier, on k stacked disjunctions over a shared bounding core. The
// generator threads the core's plan into every disjunction branch; T13's
// literal distribution, which would copy the core into each branch, runs
// only where the RANF walk stalls (see src/translate/ranf.h and
// EXPERIMENTS.md E10).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/algebra/eval.h"
#include "src/calculus/parser.h"
#include "src/core/workload.h"
#include "src/translate/pipeline.h"

namespace {

// k stacked 2-way disjunctions over a shared bounding core (2^k branches
// if the core were distributed into each).
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
      "E10: plan quality — the plan simplifier",
      "T13 is applied only when needed, since it copies the bounding "
      "conjuncts into every branch; the simplifier cuts the raw generated "
      "plan further with identical answers");
  emcalc::FunctionRegistry registry = emcalc::BuiltinFunctions();
  std::printf("plan simplifier (raw generated vs optimized):\n");
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

}  // namespace

EMCALC_BENCH_MAIN(Report)
