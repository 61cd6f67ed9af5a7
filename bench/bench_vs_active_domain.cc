// Experiment E2 — direct (GT91-style) translation vs the active-domain
// translation of [AB88]/[BM92a] (Section 2 of the paper).
//
// Workload: the paper's q6 {x,y,z | R(x,y,z) and not S(y,z)} and a scalar-
// function variant, over synthetic instances of growing size. The paper's
// claim: "a direct execution of the [GT91-style] query will be
// considerably cheaper than one of the [adom-based] query."
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/algebra/eval.h"
#include "src/calculus/parser.h"
#include "src/core/workload.h"
#include "src/exec/lower.h"
#include "src/translate/active_domain.h"
#include "src/translate/pipeline.h"

namespace {

constexpr const char* kQ6 = "{x, y, z | R(x, y, z) and not S(y, z)}";
constexpr const char* kQ6Fn =
    "{x, y, z | R(x, y, z) and exists w (succ(z) = w and not S(y, w))}";

// Fixed value pool: the adom baseline's cost is driven by the active
// domain (|adom|^2 cubes for the negation), the direct plan's cost by the
// relation sizes — exactly the contrast the paper describes.
emcalc::Database Instance(int64_t rows) {
  return emcalc::MakeQ6Instance(static_cast<size_t>(rows),
                                static_cast<size_t>(rows) / 2,
                                /*value_pool=*/200, 7);
}

void Report() {
  emcalc::bench::Banner(
      "E2: direct translation vs active-domain baseline",
      "direct plans avoid the adom construction and are considerably "
      "cheaper to execute; the gap widens with instance size and explodes "
      "once scalar functions force term-closure levels > 0");
  emcalc::FunctionRegistry registry = emcalc::BuiltinFunctions();
  auto run_row = [&registry](const char* text, const char* label,
                             emcalc::Database db, int64_t rows) {
    emcalc::AstContext ctx;
    auto q = emcalc::ParseQuery(ctx, text);
    auto direct = emcalc::TranslateQuery(ctx, *q);
    auto adom = emcalc::TranslateActiveDomain(ctx, *q);
    if (!direct.ok() || !adom.ok()) return;
    auto direct_plan = emcalc::Lower(ctx, direct->plan, registry);
    auto adom_plan = emcalc::Lower(ctx, *adom, registry);
    if (!direct_plan.ok() || !adom_plan.ok()) return;
    emcalc::ExecProfile dp, ap;
    auto r1 = direct_plan->ExecuteToRelation(db, &dp);
    auto r2 = adom_plan->ExecuteToRelation(db, &ap);
    if (!r1.ok() || !r2.ok()) return;
    if (!(*r1 == *r2)) {
      std::printf("MISMATCH on %s at %lld rows!\n", text,
                  static_cast<long long>(rows));
      return;
    }
    emcalc::ExecTotals dt = emcalc::SumProfile(dp);
    emcalc::ExecTotals at = emcalc::SumProfile(ap);
    std::printf("%-8s %-6lld %14llu %14llu %9.1fx\n", label,
                static_cast<long long>(rows),
                static_cast<unsigned long long>(dt.rows_out),
                static_cast<unsigned long long>(at.rows_out),
                static_cast<double>(at.rows_out) /
                    static_cast<double>(dt.rows_out));
    emcalc::bench::AppendExecRecord("vs_active_domain", text, "direct",
                                    static_cast<size_t>(rows), r1->size(), dp);
    emcalc::bench::AppendExecRecord("vs_active_domain", text, "adom",
                                    static_cast<size_t>(rows), r2->size(), ap);
  };

  std::printf("fixed value pool (200):\n");
  std::printf("%-8s %-6s %14s %14s %10s\n", "query", "|R|", "direct tuples",
              "adom tuples", "ratio");
  for (const char* text : {kQ6, kQ6Fn}) {
    for (int64_t rows : {100, 1000, 10000}) {
      run_row(text, text == kQ6 ? "q6" : "q6+succ", Instance(rows), rows);
    }
  }

  std::printf("\nvalue pool scaling with |R| (gap widens with the domain):\n");
  std::printf("%-8s %-6s %14s %14s %10s\n", "query", "|R|", "direct tuples",
              "adom tuples", "ratio");
  for (int64_t rows : {100, 400, 1600}) {
    emcalc::Database db = emcalc::MakeQ6Instance(
        static_cast<size_t>(rows), static_cast<size_t>(rows) / 2,
        /*value_pool=*/static_cast<int>(rows), 7);
    run_row(kQ6, "q6", std::move(db), rows);
  }
  std::printf("\n");
}

void RunPlan(benchmark::State& state, const char* text, bool use_adom) {
  emcalc::AstContext ctx;
  auto q = emcalc::ParseQuery(ctx, text);
  const emcalc::AlgExpr* plan = nullptr;
  if (use_adom) {
    auto t = emcalc::TranslateActiveDomain(ctx, *q);
    if (!t.ok()) {
      state.SkipWithError(t.status().ToString().c_str());
      return;
    }
    plan = *t;
  } else {
    auto t = emcalc::TranslateQuery(ctx, *q);
    if (!t.ok()) {
      state.SkipWithError(t.status().ToString().c_str());
      return;
    }
    plan = t->plan;
  }
  emcalc::Database db = Instance(state.range(0));
  emcalc::FunctionRegistry registry = emcalc::BuiltinFunctions();
  uint64_t produced = 0;
  for (auto _ : state) {
    emcalc::ExecTotals totals;
    auto r = emcalc::EvaluateAlgebra(ctx, plan, db, registry, &totals);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    produced = totals.rows_out;
    benchmark::DoNotOptimize(r->size());
  }
  state.counters["tuples"] = static_cast<double>(produced);
}

void BM_Q6_Direct(benchmark::State& state) { RunPlan(state, kQ6, false); }
void BM_Q6_Adom(benchmark::State& state) { RunPlan(state, kQ6, true); }
void BM_Q6Fn_Direct(benchmark::State& state) { RunPlan(state, kQ6Fn, false); }
void BM_Q6Fn_Adom(benchmark::State& state) { RunPlan(state, kQ6Fn, true); }

BENCHMARK(BM_Q6_Direct)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Q6_Adom)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Q6Fn_Direct)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Q6Fn_Adom)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

EMCALC_BENCH_MAIN(Report)
