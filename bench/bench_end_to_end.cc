// Experiment E9 — end-to-end pipeline cost breakdown on the payroll
// workload: parse, safety check, translate, execute, at growing instance
// sizes. Demonstrates that the compile-time phases are independent of the
// data and the run-time phase scales with it.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/calculus/parser.h"
#include "src/core/compiler.h"
#include "src/core/workload.h"
#include "src/safety/em_allowed.h"
#include "src/translate/pipeline.h"

namespace {

constexpr const char* kNetPay =
    "{e, n | exists d, s (EMP(e, d, s) and n = net10(s))}";
constexpr const char* kNoBonus =
    "{e | exists d, s (EMP(e, d, s) and not exists b (BONUS(e, b)))}";

emcalc::FunctionRegistry Functions() {
  emcalc::FunctionRegistry reg = emcalc::BuiltinFunctions();
  reg.Register("net10", 1, [](std::span<const emcalc::Value> a) {
    int64_t v = a[0].is_int() ? a[0].AsInt() : 0;
    return emcalc::Value::Int(v * 9 / 10);
  });
  return reg;
}

void Report() {
  emcalc::bench::Banner(
      "E9: end-to-end pipeline breakdown (payroll workload)",
      "parsing/safety/translation are data-independent microsecond-scale "
      "phases; execution scales with the instance");
  emcalc::Compiler compiler(Functions());
  for (const char* text : {kNetPay, kNoBonus}) {
    auto q = compiler.Compile(text);
    if (!q.ok()) {
      std::printf("compile failed: %s\n", q.status().ToString().c_str());
      continue;
    }
    std::printf("query: %s\nplan:  %s\n", text, q->PlanString().c_str());
    for (size_t n : {100u, 1000u, 10000u}) {
      emcalc::Database db = emcalc::MakePayrollInstance(n, 8, 3);
      emcalc::ExecProfile profile;
      auto r = q->Run(db, &profile);
      if (!r.ok()) continue;
      emcalc::ExecTotals totals = emcalc::SumProfile(profile);
      std::printf("  |EMP|=%-6zu answers=%-6zu tuples_produced=%llu\n", n,
                  r->size(),
                  static_cast<unsigned long long>(totals.rows_out));
      emcalc::bench::AppendExecRecord("end_to_end", text, "exec", n,
                                      r->size(), profile);
    }
    // Per-operator breakdown at the largest size (EXPLAIN ANALYZE style).
    emcalc::Database db = emcalc::MakePayrollInstance(10000, 8, 3);
    auto analyzed = q->ExplainAnalyze(db);
    if (analyzed.ok()) std::printf("%s", analyzed->c_str());
  }
  std::printf("\n");
}

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    emcalc::AstContext ctx;
    auto q = emcalc::ParseQuery(ctx, kNetPay);
    benchmark::DoNotOptimize(q.ok());
  }
}
BENCHMARK(BM_Parse);

void BM_SafetyCheck(benchmark::State& state) {
  emcalc::AstContext ctx;
  auto q = emcalc::ParseQuery(ctx, kNetPay);
  for (auto _ : state) {
    auto r = emcalc::CheckEmAllowed(ctx, *q);
    benchmark::DoNotOptimize(r.em_allowed);
  }
}
BENCHMARK(BM_SafetyCheck);

void BM_Translate(benchmark::State& state) {
  for (auto _ : state) {
    emcalc::AstContext ctx;
    auto q = emcalc::ParseQuery(ctx, kNetPay);
    auto t = emcalc::TranslateQuery(ctx, *q);
    benchmark::DoNotOptimize(t.ok());
  }
}
BENCHMARK(BM_Translate);

void BM_Execute(benchmark::State& state) {
  emcalc::Compiler compiler(Functions());
  auto q = compiler.Compile(state.range(1) == 0 ? kNetPay : kNoBonus);
  if (!q.ok()) {
    state.SkipWithError("compile");
    return;
  }
  emcalc::Database db =
      emcalc::MakePayrollInstance(static_cast<size_t>(state.range(0)), 8, 3);
  for (auto _ : state) {
    auto r = q->Run(db);
    if (!r.ok()) {
      state.SkipWithError("run");
      return;
    }
    benchmark::DoNotOptimize(r->size());
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Execute)
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({100000, 0})
    ->Args({100, 1})
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({100000, 1});

}  // namespace

EMCALC_BENCH_MAIN(Report)
