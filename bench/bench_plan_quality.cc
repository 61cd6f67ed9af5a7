// Experiment E10 — plan-quality ablations.
//
// (a) Context-threading vs literal T13/T14 distribution: GT91's syntactic
//     strategy duplicates the bounding conjuncts into every disjunction
//     branch; our generator threads the context plan instead. Same answers,
//     different plan sizes and evaluation costs.
// (b) The plan simplifier: raw generated plans vs simplified plans.
// (c) History feedback: the corpus lowered against a cold (empty) history
//     store vs a warm one; warm estimates are past actuals, so the p90
//     per-op misestimation factor must improve (self-judged record in
//     BENCH_quality.json, gated by check_perf_regression.py --quality).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/algebra/eval.h"
#include "src/calculus/parser.h"
#include "src/core/compiler.h"
#include "src/core/workload.h"
#include "src/exec/feedback.h"
#include "src/obs/history.h"
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

// p-th percentile of `values` (nearest-rank on the sorted copy); 0 when
// empty.
double PercentileOfValues(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>((p / 100.0) *
                                  static_cast<double>(values.size() - 1));
  return values[std::min(rank, values.size() - 1)];
}

// One pass over the corpus: compile (lowering consults whatever history
// store is installed), run with a profile, and pool every operator's
// misestimation factor. Returns false on any compile/run failure.
bool RunCorpusPass(std::vector<double>& factors, size_t& corrected_ops,
                   std::vector<emcalc::Relation>& answers) {
  for (int k : {1, 2, 3, 4, 5}) {
    emcalc::Compiler compiler;
    auto q = compiler.Compile(StackedDisjunctions(k));
    if (!q.ok()) return false;
    emcalc::Database db = Instance(k);
    emcalc::ExecProfile profile;
    auto answer = q->Run(db, &profile);
    if (!answer.ok()) return false;
    emcalc::obs::RunRecord run = emcalc::BuildRunRecord(
        /*query_hash=*/0, /*query=*/"", answer.status(), answer->size(),
        /*wall_ns=*/0, /*exec_threads=*/0, profile);
    answers.push_back(std::move(answer).value());
    corrected_ops += run.est_history_ops;
    for (const emcalc::obs::RunRecord::Op& op : run.ops) {
      factors.push_back(op.factor);
    }
  }
  return true;
}

// Experiment (c): cold-store vs warm-store lowering over the corpus.
void ReportHistoryFeedback() {
  emcalc::bench::Banner(
      "E10c: history-feedback plan quality — cold vs warm store",
      "with a warm history store, lowered estimates are past actuals, so "
      "the p90 per-op misestimation factor strictly improves over the "
      "cold-store heuristics with bit-identical answers");
  char dir_template[] = "/tmp/emcalc_bench_history_XXXXXX";
  char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::printf("history feedback: cannot create temp store, skipping\n");
    return;
  }
  auto store = emcalc::obs::HistoryStore::Open(dir);
  if (!store.ok()) {
    std::printf("history feedback: %s\n", store.status().ToString().c_str());
    return;
  }
  // The cold/warm comparison needs its own store; remember any
  // process-global one (EMCALC_HISTORY_DIR) and restore it after.
  emcalc::obs::HistoryStore* previous = emcalc::obs::GetHistoryStore();
  emcalc::obs::SetHistoryStore(store->get());

  // Cold: the store is empty, every estimate is heuristic; running
  // records actuals. Warm: recompiling consults those actuals.
  std::vector<double> cold_factors, warm_factors;
  std::vector<emcalc::Relation> cold_answers, warm_answers;
  size_t cold_corrected = 0, warm_corrected = 0;
  bool ok = RunCorpusPass(cold_factors, cold_corrected, cold_answers) &&
            RunCorpusPass(warm_factors, warm_corrected, warm_answers);
  emcalc::obs::SetHistoryStore(previous);
  if (!ok) {
    std::printf("history feedback: corpus pass failed\n");
    return;
  }

  bool identical = cold_answers.size() == warm_answers.size();
  for (size_t i = 0; identical && i < cold_answers.size(); ++i) {
    identical = cold_answers[i] == warm_answers[i];
  }
  double cold_p90 = PercentileOfValues(cold_factors, 90);
  double warm_p90 = PercentileOfValues(warm_factors, 90);
  double cold_worst =
      cold_factors.empty()
          ? 0
          : *std::max_element(cold_factors.begin(), cold_factors.end());
  double warm_worst =
      warm_factors.empty()
          ? 0
          : *std::max_element(warm_factors.begin(), warm_factors.end());
  bool pass = identical && warm_p90 < cold_p90;

  std::printf("%-18s %12s %12s\n", "", "cold store", "warm store");
  std::printf("%-18s %12.2f %12.2f\n", "p90 factor", cold_p90, warm_p90);
  std::printf("%-18s %12.2f %12.2f\n", "worst factor", cold_worst,
              warm_worst);
  std::printf("%-18s %12zu %12zu\n", "corrected ops", cold_corrected,
              warm_corrected);
  std::printf("answers bit-identical: %s\n", identical ? "yes" : "NO");
  std::printf("self-judgement: %s (warm p90 %s cold p90)\n\n",
              pass ? "pass" : "FAIL", warm_p90 < cold_p90 ? "<" : ">=");

  std::string fields = "\"bench\":\"plan_quality\"";
  fields += ",\"variant\":\"history_feedback\"";
  char num[64];
  std::snprintf(num, sizeof(num), "%.6g", cold_p90);
  fields += ",\"cold_p90_factor\":" + std::string(num);
  std::snprintf(num, sizeof(num), "%.6g", warm_p90);
  fields += ",\"warm_p90_factor\":" + std::string(num);
  std::snprintf(num, sizeof(num), "%.6g", cold_worst);
  fields += ",\"cold_worst_factor\":" + std::string(num);
  std::snprintf(num, sizeof(num), "%.6g", warm_worst);
  fields += ",\"warm_worst_factor\":" + std::string(num);
  fields += ",\"ops_sampled\":" + std::to_string(cold_factors.size());
  fields += ",\"warm_corrected_ops\":" + std::to_string(warm_corrected);
  fields += ",\"cold_corrected_ops\":" + std::to_string(cold_corrected);
  fields += ",\"results_identical\":";
  fields += identical ? "true" : "false";
  fields += ",\"pass\":";
  fields += pass ? "true" : "false";
  emcalc::bench::AppendRecordLine("BENCH_quality.json", fields);
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

  ReportHistoryFeedback();
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
