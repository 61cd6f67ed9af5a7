// Tests for the durable history store (src/obs/history.h) and the
// est-vs-actual feedback loop it closes: record/reload round trips,
// crash-truncated tails, generation compaction, concurrent recording from
// the thread pool (run under TSAN in CI), the misestimate-factor guards,
// and the end-to-end estimate correction — a warm store must change
// lowered estimates (with provenance in EXPLAIN ANALYZE) while answers
// stay bit-identical across cold/warm stores and thread counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/calculus/parser.h"
#include "src/core/compiler.h"
#include "src/core/workload.h"
#include "src/exec/feedback.h"
#include "src/exec/lower.h"
#include "src/obs/history.h"
#include "src/obs/query_log.h"
#include "src/translate/pipeline.h"

namespace emcalc {
namespace {

// A fresh directory under the test tmpdir; removed at scope exit.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    path_ = ::testing::TempDir() + "emcalc_" + tag + "_" +
            std::to_string(::getpid());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Installs `store` as the process-global sink; restores the previous one.
class ScopedHistoryStore {
 public:
  explicit ScopedHistoryStore(obs::HistoryStore* store)
      : saved_(obs::GetHistoryStore()) {
    obs::SetHistoryStore(store);
  }
  ~ScopedHistoryStore() { obs::SetHistoryStore(saved_); }

 private:
  obs::HistoryStore* saved_;
};

obs::RunRecord MakeRun(uint64_t hash, uint64_t wall_ns,
                       uint64_t actual_rows) {
  obs::RunRecord run;
  run.query_hash = hash;
  run.query = "{x | Q" + std::to_string(hash) + "(x)}";
  run.wall_ns = wall_ns;
  run.peak_bytes = 1 << 16;
  run.rows_out = actual_rows;
  obs::RunRecord::Op op;
  op.path = "FilterSelect/0:Scan";
  op.op = "Scan(R)";
  op.est_rows = 100;
  op.actual_rows = actual_rows;
  op.factor = MisestimateFactor(op.est_rows,
                                static_cast<double>(op.actual_rows));
  run.ops.push_back(op);
  return run;
}

const obs::QueryHistory* FindHash(const obs::HistoryScan& scan,
                                  uint64_t hash) {
  for (const obs::QueryHistory& h : scan.entries) {
    if (h.query_hash == hash) return &h;
  }
  return nullptr;
}

TEST(HistoryStoreTest, RecordReloadRoundTrip) {
  ScopedTempDir dir("hist_rt");
  {
    auto store = obs::HistoryStore::Open(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    (*store)->RecordRun(MakeRun(7, 1000, 10));
    (*store)->RecordRun(MakeRun(7, 3000, 30));
    (*store)->RecordRun(MakeRun(9, 2000, 50));
    EXPECT_EQ((*store)->query_count(), 2u);
    EXPECT_EQ((*store)->total_runs(), 3u);
    auto est = (*store)->LookupEstimate(7, "FilterSelect/0:Scan");
    ASSERT_TRUE(est.has_value());
    EXPECT_DOUBLE_EQ(est->est_rows, 20.0);  // mean of 10 and 30
    EXPECT_EQ(est->runs, 2u);
  }
  // Reopen: the JSON-Lines log replays to the same aggregates.
  auto store = obs::HistoryStore::Open(dir.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->query_count(), 2u);
  EXPECT_EQ((*store)->total_runs(), 3u);
  EXPECT_EQ((*store)->bad_lines(), 0u);
  auto est = (*store)->LookupEstimate(7, "FilterSelect/0:Scan");
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->est_rows, 20.0);
  EXPECT_EQ(est->runs, 2u);
  EXPECT_FALSE((*store)->LookupEstimate(7, "NoSuchPath").has_value());
  EXPECT_FALSE((*store)->LookupEstimate(8, "FilterSelect/0:Scan").has_value());

  obs::HistoryScan scan = (*store)->Scan();
  const obs::QueryHistory* h7 = FindHash(scan, 7);
  ASSERT_NE(h7, nullptr);
  EXPECT_EQ(h7->runs, 2u);
  EXPECT_EQ(h7->rows_out_last, 30u);
  EXPECT_EQ(h7->wall.count, 2u);
  EXPECT_DOUBLE_EQ(h7->MeanWallNs(), 2000.0);
  ASSERT_EQ(h7->wall_trend.size(), 2u);
  EXPECT_EQ(h7->wall_trend[0], 1000u);  // oldest first
  EXPECT_EQ(h7->wall_trend[1], 3000u);
  EXPECT_GE(obs::HistoryWallPercentile(*h7, 90), 3000.0);
}

TEST(HistoryStoreTest, TruncatedTailSkippedAndRepaired) {
  ScopedTempDir dir("hist_torn");
  std::string file = obs::ResolveHistoryPath(dir.path());
  {
    auto store = obs::HistoryStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    (*store)->RecordRun(MakeRun(1, 100, 5));
    (*store)->RecordRun(MakeRun(2, 200, 5));
  }
  // Simulate a crash mid-append: a torn final line with no newline.
  {
    std::ofstream out(file, std::ios::app | std::ios::binary);
    out << R"({"v":1,"type":"run","hash":"3","que)";
  }
  {
    auto store = obs::HistoryStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.value()->bad_lines(), 1u);  // torn line skipped
    EXPECT_EQ(store.value()->total_runs(), 2u);
    // The reopened store must keep appending valid lines after the torn
    // tail (a newline is patched in before the next record).
    store.value()->RecordRun(MakeRun(4, 400, 5));
  }
  auto store = obs::HistoryStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->bad_lines(), 1u);
  EXPECT_EQ(store.value()->total_runs(), 3u);
  EXPECT_NE(FindHash(store.value()->Scan(), 4), nullptr);
}

TEST(HistoryStoreTest, ReadHistoryFileMatchesStoreScan) {
  ScopedTempDir dir("hist_read");
  {
    auto store = obs::HistoryStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    (*store)->RecordRun(MakeRun(5, 100, 8));
    (*store)->RecordRun(MakeRun(6, 100, 8));
  }
  // Both the directory and the file spell the same store.
  auto scan = obs::ReadHistoryFile(obs::ResolveHistoryPath(dir.path()));
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->entries.size(), 2u);
  EXPECT_EQ(scan->total_runs, 2u);
  // entries are sorted by hash.
  EXPECT_EQ(scan->entries[0].query_hash, 5u);
  EXPECT_EQ(scan->entries[1].query_hash, 6u);
  EXPECT_FALSE(
      obs::ReadHistoryFile(dir.path() + "/no_such_file.jsonl").ok());
}

// tests/testdata/history_v1.jsonl was written by the HistoryStore that
// predates the RunRecord (version-1 run lines spell hash, aborted and
// par_eff): one agg line for hash A (three runs, one plain error), an
// aborted run line for A, two parallel run lines for hash 42, and a tail
// torn by a crash. It must load to the aggregates the version-1 loader
// produced.
TEST(HistoryStoreTest, VersionOneStoreStillLoads) {
  const std::string v1 =
      std::string(EMCALC_TESTDATA_DIR) + "/history_v1.jsonl";
  auto scan = obs::ReadHistoryFile(v1);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->bad_lines, 1u);
  EXPECT_EQ(scan->generation, 1u);
  EXPECT_EQ(scan->total_runs, 6u);
  ASSERT_EQ(scan->entries.size(), 2u);

  constexpr uint64_t kHashA = 17297757506775570040ULL;  // above 2^53
  const obs::QueryHistory* a = FindHash(*scan, kHashA);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->query, "{x | A(x)}");
  EXPECT_EQ(a->runs, 4u);
  EXPECT_EQ(a->aborts, 1u);
  EXPECT_EQ(a->errors, 1u);
  EXPECT_EQ(a->rows_out_last, 7u);
  EXPECT_EQ(a->par_runs, 0u);
  EXPECT_EQ(a->wall.count, 4u);
  EXPECT_DOUBLE_EQ(a->wall.sum, 11e6);
  EXPECT_DOUBLE_EQ(a->factor_worst, 10.0);
  ASSERT_EQ(a->ops.size(), 2u);
  EXPECT_EQ(a->ops.at("Scan").runs, 4u);
  EXPECT_DOUBLE_EQ(a->ops.at("Scan").MeanActual(), 6.75);
  EXPECT_DOUBLE_EQ(a->ops.at("HashJoin/0:Scan").MeanActual(), 6.75);

  const obs::QueryHistory* b = FindHash(*scan, 42);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->runs, 2u);
  EXPECT_EQ(b->aborts, 0u);
  EXPECT_EQ(b->errors, 0u);
  EXPECT_EQ(b->rows_out_last, 90u);
  EXPECT_EQ(b->par_runs, 2u);
  EXPECT_DOUBLE_EQ(b->par_eff_sum, 1.125);
  ASSERT_EQ(b->ops.size(), 2u);
  EXPECT_DOUBLE_EQ(b->ops.at("Scan").MeanActual(), 95.0);
  EXPECT_DOUBLE_EQ(b->ops.at("HashJoin/0:Scan").MeanActual(), 95.0);
  EXPECT_DOUBLE_EQ(b->ops.at("HashJoin/0:Scan").factor_worst, 10.0);

  // A store opened on the version-1 file appends version-2 run lines, and
  // the mixed file reloads with every run counted.
  ScopedTempDir dir("hist_v1");
  std::filesystem::copy_file(v1, obs::ResolveHistoryPath(dir.path()));
  {
    auto store = obs::HistoryStore::Open(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    (*store)->RecordRun(MakeRun(42, 500000, 80));
  }
  auto mixed = obs::ReadHistoryFile(obs::ResolveHistoryPath(dir.path()));
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed->bad_lines, 1u);
  EXPECT_EQ(mixed->total_runs, 7u);
  const obs::QueryHistory* b2 = FindHash(*mixed, 42);
  ASSERT_NE(b2, nullptr);
  EXPECT_EQ(b2->runs, 3u);
  EXPECT_EQ(b2->rows_out_last, 80u);
  EXPECT_EQ(b2->par_runs, 2u);
}

TEST(HistoryStoreTest, CompactionFoldsRunsIntoAggGenerations) {
  ScopedTempDir dir("hist_compact");
  obs::HistoryStore::Options options;
  options.max_bytes = 4096;  // force several compactions
  constexpr uint64_t kRuns = 300;
  {
    auto store = obs::HistoryStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < kRuns; ++i) {
      (*store)->RecordRun(MakeRun(1 + i % 3, 100 * i, 10 + i));
    }
    EXPECT_GE((*store)->generation(), 1u);
    EXPECT_EQ((*store)->total_runs(), kRuns);
    EXPECT_EQ((*store)->query_count(), 3u);
  }
  // The compacted file is agg lines plus a short run tail — far fewer
  // lines than runs — and reloads to the identical aggregate state.
  std::ifstream in(obs::ResolveHistoryPath(dir.path()));
  size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_LT(lines, kRuns / 2);

  auto store = obs::HistoryStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->total_runs(), kRuns);
  EXPECT_EQ((*store)->query_count(), 3u);
  EXPECT_GE((*store)->generation(), 1u);
  EXPECT_EQ((*store)->bad_lines(), 0u);
  auto est = (*store)->LookupEstimate(1, "FilterSelect/0:Scan");
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(est->runs, kRuns / 3);
}

TEST(HistoryStoreTest, ExplicitCompactPreservesEstimates) {
  ScopedTempDir dir("hist_force");
  auto store = obs::HistoryStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  (*store)->RecordRun(MakeRun(11, 500, 40));
  (*store)->RecordRun(MakeRun(11, 700, 60));
  uint64_t gen = (*store)->generation();
  (*store)->Compact();
  EXPECT_EQ((*store)->generation(), gen + 1);
  auto est = (*store)->LookupEstimate(11, "FilterSelect/0:Scan");
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->est_rows, 50.0);
  // And the compacted file alone reproduces it.
  auto reload = obs::HistoryStore::Open(dir.path());
  ASSERT_TRUE(reload.ok());
  auto est2 = (*reload)->LookupEstimate(11, "FilterSelect/0:Scan");
  ASSERT_TRUE(est2.has_value());
  EXPECT_DOUBLE_EQ(est2->est_rows, 50.0);
  EXPECT_EQ(est2->runs, 2u);
}

// CI runs this under TSAN with EMCALC_HARDWARE_THREADS=4: every pool
// worker records into the same store, and nothing may be lost or torn.
TEST(HistoryStoreTest, ConcurrentRecordingOnPoolLosesNothing) {
  ScopedTempDir dir("hist_conc");
  constexpr size_t kRuns = 400;
  obs::HistoryStore::Options options;
  options.max_bytes = 16384;  // let compactions race the writers too
  {
    auto store = obs::HistoryStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    obs::HistoryStore* s = store->get();
    ThreadPool::Global().ParallelFor(
        kRuns, /*grain=*/8, /*max_workers=*/4,
        [s](size_t /*worker*/, size_t begin, size_t end) {
          for (size_t t = begin; t < end; ++t) {
            s->RecordRun(MakeRun(1 + t % 8, 10 * t, t));
          }
        });
    EXPECT_EQ(s->total_runs(), kRuns);
    EXPECT_EQ(s->query_count(), 8u);
    uint64_t scan_runs = 0;
    for (const obs::QueryHistory& h : s->Scan().entries) {
      scan_runs += h.runs;
    }
    EXPECT_EQ(scan_runs, kRuns);
  }
  // A clean reload proves no record was torn on disk.
  auto store = obs::HistoryStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->bad_lines(), 0u);
  EXPECT_EQ((*store)->total_runs(), kRuns);
  EXPECT_EQ((*store)->query_count(), 8u);
}

TEST(MisestimateFactorTest, EdgeCasesStayFinite) {
  // Perfect and near-trivial estimates.
  EXPECT_DOUBLE_EQ(MisestimateFactor(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(MisestimateFactor(100, 100), 1.0);
  // Symmetric over/under.
  EXPECT_DOUBLE_EQ(MisestimateFactor(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(MisestimateFactor(100, 10), 10.0);
  // A zero on one side must not divide to infinity.
  EXPECT_DOUBLE_EQ(MisestimateFactor(0, 5), 5.0);
  EXPECT_DOUBLE_EQ(MisestimateFactor(5, 0), 5.0);
  // Non-finite and astronomically large inputs are capped.
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(MisestimateFactor(inf, 10), kMisestimateFactorCap);
  EXPECT_DOUBLE_EQ(MisestimateFactor(1e308, 1), kMisestimateFactorCap);
  EXPECT_TRUE(std::isfinite(MisestimateFactor(inf, inf)));
}

TEST(MisestimateFactorTest, FeedbackJsonHasNoInfinity) {
  // A zero estimate against a huge actual used to serialize "inf", which
  // is not JSON. The guard caps the factor and keeps the record parseable.
  ExecProfile profile;
  profile.op = PhysOpKind::kFilterSelect;
  profile.stats.est_rows = 0;
  profile.stats.rows_out = 1u << 20;
  obs::RunRecord run =
      BuildRunRecord(0, "", Status::Ok(), 1u << 20, 0, 1, profile);
  ASSERT_EQ(run.ops.size(), 1u);
  EXPECT_TRUE(std::isfinite(run.ops[0].factor));
  std::string json = "{\"event\":\"run\"";
  obs::AppendRunRecordJson(run, json);
  json += "}";
  EXPECT_TRUE(obs::ParseJson(json).ok()) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

// The plan side (PlanOpPaths, used at lowering time) and the profile side
// (BuildRunRecord, used at recording time) must derive identical
// operator paths, or the feedback loop silently never matches.
TEST(HistoryFeedbackTest, PlanAndProfilePathsAlign) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x, y | R(x, y) and (S(x) or T(y))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto t = TranslateQuery(ctx, *q);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  FunctionRegistry registry = BuiltinFunctions();
  auto plan = Lower(ctx, t->plan, registry);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::set<std::string> plan_paths;
  for (const std::string& p : PlanOpPaths(*plan)) {
    if (!p.empty()) plan_paths.insert(p);
  }
  ASSERT_FALSE(plan_paths.empty());

  Database db;
  AddRandomTuples(db, "R", 2, 500, 40, 1);
  AddRandomTuples(db, "S", 1, 20, 40, 2);
  AddRandomTuples(db, "T", 1, 20, 40, 3);
  ExecProfile profile;
  auto answer = plan->ExecuteToRelation(db, &profile);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  obs::RunRecord run =
      BuildRunRecord(obs::HashQueryText("q"), "q", Status::Ok(),
                     answer->size(), 0, 1, profile);
  ASSERT_FALSE(run.ops.empty());
  for (const obs::RunRecord::Op& op : run.ops) {
    EXPECT_TRUE(plan_paths.count(op.path) > 0)
        << "profile path not derivable from the plan: " << op.path;
  }
}

// End to end through the compiler: a warm store corrects estimates (with
// provenance in the profile and EXPLAIN ANALYZE) and never changes
// answers — cold vs warm, and across thread counts.
TEST(HistoryFeedbackTest, WarmStoreCorrectsEstimatesKeepsAnswers) {
  ScopedTempDir dir("hist_e2e");
  auto store = obs::HistoryStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  ScopedHistoryStore scoped(store->get());

  Database db;
  AddRandomTuples(db, "R", 2, 1000, 50, 1);
  AddRandomTuples(db, "S", 1, 25, 50, 2);
  const std::string text = "{x, y | R(x, y) and S(x)}";

  // Cold: heuristic estimates only; the run records actuals.
  Compiler cold;
  auto q1 = cold.Compile(text);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  ExecProfile p1;
  auto a1 = q1->Run(db, &p1);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(CountHistoryCorrectedOps(p1), 0u);
  EXPECT_GT(store->get()->total_runs(), 0u);

  // Warm: recompiling consults the recorded actuals.
  Compiler warm;
  auto q2 = warm.Compile(text);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  ExecProfile p2;
  auto a2 = q2->Run(db, &p2);
  ASSERT_TRUE(a2.ok()) << a2.status().ToString();
  EXPECT_GT(CountHistoryCorrectedOps(p2), 0u);
  EXPECT_TRUE(*a1 == *a2);

  // Corrected ops carry their provenance in the run record — through its
  // JSON round trip — and into EXPLAIN ANALYZE; with est == past actual
  // they read as exact.
  obs::RunRecord run = BuildRunRecord(obs::HashQueryText(text), text,
                                      Status::Ok(), a2->size(), 0, 1, p2);
  std::string json = "{\"event\":\"run\"";
  obs::AppendRunRecordJson(run, json);
  json += "}";
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  obs::RunRecord read_back = obs::RunRecordFromJson(*parsed);
  EXPECT_TRUE(read_back == run) << json;
  bool corrected = false;
  for (const obs::RunRecord::Op& op : read_back.ops) {
    if (op.est_history_runs > 0) corrected = true;
  }
  EXPECT_TRUE(corrected) << json;
  auto explain = q2->ExplainAnalyze(db);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("[history:"), std::string::npos) << *explain;

  // Thread counts do not perturb the answer, warm or cold.
  AstContext ctx;
  auto q = ParseQuery(ctx, text);
  ASSERT_TRUE(q.ok());
  auto t = TranslateQuery(ctx, *q);
  ASSERT_TRUE(t.ok());
  FunctionRegistry registry = BuiltinFunctions();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecOptions options;
    options.num_threads = threads;
    options.query_hash = obs::HashQueryText(text);
    auto plan = Lower(ctx, t->plan, registry, options);
    ASSERT_TRUE(plan.ok());
    auto answer = plan->ExecuteToRelation(db, nullptr);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(*answer == *a1) << "threads=" << threads;
  }
}

// A parameterized query runs one plan lowered with its query hash at
// compile time: plain Run calls record actuals (pooled over the argument
// mix under the unparameterized text), and a query compiled against the
// warm store runs with corrected estimates and unchanged answers.
TEST(HistoryFeedbackTest, ParameterizedRunsRecordAndUseHistory) {
  ScopedTempDir dir("hist_param");
  auto store = obs::HistoryStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  ScopedHistoryStore scoped(store->get());

  Database db;
  AddRandomTuples(db, "R", 2, 1000, 20, 1);
  AddRandomTuples(db, "S", 1, 10, 20, 2);
  const std::string text = "{y | R(p, y) and S(y)}";
  const std::vector<std::vector<Value>> bindings = {
      {Value::Int(1)}, {Value::Int(4)}, {Value::Int(7)}};

  Compiler cold;
  auto q1 = cold.CompileParameterized(text, {"p"});
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  std::vector<Relation> cold_answers;
  for (const std::vector<Value>& args : bindings) {
    auto answer = q1->Run(db, args);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    cold_answers.push_back(std::move(answer).value());
  }
  EXPECT_EQ(store->get()->total_runs(), bindings.size());

  Compiler warm;
  auto q2 = warm.CompileParameterized(text, {"p"});
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  ExecProfile profile;
  auto profiled = q2->Run(db, bindings[0], &profile);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_GT(CountHistoryCorrectedOps(profile), 0u);
  for (size_t i = 0; i < bindings.size(); ++i) {
    auto answer = q2->Run(db, bindings[i]);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(*answer == cold_answers[i]) << "binding " << i;
  }
  auto explain = q2->ExplainAnalyze(db, bindings[1]);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("[history:"), std::string::npos) << *explain;
}

}  // namespace
}  // namespace emcalc
