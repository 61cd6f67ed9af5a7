// Tests for the observability subsystem (src/obs/): span tracer, metrics
// registry, compile profiling, query log — plus the end-to-end acceptance
// check that a single trace captures both compile-phase and per-operator
// execution spans.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/string_pool.h"
#include "src/base/thread_pool.h"
#include "src/base/value.h"
#include "src/core/compiler.h"
#include "src/exec/feedback.h"
#include "src/obs/compile_profile.h"
#include "src/obs/inspect.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/run_record.h"
#include "src/obs/trace.h"
#include "src/storage/csv.h"

namespace emcalc {
namespace {

// Installs `tracer` for the test's scope; restores the previous tracer.
class ScopedTracer {
 public:
  explicit ScopedTracer(obs::Tracer* tracer) : saved_(obs::GetTracer()) {
    obs::SetTracer(tracer);
  }
  ~ScopedTracer() { obs::SetTracer(saved_); }

 private:
  obs::Tracer* saved_;
};

TEST(TraceTest, DisabledSpanIsInert) {
  ScopedTracer scope(nullptr);
  obs::Span span("test.disabled");
  EXPECT_FALSE(span.enabled());
  span.SetDetail("ignored");  // must not crash or allocate into a tracer
}

TEST(TraceTest, SpansRecordNamesDetailsAndNesting) {
  obs::Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    obs::Span outer("test.outer");
    {
      obs::Span inner("test.inner");
      ASSERT_TRUE(inner.enabled());
      inner.SetDetail("rows=3");
    }
  }
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner destructs first, so it is recorded first.
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].detail, "rows=3");
  EXPECT_STREQ(events[1].name, "test.outer");
  // Time containment: inner lies within [outer.start, outer.end].
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(TraceTest, ConcurrentSpansNestPerThread) {
  obs::Tracer tracer;
  ScopedTracer scope(&tracer);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      obs::Span outer("test.thread_outer");
      for (int i = 0; i < 2; ++i) {
        obs::Span inner("test.thread_inner");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * 3));
  // Group by thread: each thread contributes one outer and two inner
  // events, and the inners are time-contained in that thread's outer.
  std::map<uint32_t, std::vector<const obs::TraceEvent*>> by_tid;
  for (const obs::TraceEvent& e : events) by_tid[e.tid].push_back(&e);
  ASSERT_EQ(by_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, own] : by_tid) {
    ASSERT_EQ(own.size(), 3u);
    const obs::TraceEvent* outer = nullptr;
    for (const obs::TraceEvent* e : own) {
      if (std::string(e->name) == "test.thread_outer") outer = e;
    }
    ASSERT_NE(outer, nullptr);
    for (const obs::TraceEvent* e : own) {
      if (e == outer) continue;
      EXPECT_STREQ(e->name, "test.thread_inner");
      EXPECT_GE(e->start_ns, outer->start_ns);
      EXPECT_LE(e->start_ns + e->dur_ns, outer->start_ns + outer->dur_ns);
    }
  }
}

TEST(TraceTest, ChromeTraceJsonIsValidAndComplete) {
  obs::Tracer tracer;
  ScopedTracer scope(&tracer);
  {
    obs::Span span("test.escaped");
    span.SetDetail("quote=\" backslash=\\ newline=\n");
  }
  { obs::Span span("test.plain"); }

  std::string json = tracer.ToChromeTraceJson();
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  std::set<std::string> names;
  for (const obs::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    names.insert(e.StringOr("name", ""));
    EXPECT_EQ(e.StringOr("ph", ""), "X");
    EXPECT_EQ(e.NumberOr("pid", -1), 1);
    EXPECT_NE(e.Find("ts"), nullptr);
    EXPECT_NE(e.Find("dur"), nullptr);
  }
  EXPECT_TRUE(names.count("test.escaped"));
  EXPECT_TRUE(names.count("test.plain"));
  // The escaped detail survives the JSON round-trip.
  for (const obs::JsonValue& e : events->array) {
    if (e.StringOr("name", "") != "test.escaped") continue;
    const obs::JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->StringOr("detail", ""),
              "quote=\" backslash=\\ newline=\n");
  }
}

TEST(MetricsTest, CountersAndGauges) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Counter& c = reg.GetCounter("test.counter");
  c.Reset();
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same object.
  EXPECT_EQ(&reg.GetCounter("test.counter"), &c);

  obs::Gauge& g = reg.GetGauge("test.gauge");
  g.Set(7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(MetricsTest, HistogramPercentilesAreExactOnBucketBounds) {
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(i);
  obs::Histogram h(bounds);
  // One observation at each bound: Percentile(p) must return exactly p.
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 1.0);
}

TEST(MetricsTest, HistogramOverflowBucketReportsMax) {
  obs::Histogram h({10.0, 20.0});
  h.Observe(5);
  h.Observe(1000);  // overflow
  std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
}

TEST(MetricsTest, SnapshotsAreWellFormed) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  reg.GetCounter("test.snapshot_counter").Add(5);
  reg.GetHistogram("test.snapshot_hist").Observe(1500.0);

  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("test.snapshot_counter"), std::string::npos);
  EXPECT_NE(text.find("test.snapshot_hist"), std::string::npos);

  auto doc = obs::ParseJson(reg.JsonSnapshot());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->Find("test.snapshot_counter"), nullptr);
  const obs::JsonValue* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::JsonValue* hist = hists->Find("test.snapshot_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->NumberOr("count", 0), 1.0);
}

TEST(MetricsTest, GaugeUpdateMaxIsMonotone) {
  obs::Gauge g;
  g.UpdateMax(10);
  EXPECT_EQ(g.value(), 10);
  g.UpdateMax(3);  // never lowers
  EXPECT_EQ(g.value(), 10);
  g.UpdateMax(25);
  EXPECT_EQ(g.value(), 25);
}

TEST(MetricsTest, GaugeUpdateMaxKeepsGlobalMaxUnderConcurrency) {
  obs::Gauge g;
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      // Interleaved ranges so every thread repeatedly races a smaller
      // value against another thread's larger one.
      for (int64_t i = 0; i < kPerThread; ++i) {
        g.UpdateMax(i * kThreads + t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g.value(), (kPerThread - 1) * kThreads + (kThreads - 1));
}

TEST(MetricsTest, HistogramSnapshotIsSelfConsistentUnderConcurrency) {
  obs::Histogram h({10.0, 100.0, 1000.0});
  std::atomic<bool> stop{false};
  // Writers observe in (sum == 111 * count)-preserving batches; a third
  // thread resets. Any snapshot interleaving with them must still satisfy
  // the struct's invariants — the per-accessor-lock reads this replaced
  // could observe a count from one state and a sum from another.
  auto writer = [&h, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      h.Observe(5);
      h.Observe(50);
      h.Observe(56);
    }
  };
  std::thread w1(writer), w2(writer);
  std::thread resetter([&h, &stop] {
    while (!stop.load(std::memory_order_relaxed)) h.Reset();
  });
  for (int i = 0; i < 20'000; ++i) {
    obs::Histogram::Snapshot snap = h.TakeSnapshot();
    uint64_t bucket_total = 0;
    for (uint64_t c : snap.counts) bucket_total += c;
    ASSERT_EQ(bucket_total, snap.count);
    if (snap.count == 0) {
      ASSERT_EQ(snap.sum, 0.0);
    } else {
      // Observations arrive in batches summing to 111; partial batches
      // keep the average within the batch's value range.
      ASSERT_GE(snap.sum, 5.0 * static_cast<double>(snap.count));
      ASSERT_LE(snap.sum, 56.0 * static_cast<double>(snap.count));
      // Percentiles report bucket upper bounds: 5 lands in the ≤10
      // bucket, 50 and 56 in the ≤100 bucket.
      double p50 = h.PercentileOf(snap, 50);
      ASSERT_TRUE(p50 == 10.0 || p50 == 100.0) << p50;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  w1.join();
  w2.join();
  resetter.join();
}

TEST(MetricsTest, StringPoolBytesGaugeTracksInterning) {
  obs::Gauge& gauge =
      obs::MetricsRegistry::Instance().GetGauge("storage.string_pool_bytes");
  int64_t before = gauge.value();
  // A fresh never-interned string must grow the pool and the gauge.
  Value::Str("obs_test.string_pool_bytes.sentinel.value-1");
  EXPECT_GT(gauge.value(), before);
  EXPECT_EQ(static_cast<uint64_t>(gauge.value()),
            StringPool::Global().bytes());
  // Re-interning the same string is free.
  int64_t after = gauge.value();
  Value::Str("obs_test.string_pool_bytes.sentinel.value-1");
  EXPECT_EQ(gauge.value(), after);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("{}extra").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\":}").ok());
  EXPECT_TRUE(obs::ParseJson("{\"a\":[1,2.5,\"s\",true,null]}").ok());
}

TEST(QueryLogTest, RecordRoundTripsThroughJson) {
  obs::QueryLogRecord r;
  r.event = "compile";
  r.run.query = "{x | R(x) and \"quoted\"}";
  r.run.query_hash = obs::HashQueryText(r.run.query);
  r.run.ok = false;
  r.run.error = "NOT_SAFE: unbounded variable";
  r.run.wall_ns = 123456;
  r.em_allowed = false;
  r.level = 3;
  r.find_count = 4;
  r.ranf_size = 17;
  r.plan_nodes = 9;
  r.string_pool_size = 42;
  r.phase_ns = {{"parse", 1000}, {"translate.safety", 2500}};

  std::string line = obs::QueryLogRecordToJson(r);
  auto parsed = obs::ParseQueryLogRecord(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  EXPECT_EQ(parsed->event, r.event);
  EXPECT_EQ(parsed->run, r.run);
  EXPECT_EQ(parsed->em_allowed, r.em_allowed);
  EXPECT_EQ(parsed->level, r.level);
  EXPECT_EQ(parsed->find_count, r.find_count);
  EXPECT_EQ(parsed->ranf_size, r.ranf_size);
  EXPECT_EQ(parsed->plan_nodes, r.plan_nodes);
  EXPECT_EQ(parsed->string_pool_size, r.string_pool_size);
  EXPECT_EQ(parsed->phase_ns, r.phase_ns);
  // A compile record carries no execution fields.
  EXPECT_EQ(line.find("rows_out"), std::string::npos) << line;
  EXPECT_EQ(line.find("\"ops\""), std::string::npos) << line;
}

// The one RunRecord writer and reader are inverse: every field survives,
// including the per-op samples and a hash above 2^53 (which a JSON number
// would round).
TEST(RunRecordTest, WriterThenReaderIsTheIdentity) {
  obs::RunRecord run;
  run.query_hash = (uint64_t{1} << 53) + 12345;
  run.query = "{x | R(x) and \"quoted\"}";
  run.ok = false;
  run.error = "RESOURCE_EXHAUSTED: max_bytes exceeded: used 9 bytes";
  run.aborted_limit = "max_bytes";
  run.wall_ns = 987654321;
  run.exec_threads = 4;
  run.peak_bytes = 1 << 20;
  run.bytes_allocated = 3 << 20;
  run.parallel_efficiency = 0.6180339887498949;
  run.par_workers = 4;
  run.ops = {{"Diff", "Diff", 3},
             {"Diff/0:HashJoin", "HashJoin(keys=1)", 100000000},
             {"Diff/1:Scan", "Scan(R)", 0}};
  // The sort split: an operator that sorted, and one that only deduped.
  run.ops[0].rows_sorted = 9900;
  run.ops[0].normalize_ns = 1'234'567;
  run.ops[1].normalize_ns = 89;

  std::string json = "{\"k\":0";
  obs::AppendRunRecordJson(run, json);
  json += "}";
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  EXPECT_EQ(obs::RunRecordFromJson(*doc), run) << json;

  // Zero and empty members are omitted and read back as their defaults.
  obs::RunRecord empty;
  json = "{\"k\":0";
  obs::AppendRunRecordJson(empty, json);
  json += "}";
  EXPECT_EQ(json,
            "{\"k\":0,\"query_hash\":\"0\",\"ok\":true,\"wall_ns\":0}");
  doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(obs::RunRecordFromJson(*doc), empty);
}

// A record built from a real run writes only the members RunRecord has:
// none of the estimate keys older records carry (est, factor,
// est_history_runs, est_history_ops, misestimate_*). Those keys in an old
// line are ignored, and the rest of the line still loads.
TEST(RunRecordTest, FreshRecordsWriteNoEstimateKeys) {
  Compiler compiler;
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "R", "1,2\n2,3\n3,3\n").ok());
  ASSERT_TRUE(LoadCsvText(db, "S", "2\n3\n").ok());
  auto q = compiler.Compile("{x | exists y (R(x, y) and S(y))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ExecProfile profile;
  auto answer = q->Run(db, &profile);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  obs::RunRecord run = BuildRunRecord(7, "q", answer.status(),
                                      answer->size(), 1000, 1, profile);
  ASSERT_FALSE(run.ops.empty());
  std::string json = "{\"k\":0";
  obs::AppendRunRecordJson(run, json);
  json += "}";
  for (const char* key : {"\"est\"", "\"factor\"", "\"est_history_runs\"",
                          "\"est_history_ops\"", "misestimate"}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key << " in " << json;
  }
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << json;
  EXPECT_EQ(obs::RunRecordFromJson(*doc), run) << json;

  auto old = obs::ParseJson(
      "{\"query_hash\":\"9\",\"ok\":true,\"wall_ns\":5,\"rows_out\":2,"
      "\"est_history_ops\":1,\"misestimate_factor\":4,"
      "\"misestimate_op\":\"Scan(R)\",\"ops\":[{\"path\":\"Scan\","
      "\"op\":\"Scan(R)\",\"est\":0.5,\"actual\":2,\"factor\":4,"
      "\"est_history_runs\":3}]}");
  ASSERT_TRUE(old.ok());
  obs::RunRecord loaded = obs::RunRecordFromJson(*old);
  EXPECT_EQ(loaded.query_hash, 9u);
  EXPECT_EQ(loaded.wall_ns, 5u);
  EXPECT_EQ(loaded.rows_out, 2u);
  ASSERT_EQ(loaded.ops.size(), 1u);
  EXPECT_EQ(loaded.ops[0], (obs::RunRecord::Op{"Scan", "Scan(R)", 2}));
}

// Counts read from JSON are checked, never cast blindly: a negative,
// non-finite or out-of-range value yields the fallback.
TEST(JsonTest, UintOrRejectsValuesOutsideTheTargetType) {
  auto doc = obs::ParseJson(
      "{\"neg\":-1,\"frac\":2.75,\"huge\":1e300,"
      "\"u32max\":4294967295,\"u32over\":4294967296,"
      "\"two64\":18446744073709551616,\"big\":9007199254740992,"
      "\"str\":\"5\"}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // The parser rejects out-of-range literals, so non-finite numbers only
  // arrive in documents built in memory.
  for (double v : {std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    obs::JsonValue number;
    number.kind = obs::JsonValue::Kind::kNumber;
    number.number = v;
    doc->object.emplace_back(std::isnan(v) ? "nan" : "inf", number);
  }
  EXPECT_EQ(doc->UintOr("neg", 7), 7u);
  EXPECT_EQ(doc->UintOr("frac", 7), 2u);
  EXPECT_EQ(doc->UintOr("huge", 7), 7u);
  EXPECT_EQ(doc->UintOr("inf", 7), 7u);
  EXPECT_EQ(doc->UintOr("nan", 7), 7u);
  EXPECT_EQ(doc->UintOr("two64", 7), 7u);
  EXPECT_EQ(doc->UintOr("big", 7), uint64_t{1} << 53);
  EXPECT_EQ(doc->UintOr<uint32_t>("u32max", 7), 4294967295u);
  EXPECT_EQ(doc->UintOr<uint32_t>("u32over", 7), 7u);
  EXPECT_EQ(doc->UintOr<int>("u32max", 7), 7);
  EXPECT_EQ(doc->UintOr<int64_t>("neg", 7), 7);
  EXPECT_EQ(doc->UintOr("str", 7), 7u);
  EXPECT_EQ(doc->UintOr("absent", 7), 7u);
}

// A hostile query-log line with negative counts reads as 0, so inspect
// renders zeros instead of wrapped 64-bit values.
TEST(QueryLogTest, NegativeCountsReadAsZero) {
  obs::QueryLogScan scan = obs::ParseQueryLogText(
      "{\"event\":\"run\",\"query_hash\":\"1\",\"query\":\"{x | R(x)}\","
      "\"ok\":true,\"wall_ns\":-1,\"rows_out\":-3}\n");
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].run.wall_ns, 0u);
  EXPECT_EQ(scan.records[0].run.rows_out, 0u);
  EXPECT_EQ(obs::RenderTopSlowest(scan, 1),
            "top 1 slowest runs\n"
            "  1. 0.000ms rows=0  {x | R(x)}\n");
}

TEST(QueryLogTest, HashIsStableFnv1a) {
  // FNV-1a offset basis for the empty string; fixed across platforms.
  EXPECT_EQ(obs::HashQueryText(""), 14695981039346656037ULL);
  EXPECT_EQ(obs::HashQueryText("abc"), obs::HashQueryText("abc"));
  EXPECT_NE(obs::HashQueryText("abc"), obs::HashQueryText("abd"));
}

TEST(QueryLogTest, SinkEmitsOneValidJsonObjectPerLine) {
  std::ostringstream out;
  obs::QueryLog log(&out);
  obs::QueryLogRecord r;
  r.event = "run";
  r.run.query = "{x | R(x)}";
  r.run.rows_out = 2;
  log.Write(r);
  r.run.rows_out = 5;
  log.Write(r);

  std::istringstream in(out.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    auto doc = obs::ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
    EXPECT_EQ(doc->StringOr("event", ""), "run");
  }
  EXPECT_EQ(lines, 2);
}

TEST(CompileProfileTest, PhaseTimerBuildsTreeAndRenders) {
  obs::CompilePhase root;
  root.name = "compile";
  {
    obs::PhaseTimer parse(&root, "parse", "test.compile.parse");
  }
  {
    obs::PhaseTimer translate(&root, "translate", "test.compile.translate");
    obs::PhaseTimer safety(translate.phase(), "safety", "test.compile.safety");
    safety.SetDetail("em-allowed finds=2");
  }
  root.wall_ns = obs::ChildWallNs(root) + 10;

  ASSERT_NE(root.Find("parse"), nullptr);
  const obs::CompilePhase* translate = root.Find("translate");
  ASSERT_NE(translate, nullptr);
  const obs::CompilePhase* safety = translate->Find("safety");
  ASSERT_NE(safety, nullptr);
  EXPECT_EQ(safety->detail, "em-allowed finds=2");
  EXPECT_LE(obs::ChildWallNs(*translate), translate->wall_ns);

  std::string rendered = obs::CompileProfileToString(root);
  EXPECT_NE(rendered.find("parse"), std::string::npos);
  EXPECT_NE(rendered.find("safety"), std::string::npos);
  EXPECT_NE(rendered.find("em-allowed finds=2"), std::string::npos);

  auto flat = obs::FlattenPhases(root);
  std::vector<std::string> paths;
  for (const auto& [path, ns] : flat) paths.push_back(path);
  EXPECT_NE(std::find(paths.begin(), paths.end(), "parse"), paths.end());
  EXPECT_NE(std::find(paths.begin(), paths.end(), "translate.safety"),
            paths.end());
}

// --- End-to-end: the ISSUE acceptance criteria. ---

class ObsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadCsvText(db_, "EDGE", "1,2\n2,3\n3,1\n").ok());
  }

  Compiler compiler_;
  Database db_;
};

TEST_F(ObsEndToEndTest, SingleTraceContainsCompileAndExecSpans) {
  obs::Tracer tracer;
  ScopedTracer scope(&tracer);

  auto q = compiler_.Compile("{x | exists y (EDGE(x, y) and EDGE(y, x))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto answer = q->Run(db_);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  std::set<std::string> names;
  for (const obs::TraceEvent& e : tracer.Snapshot()) names.insert(e.name);
  // Compile-phase spans...
  for (const char* expected :
       {"compile", "compile.parse", "compile.translate", "compile.rectify",
        "compile.safety", "compile.enf", "compile.ranf",
        "compile.algebra_gen", "compile.optimize", "compile.lower",
        "safety.em_allowed", "finds.bd", "algebra.optimize", "exec.lower"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }
  // ...and per-operator execution spans in the same trace.
  EXPECT_TRUE(names.count("exec.run"));
  EXPECT_TRUE(names.count("exec.execute"));
  EXPECT_TRUE(names.count("Scan")) << "no per-operator span recorded";

  // The whole trace exports as valid Chrome trace JSON.
  auto doc = obs::ParseJson(tracer.ToChromeTraceJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array.size(), tracer.size());
}

TEST_F(ObsEndToEndTest, ExplainCompilePhasesCoverTotalWall) {
  // Phase durations must account for (nearly) the whole compile: take the
  // best coverage over several compiles to keep the check robust against
  // scheduler noise on a microsecond-scale measurement.
  double best = 0;
  for (int i = 0; i < 10; ++i) {
    auto q = compiler_.Compile(
        "{x | exists y (EDGE(x, y) and not exists z (EDGE(y, z) and "
        "EDGE(z, x)))}");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const obs::CompilePhase& profile = q->compile_profile();
    ASSERT_GT(profile.wall_ns, 0u);
    double coverage = static_cast<double>(obs::ChildWallNs(profile)) /
                      static_cast<double>(profile.wall_ns);
    EXPECT_LE(coverage, 1.0 + 1e-9);
    best = std::max(best, coverage);
  }
  EXPECT_GE(best, 0.9) << "compile phases account for <90% of wall time";

  auto q = compiler_.Compile("{x | exists y (EDGE(x, y))}");
  ASSERT_TRUE(q.ok());
  std::string report = q->ExplainCompile();
  for (const char* phase : {"parse", "translate", "safety", "enf", "ranf",
                            "algebra_gen", "optimize", "lower"}) {
    EXPECT_NE(report.find(phase), std::string::npos)
        << "ExplainCompile missing phase: " << phase << "\n" << report;
  }
}

// A lowering error other than a verifier rejection (here an unknown scalar
// function) leaves the query compiled for inspection. EXPLAIN COMPILE shows
// the failed lower phase, and every run returns that same error and counts
// as one exec.errors.
TEST(LowerFailureTest, EveryRunReturnsTheCompileTimeLoweringError) {
  Compiler compiler{FunctionRegistry{}};
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "R", "1\n2\n").ok());
  obs::Counter& errors =
      obs::MetricsRegistry::Instance().GetCounter("exec.errors");
  const std::string expected = "NOT_FOUND: unknown scalar function 'succ'";

  auto q = compiler.Compile("{y | exists x (R(x) and y = succ(x))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_NE(q->ExplainCompile().find("failed: " + expected), std::string::npos)
      << q->ExplainCompile();
  for (int run = 0; run < 3; ++run) {
    const uint64_t before = errors.value();
    auto answer = q->Run(db);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().ToString(), expected);
    EXPECT_EQ(errors.value(), before + 1);
  }

  auto pq = compiler.CompileParameterized("{y | y = succ(p)}", {"p"});
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  for (int run = 0; run < 3; ++run) {
    const uint64_t before = errors.value();
    auto answer = pq->Run(db, {Value::Int(run)});
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().ToString(), expected);
    EXPECT_EQ(errors.value(), before + 1);
  }
}

TEST_F(ObsEndToEndTest, QueryLogRecordsCompileAndRunWithSharedHash) {
  std::ostringstream out;
  obs::QueryLog log(&out);
  obs::QueryLog* saved = obs::GetQueryLog();
  obs::SetQueryLog(&log);

  const std::string text = "{x | exists y (EDGE(x, y))}";
  auto q = compiler_.Compile(text);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q->Run(db_).ok());
  // A rejected query logs a failed compile record.
  auto bad = compiler_.Compile("{x | not EDGE(x, x)}");
  EXPECT_FALSE(bad.ok());
  // A parameterized query spelled non-canonically: its runs are logged
  // under the same text, and so the same hash, as its compile record.
  const std::string param_text = "{y|EDGE(p,y)}";
  auto pq = compiler_.CompileParameterized(param_text, {"p"});
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE(pq->Run(db_, {Value::Int(1)}).ok());
  obs::SetQueryLog(saved);

  std::vector<obs::QueryLogRecord> records;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    auto r = obs::ParseQueryLogRecord(line);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << line;
    records.push_back(*std::move(r));
  }
  ASSERT_EQ(records.size(), 5u);

  EXPECT_EQ(records[0].event, "compile");
  EXPECT_TRUE(records[0].run.ok);
  EXPECT_TRUE(records[0].em_allowed);
  EXPECT_GT(records[0].plan_nodes, 0);
  EXPECT_GT(records[0].run.wall_ns, 0u);
  EXPECT_FALSE(records[0].phase_ns.empty());
  EXPECT_EQ(records[0].run.query_hash, obs::HashQueryText(text));

  EXPECT_EQ(records[1].event, "run");
  EXPECT_TRUE(records[1].run.ok);
  EXPECT_EQ(records[1].run.rows_out, 3u);  // every EDGE node has a successor
  EXPECT_EQ(records[1].run.query_hash, records[0].run.query_hash);
  EXPECT_GE(records[1].run.exec_threads, 1u);  // 0 = hardware is resolved

  EXPECT_EQ(records[2].event, "compile");
  EXPECT_FALSE(records[2].run.ok);
  EXPECT_FALSE(records[2].em_allowed);
  EXPECT_FALSE(records[2].run.error.empty());

  EXPECT_EQ(records[3].event, "compile");
  EXPECT_TRUE(records[3].run.ok);
  EXPECT_EQ(records[3].run.query, param_text);
  EXPECT_EQ(records[3].run.query_hash, obs::HashQueryText(param_text));
  EXPECT_EQ(records[4].event, "run");
  EXPECT_TRUE(records[4].run.ok);
  EXPECT_EQ(records[4].run.query, param_text);
  EXPECT_EQ(records[4].run.query_hash, records[3].run.query_hash);
}

TEST(MetricsTest, PrometheusExpositionRendersAllMetricKinds) {
  auto& reg = obs::MetricsRegistry::Instance();
  reg.GetCounter("promtest.runs").Add(3);
  reg.GetGauge("promtest.depth").Set(-7);
  obs::Histogram& h = reg.GetHistogram("promtest.lat_ns", {10.0, 100.0});
  h.Observe(5);
  h.Observe(50);
  h.Observe(500);

  std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE emcalc_promtest_runs counter\n"
                     "emcalc_promtest_runs 3\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("# TYPE emcalc_promtest_depth gauge\n"
                     "emcalc_promtest_depth -7\n"),
            std::string::npos)
      << out;
  // Buckets are cumulative and end with the +Inf catch-all == _count.
  EXPECT_NE(out.find("# TYPE emcalc_promtest_lat_ns histogram\n"
                     "emcalc_promtest_lat_ns_bucket{le=\"10\"} 1\n"
                     "emcalc_promtest_lat_ns_bucket{le=\"100\"} 2\n"
                     "emcalc_promtest_lat_ns_bucket{le=\"+Inf\"} 3\n"
                     "emcalc_promtest_lat_ns_sum 555\n"
                     "emcalc_promtest_lat_ns_count 3\n"),
            std::string::npos)
      << out;
  h.Reset();
  reg.GetCounter("promtest.runs").Reset();
  reg.GetGauge("promtest.depth").Reset();
}

// File-mode query log: buffering, urgent flush on failed runs, rotation.
class QueryLogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "emcalc_qlog_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/query_log.jsonl";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static obs::QueryLogRecord RunLine(const std::string& query, bool ok,
                                     const std::string& aborted_limit) {
    obs::QueryLogRecord r;
    r.event = "run";
    r.run.query = query;
    r.run.query_hash = obs::HashQueryText(query);
    r.run.ok = ok;
    r.run.aborted_limit = aborted_limit;
    if (!ok) {
      r.run.error = "RESOURCE_EXHAUSTED: " + aborted_limit + " exceeded";
    }
    return r;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(QueryLogFileTest, AbortRecordsBypassTheBuffer) {
  auto log = obs::QueryLog::Open(path_);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  (*log)->Write(RunLine("{x | A(x)}", true, ""));
  // A healthy record is buffered; nothing on disk yet.
  EXPECT_EQ(ReadAll(path_), "");
  (*log)->Write(RunLine("{x | B(x)}", false, "max_bytes"));
  // The abort flushed the buffer: both lines are on disk immediately.
  std::string on_disk = ReadAll(path_);
  EXPECT_NE(on_disk.find("\"query\":\"{x | A(x)}\""), std::string::npos);
  EXPECT_NE(on_disk.find("\"aborted_limit\":\"max_bytes\""),
            std::string::npos);
}

TEST_F(QueryLogFileTest, TrySignalFlushDrainsTheBuffer) {
  auto log = obs::QueryLog::Open(path_);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  (*log)->Write(RunLine("{x | A(x)}", true, ""));
  EXPECT_EQ(ReadAll(path_), "");
  EXPECT_TRUE((*log)->TrySignalFlush());
  EXPECT_NE(ReadAll(path_).find("\"query\":\"{x | A(x)}\""),
            std::string::npos);
}

TEST_F(QueryLogFileTest, RotatesToDotOneAtSizeCap) {
  auto log = obs::QueryLog::Open(path_);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  (*log)->SetRotationMaxBytes(512);
  constexpr int kRecords = 40;
  for (int i = 0; i < kRecords; ++i) {
    (*log)->Write(RunLine("{x | R" + std::to_string(i) + "(x)}", true, ""));
    (*log)->Flush();
  }
  EXPECT_GE((*log)->rotations(), 1u);
  ASSERT_TRUE(std::filesystem::exists(path_ + ".1"));
  log->reset();  // final flush
  // No record was lost across rotations: every line in the live file plus
  // the newest rotation parses, and the newest record is present.
  obs::QueryLogScan live = obs::ParseQueryLogText(ReadAll(path_));
  obs::QueryLogScan rotated = obs::ParseQueryLogText(ReadAll(path_ + ".1"));
  EXPECT_EQ(live.bad_lines + rotated.bad_lines, 0u);
  EXPECT_GT(rotated.records.size(), 0u);
  bool newest_present = false;
  for (const auto& r : live.records) {
    if (r.run.query == "{x | R39(x)}") newest_present = true;
  }
  for (const auto& r : rotated.records) {
    if (r.run.query == "{x | R39(x)}") newest_present = true;
  }
  EXPECT_TRUE(newest_present);
}

TEST_F(QueryLogFileTest, EnvCapAppliesAtOpen) {
  setenv("EMCALC_QUERY_LOG_MAX_BYTES", "256", 1);
  auto log = obs::QueryLog::Open(path_);
  unsetenv("EMCALC_QUERY_LOG_MAX_BYTES");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (int i = 0; i < 20; ++i) {
    (*log)->Write(RunLine("{x | R" + std::to_string(i) + "(x)}", true, ""));
    (*log)->Flush();
  }
  EXPECT_GE((*log)->rotations(), 1u);
  EXPECT_TRUE(std::filesystem::exists(path_ + ".1"));
}

TEST(ThreadPoolTelemetryTest, RegionStatsCountMorselsAndBusyTime) {
  ThreadPool::RegionStats stats;
  std::atomic<uint64_t> sum{0};
  ThreadPool::Global().ParallelFor(
      /*total=*/10'000, /*grain=*/256, /*max_workers=*/4,
      [&](size_t /*worker*/, size_t begin, size_t end) {
        uint64_t local = 0;
        for (size_t i = begin; i < end; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      },
      &stats);
  EXPECT_EQ(sum.load(), 10'000ull * 9'999 / 2);
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_GT(stats.busy_ns, 0u);
  EXPECT_EQ(stats.morsels, (10'000u + 255) / 256);
  EXPECT_GE(stats.max_workers, 1u);
}

TEST(ThreadPoolTelemetryTest, WorkerTelemetryAccumulatesAndRendersAsJson) {
  if (ThreadPool::Global().parallelism() <= 1) {
    // Single-core box without EMCALC_HARDWARE_THREADS: the pool has no
    // workers and every region inlines. The TSAN CI leg pins 4 threads.
    GTEST_SKIP() << "thread pool has no workers";
  }
  // The caller drains morsels alongside the workers, so one region may
  // finish before any pool thread wakes; repeat until a worker shows up.
  uint64_t worker_morsels = 0;
  for (int attempt = 0; attempt < 100 && worker_morsels == 0; ++attempt) {
    ThreadPool::Global().ParallelFor(
        /*total=*/100'000, /*grain=*/64, /*max_workers=*/4,
        [](size_t /*worker*/, size_t begin, size_t end) {
          volatile uint64_t sink = 0;
          for (size_t i = begin; i < end; ++i) sink += i;
        });
    worker_morsels = 0;
    for (const ThreadPool::WorkerTelemetry& w :
         ThreadPool::Global().Telemetry()) {
      worker_morsels += w.morsels;
    }
  }
  EXPECT_GT(worker_morsels, 0u);

  auto json = obs::ParseJson(ThreadPool::GlobalTelemetryJson());
  ASSERT_TRUE(json.ok()) << ThreadPool::GlobalTelemetryJson();
  EXPECT_GT(json->NumberOr("parallelism", 0), 0);
  const obs::JsonValue* workers = json->Find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_TRUE(workers->is_array());
  ASSERT_FALSE(workers->array.empty());
  uint64_t json_morsels = 0;
  for (const obs::JsonValue& w : workers->array) {
    json_morsels += static_cast<uint64_t>(w.NumberOr("morsels", 0));
    EXPECT_GE(w.NumberOr("busy_ns", -1), 0);
    EXPECT_GE(w.NumberOr("idle_ns", -1), 0);
    EXPECT_GE(w.NumberOr("regions", -1), 0);
  }
  EXPECT_GE(json_morsels, worker_morsels);
}

TEST_F(ObsEndToEndTest, ParameterizedQueryProfileParity) {
  auto q = compiler_.CompileParameterized("{y | EDGE(p, y)}", {"p"});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ExecProfile profile;
  auto r = q->Run(db_, {Value::Int(1)}, &profile);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_GT(profile.stats.wall_ns, 0u);

  auto analyzed = q->ExplainAnalyze(db_, {Value::Int(1)});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("rows"), std::string::npos);
}

}  // namespace
}  // namespace emcalc
