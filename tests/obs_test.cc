// Tests for the observability subsystem (src/obs/): spans in the flight
// recorder and their Chrome-trace writer, metrics registry, compile
// profiling, query log — plus the end-to-end acceptance check that a
// single capture holds both compile-phase and per-operator execution spans.
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
#include "src/obs/flight_recorder.h"
#include "src/obs/inspect.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/run_record.h"
#include "src/obs/trace.h"
#include "src/storage/csv.h"

namespace emcalc {
namespace {

// The events recorded at or after `since_ns`, drained from every ring.
std::vector<obs::FlightEvent> EventsSince(uint64_t since_ns) {
  std::vector<obs::FlightEvent> out;
  for (obs::FlightEvent& e : obs::DrainFlightRecorder()) {
    if (e.ts_ns >= since_ns) out.push_back(std::move(e));
  }
  return out;
}

// Parses a Chrome trace and checks that each thread's "B"/"E" events
// nest: no end without an open begin, and none left open. Returns the
// parsed "traceEvents" array.
std::vector<obs::JsonValue> ParseBalancedTrace(const std::string& json) {
  auto doc = obs::ParseJson(json);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  if (!doc.ok()) return {};
  const obs::JsonValue* events = doc->Find("traceEvents");
  EXPECT_TRUE(events != nullptr && events->is_array()) << json;
  if (events == nullptr) return {};
  std::map<uint64_t, int> open;
  for (const obs::JsonValue& e : events->array) {
    EXPECT_EQ(e.UintOr("pid", 0), 1u);
    EXPECT_NE(e.Find("ts"), nullptr);
    int& depth = open[e.UintOr("tid", 0)];
    std::string ph = e.StringOr("ph", "");
    if (ph == "B") ++depth;
    if (ph == "E") {
      EXPECT_GT(depth, 0) << "end without a begin: " << json;
      --depth;
    }
  }
  for (const auto& [tid, depth] : open) {
    EXPECT_EQ(depth, 0) << "tid " << tid << " left spans open";
  }
  return events->array;
}

TEST(TraceTest, DisabledSpanIsInert) {
  bool saved = obs::FlightRecorderEnabled();
  obs::SetFlightRecorderEnabled(false);
  uint64_t since = obs::NowNs();
  { obs::Span span("test.disabled"); }
  obs::SetFlightRecorderEnabled(saved);
  for (const obs::FlightEvent& e : EventsSince(since)) {
    EXPECT_NE(e.name, "test.disabled");
  }
}

TEST(TraceTest, SpansRecordNamesAndNesting) {
  uint64_t since = obs::NowNs();
  {
    obs::Span outer("test.outer");
    { obs::Span inner("test.inner"); }
  }
  std::vector<obs::FlightEvent> events;
  for (obs::FlightEvent& e : EventsSince(since)) {
    if (e.name == "test.outer" || e.name == "test.inner") {
      events.push_back(std::move(e));
    }
  }
  ASSERT_EQ(events.size(), 4u);
  using Kind = obs::FlightEventKind;
  const std::pair<Kind, const char*> expected[] = {
      {Kind::kSpanBegin, "test.outer"},
      {Kind::kSpanBegin, "test.inner"},
      {Kind::kSpanEnd, "test.inner"},
      {Kind::kSpanEnd, "test.outer"}};
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, expected[i].first) << i;
    EXPECT_EQ(events[i].name, expected[i].second) << i;
    EXPECT_EQ(events[i].tid, obs::CurrentThreadId());
    if (i > 0) {
      EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
    }
  }
  std::vector<obs::JsonValue> trace =
      ParseBalancedTrace(obs::ChromeTraceJson(events));
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0].StringOr("ph", ""), "B");
  EXPECT_EQ(trace[1].StringOr("ph", ""), "B");
  EXPECT_EQ(trace[2].StringOr("ph", ""), "E");
  EXPECT_EQ(trace[3].StringOr("name", ""), "test.outer");
}

TEST(TraceTest, ConcurrentSpansNestPerThread) {
  constexpr int kThreads = 8;
  uint64_t since = obs::NowNs();
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

  std::vector<obs::FlightEvent> events;
  for (obs::FlightEvent& e : EventsSince(since)) {
    if (e.name.rfind("test.thread_", 0) == 0) events.push_back(std::move(e));
  }
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * 6));
  // Each thread's own events, in drain order, are one outer span around
  // two sequential inner spans.
  std::map<uint32_t, std::string> shape_by_tid;
  for (const obs::FlightEvent& e : events) {
    std::string& shape = shape_by_tid[e.tid];
    shape += e.kind == obs::FlightEventKind::kSpanBegin ? "B" : "E";
    shape += e.name == "test.thread_outer" ? "o" : "i";
  }
  ASSERT_EQ(shape_by_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, shape] : shape_by_tid) {
    EXPECT_EQ(shape, "BoBiEiBiEiEo") << "tid " << tid;
  }
  EXPECT_EQ(ParseBalancedTrace(obs::ChromeTraceJson(events)).size(),
            events.size());
}

TEST(TraceTest, ChromeTraceJsonIsValidAndComplete) {
  using Kind = obs::FlightEventKind;
  const std::vector<obs::FlightEvent> events = {
      // An end whose begin a lapped ring (or the capture start) cut off.
      {100, 0, "test.cut", 1, Kind::kSpanEnd},
      {110, 0, "test.outer", 1, Kind::kSpanBegin},
      {120, 0, "test.\"quoted\\\" name", 2, Kind::kSpanBegin},
      {130, 42, "max_bytes", 1, Kind::kGovernorTrip},
      {140, 0, "test.\"quoted\\\" name", 2, Kind::kSpanEnd},
      {1234567, 0, "test.outer", 1, Kind::kSpanEnd},
  };
  std::vector<obs::JsonValue> trace =
      ParseBalancedTrace(obs::ChromeTraceJson(events));
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[0].StringOr("name", ""), "test.outer");
  // The escaped name survives the JSON round trip.
  EXPECT_EQ(trace[1].StringOr("name", ""), "test.\"quoted\\\" name");
  EXPECT_EQ(trace[1].UintOr("tid", 0), 2u);
  // Everything but a span is an instant with its argument.
  EXPECT_EQ(trace[2].StringOr("ph", ""), "i");
  EXPECT_EQ(trace[2].StringOr("s", ""), "t");
  EXPECT_EQ(trace[2].StringOr("cat", ""), "governor_trip");
  ASSERT_NE(trace[2].Find("args"), nullptr);
  EXPECT_EQ(trace[2].Find("args")->UintOr("arg", 0), 42u);
  // Timestamps are microseconds with the nanoseconds kept exactly.
  EXPECT_DOUBLE_EQ(trace[4].NumberOr("ts", 0), 1234.567);
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

// A compile record round-trips through its query-log line: the analysis,
// the phases and the diagnostics all survive, and no execution member is
// written.
TEST(QueryLogTest, RecordRoundTripsThroughJson) {
  obs::RunRecord r;
  r.event = "compile";
  r.query = "{x | R(x) and \"quoted\"}";
  r.query_hash = obs::HashQueryText(r.query);
  r.ok = false;
  r.error = "NOT_SAFE: unbounded variable";
  r.wall_ns = 123456;
  r.em_allowed = false;
  r.level = 3;
  r.find_count = 4;
  r.ranf_size = 17;
  r.plan_nodes = 9;
  r.string_pool_size = 42;
  r.phases = {{"parse", 1000}, {"translate.safety", 2500}};
  diag::Diagnostic blame("safety.unbounded-free", diag::Severity::kError,
                         "free variable {x} is not bounded");
  blame.WithSpan(diag::SourceSpan{5, 9}).AddNote("bd(body) = {}");
  r.diagnostics = {blame};

  std::string line = obs::RunRecordToJson(r);
  auto parsed = obs::ParseQueryLogLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  EXPECT_EQ(*parsed, r) << line;
  // A compile record carries no execution fields.
  EXPECT_EQ(line.find("rows_out"), std::string::npos) << line;
  EXPECT_EQ(line.find("\"profile\""), std::string::npos) << line;
  // A line without an event is not a query-log record.
  EXPECT_FALSE(obs::ParseQueryLogLine("{\"query_hash\":\"1\"}").ok());
}

// Writes `run` into an object that already has a member, the way a
// postmortem bundle embeds it, and reads it back.
obs::RunRecord WriteThenRead(const obs::RunRecord& run) {
  std::string json = "{\"k\":0";
  obs::AppendRunRecordJson(run, json);
  json += "}";
  auto doc = obs::ParseJson(json);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  return doc.ok() ? obs::RunRecordFromJson(*doc) : obs::RunRecord{};
}

// The one RunRecord writer and reader are inverse: every field survives,
// for a run record with its profile tree and a hash above 2^53 (which a
// JSON number would round), and for a compile record with phases and
// diagnostics.
TEST(RunRecordTest, WriterThenReaderIsTheIdentity) {
  ExecProfile scan;
  scan.op = PhysOpKind::kScan;
  scan.detail = "R";
  scan.stats.rows_out = 100'000'000;
  scan.stats.normalize_ns = 89;
  ExecProfile diff;
  diff.op = PhysOpKind::kDiffAnti;
  diff.stats.rows_out = 3;
  diff.stats.rows_sorted = 9900;
  diff.stats.normalize_ns = 1'234'567;
  diff.total_peak_bytes = 1 << 20;
  diff.children.push_back(scan);

  obs::RunRecord run;
  run.event = "run";
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
  run.profile = ExecProfileToJson(diff);
  run.string_pool_size = 17;
  EXPECT_EQ(WriteThenRead(run), run);

  obs::RunRecord compile;
  compile.event = "compile";
  compile.query = "{x | R(x)}";
  compile.em_allowed = true;
  compile.level = 1;
  compile.find_count = 2;
  compile.ranf_size = 5;
  compile.plan_nodes = 3;
  compile.phases = {{"parse", 10}, {"translate.ranf", 20}};
  compile.diagnostics = {diag::Diagnostic(
      "lint.cross-product", diag::Severity::kWarning, "cross product")};
  EXPECT_EQ(WriteThenRead(compile), compile);

  // Zero and empty members are omitted and read back as their defaults.
  obs::RunRecord empty;
  std::string json = "{\"k\":0";
  obs::AppendRunRecordJson(empty, json);
  json += "}";
  EXPECT_EQ(json,
            "{\"k\":0,\"query_hash\":\"0\",\"ok\":true,\"wall_ns\":0}");
  EXPECT_EQ(WriteThenRead(empty), empty);
  // As a line of its own, the first member takes no comma.
  EXPECT_EQ(obs::RunRecordToJson(empty),
            "{\"query_hash\":\"0\",\"ok\":true,\"wall_ns\":0}");
}

// A query-log line holds the whole profile tree, so the reader must take
// a deep plan: a 200-operator chain round-trips, while a document nested
// past the parser's bound is still refused.
TEST(RunRecordTest, DeepProfileLineParses) {
  ExecProfile chain;
  chain.op = PhysOpKind::kScan;
  chain.detail = "R";
  for (int i = 0; i < 199; ++i) {
    ExecProfile parent;
    parent.op = PhysOpKind::kFilterSelect;
    parent.children.push_back(std::move(chain));
    chain = std::move(parent);
  }
  obs::RunRecord run;
  run.event = "run";
  run.profile = ExecProfileToJson(chain);
  auto parsed = obs::ParseQueryLogLine(obs::RunRecordToJson(run));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, run);

  std::string deep(600, '[');
  deep += std::string(600, ']');
  auto refused = obs::ParseJson(deep);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("nesting too deep"),
            std::string::npos);
}

// A record built from a real run carries the run's profile tree, written
// by the one profile encoder, and none of the per-operator keys older
// records carry (ops, est, factor, est_history_*, misestimate_*). Lines in
// the parent's formats still load: their ops samples and estimate keys
// are ignored, and the rest of the line keeps its values.
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
  EXPECT_EQ(run.profile, ExecProfileToJson(profile));
  std::string json = obs::RunRecordToJson(run);
  for (const char* key : {"\"ops\"", "\"est\"", "\"factor\"",
                          "\"est_history_runs\"", "\"est_history_ops\"",
                          "misestimate"}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_EQ(WriteThenRead(run), run) << json;
  // The record's tree reads back into the profile it was encoded from.
  auto tree = ExecProfileFromJson(run.profile);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(obs::ToJson(ExecProfileToJson(*tree)), obs::ToJson(run.profile));

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
  EXPECT_EQ(loaded.profile.kind, obs::JsonValue::Kind::kNull);

  // A parent-format run line: the operator-path samples beside the
  // parallel summary.
  auto parent = obs::ParseQueryLogLine(
      "{\"event\":\"run\",\"query_hash\":\"11\",\"query\":\"{x | R(x)}\","
      "\"ok\":true,\"wall_ns\":7000,\"rows_out\":3,\"exec_threads\":2,"
      "\"peak_bytes\":4096,\"parallel_efficiency\":0.75,"
      "\"par_workers\":2,\"ops\":[{\"path\":\"Scan\",\"op\":\"Scan(R)\","
      "\"actual\":3,\"rows_sorted\":3,\"normalize_ns\":40}],"
      "\"string_pool_size\":6}");
  ASSERT_TRUE(parent.ok()) << parent.status().ToString();
  EXPECT_EQ(parent->event, "run");
  EXPECT_EQ(parent->query_hash, 11u);
  EXPECT_EQ(parent->rows_out, 3u);
  EXPECT_EQ(parent->exec_threads, 2u);
  EXPECT_EQ(parent->peak_bytes, 4096u);
  EXPECT_DOUBLE_EQ(parent->parallel_efficiency, 0.75);
  EXPECT_EQ(parent->par_workers, 2u);
  EXPECT_EQ(parent->string_pool_size, 6u);
  EXPECT_EQ(parent->profile.kind, obs::JsonValue::Kind::kNull);
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
  EXPECT_EQ(scan.records[0].wall_ns, 0u);
  EXPECT_EQ(scan.records[0].rows_out, 0u);
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
  obs::RunRecord r;
  r.event = "run";
  r.query = "{x | R(x)}";
  r.rows_out = 2;
  log.Write(r);
  r.rows_out = 5;
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
  uint64_t since = obs::NowNs();
  auto q = compiler_.Compile("{x | exists y (EDGE(x, y) and EDGE(y, x))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto answer = q->Run(db_);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  std::vector<obs::FlightEvent> events = EventsSince(since);
  std::set<std::string> names;
  size_t begins = 0;
  for (const obs::FlightEvent& e : events) {
    if (e.kind != obs::FlightEventKind::kSpanBegin) continue;
    names.insert(e.name);
    ++begins;
  }
  // Compile-phase spans...
  for (const char* expected :
       {"compile", "compile.parse", "compile.translate", "compile.rectify",
        "compile.safety", "compile.enf", "compile.ranf",
        "compile.algebra_gen", "compile.optimize", "compile.lower",
        "safety.em_allowed", "finds.bd", "algebra.optimize", "exec.lower"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }
  // ...and per-operator execution spans in the same capture.
  EXPECT_TRUE(names.count("exec.run"));
  EXPECT_TRUE(names.count("exec.execute"));
  EXPECT_TRUE(names.count("Scan")) << "no per-operator span recorded";

  // The whole capture exports as valid Chrome trace JSON, every span a
  // balanced begin/end pair.
  size_t trace_begins = 0;
  for (const obs::JsonValue& e :
       ParseBalancedTrace(obs::ChromeTraceJson(events))) {
    if (e.StringOr("ph", "") == "B") ++trace_begins;
  }
  EXPECT_EQ(trace_begins, begins);
}

// A capture is the rings' events from its start on (the repl's `.trace`):
// a query run before the start is not in the written trace.
TEST_F(ObsEndToEndTest, CaptureStartedAfterAQueryExcludesIt) {
  const std::string before_text = "{x | EDGE(x, x)}";
  const std::string after_text = "{x | exists y (EDGE(y, x))}";
  auto before = compiler_.Compile(before_text);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(before->Run(db_).ok());

  uint64_t since = obs::NowNs();
  auto after = compiler_.Compile(after_text);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->Run(db_).ok());
  std::string path = ::testing::TempDir() + "emcalc_capture_" +
                     std::to_string(::getpid()) + ".json";
  auto written = obs::WriteChromeTrace(path, since);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(*written, 0u);
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  std::filesystem::remove(path);

  // Each run's query_start instant carries its query hash.
  std::set<uint64_t> started;
  size_t compiles = 0;
  for (const obs::JsonValue& e : ParseBalancedTrace(json.str())) {
    if (e.StringOr("cat", "") == "query_start") {
      started.insert(e.Find("args")->UintOr("arg", 0));
    }
    if (e.StringOr("ph", "") == "B" && e.StringOr("name", "") == "compile") {
      ++compiles;
    }
  }
  EXPECT_EQ(started, std::set<uint64_t>{obs::HashQueryText(after_text)});
  EXPECT_EQ(compiles, 1u);
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

  std::vector<obs::RunRecord> records;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    auto r = obs::ParseQueryLogLine(line);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << line;
    records.push_back(*std::move(r));
  }
  ASSERT_EQ(records.size(), 5u);

  EXPECT_EQ(records[0].event, "compile");
  EXPECT_TRUE(records[0].ok);
  EXPECT_TRUE(records[0].em_allowed);
  EXPECT_GT(records[0].plan_nodes, 0);
  EXPECT_GT(records[0].wall_ns, 0u);
  EXPECT_FALSE(records[0].phases.empty());
  EXPECT_EQ(records[0].query_hash, obs::HashQueryText(text));

  EXPECT_EQ(records[1].event, "run");
  EXPECT_TRUE(records[1].ok);
  EXPECT_EQ(records[1].rows_out, 3u);  // every EDGE node has a successor
  EXPECT_EQ(records[1].query_hash, records[0].query_hash);
  EXPECT_GE(records[1].exec_threads, 1u);  // 0 = hardware is resolved
  EXPECT_TRUE(records[1].profile.is_object());
  EXPECT_EQ(records[1].profile.StringOr("op", ""), "ProjectMap");

  EXPECT_EQ(records[2].event, "compile");
  EXPECT_FALSE(records[2].ok);
  EXPECT_FALSE(records[2].em_allowed);
  EXPECT_FALSE(records[2].error.empty());

  EXPECT_EQ(records[3].event, "compile");
  EXPECT_TRUE(records[3].ok);
  EXPECT_EQ(records[3].query, param_text);
  EXPECT_EQ(records[3].query_hash, obs::HashQueryText(param_text));
  EXPECT_EQ(records[4].event, "run");
  EXPECT_TRUE(records[4].ok);
  EXPECT_EQ(records[4].query, param_text);
  EXPECT_EQ(records[4].query_hash, records[3].query_hash);
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

  static obs::RunRecord RunLine(const std::string& query, bool ok,
                                const std::string& aborted_limit) {
    obs::RunRecord r;
    r.event = "run";
    r.query = query;
    r.query_hash = obs::HashQueryText(query);
    r.ok = ok;
    r.aborted_limit = aborted_limit;
    if (!ok) r.error = "RESOURCE_EXHAUSTED: " + aborted_limit + " exceeded";
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
    if (r.query == "{x | R39(x)}") newest_present = true;
  }
  for (const auto& r : rotated.records) {
    if (r.query == "{x | R39(x)}") newest_present = true;
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
