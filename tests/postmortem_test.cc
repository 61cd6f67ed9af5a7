// Tests for the flight recorder (src/obs/flight_recorder.h) and the
// postmortem bundle writer (src/obs/postmortem.h): ring wraparound,
// concurrent writers on the thread pool, JSON round trips through the
// inspect library, and the end-to-end governor-abort bundle.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/core/compiler.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/inspect.h"
#include "src/obs/json.h"
#include "src/obs/postmortem.h"
#include "src/obs/query_log.h"
#include "src/obs/run_record.h"
#include "src/storage/csv.h"

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

// Enables bundle writing for the test's scope; restores the previous dir.
class ScopedPostmortemDir {
 public:
  explicit ScopedPostmortemDir(const std::string& dir)
      : saved_(obs::PostmortemDir()) {
    obs::SetPostmortemDir(dir);
  }
  ~ScopedPostmortemDir() { obs::SetPostmortemDir(saved_); }

 private:
  std::string saved_;
};

std::vector<obs::FlightEvent> EventsNamed(const char* name) {
  std::vector<obs::FlightEvent> out;
  for (const obs::FlightEvent& e : obs::DrainFlightRecorder()) {
    if (e.name != nullptr && std::string(e.name) == name) out.push_back(e);
  }
  return out;
}

TEST(FlightRecorderTest, WraparoundKeepsNewestEvents) {
  obs::ResetFlightRingForTesting(64);
  for (uint64_t i = 0; i < 200; ++i) {
    obs::FlightRecord(obs::FlightEventKind::kMark, "wrap.test", i);
  }
  std::vector<obs::FlightEvent> events = EventsNamed("wrap.test");
  ASSERT_EQ(events.size(), 64u);
  // The ring holds exactly the newest 64 args: 136..199, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 200 - 64 + i);
  }
  obs::ResetFlightRingForTesting(obs::FlightRingCapacity());
}

TEST(FlightRecorderTest, DisableDropsEventsReEnableRecords) {
  obs::ResetFlightRingForTesting(64);
  obs::SetFlightRecorderEnabled(false);
  obs::FlightRecord(obs::FlightEventKind::kMark, "toggle.test", 1);
  EXPECT_TRUE(EventsNamed("toggle.test").empty());
  obs::SetFlightRecorderEnabled(true);
  obs::FlightRecord(obs::FlightEventKind::kMark, "toggle.test", 2);
  std::vector<obs::FlightEvent> events = EventsNamed("toggle.test");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg, 2u);
  obs::ResetFlightRingForTesting(obs::FlightRingCapacity());
}

TEST(FlightRecorderTest, ConcurrentWritersOnPoolLoseNothing) {
  obs::ResetFlightRingForTesting(8192);
  constexpr size_t kEvents = 1000;
  // Each pool worker records into its own ring; small morsels force the
  // region to actually fan out.
  ThreadPool::Global().ParallelFor(
      kEvents, /*grain=*/16, /*max_workers=*/4,
      [](size_t /*worker*/, size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          obs::FlightRecord(obs::FlightEventKind::kMark, "pool.mark", t);
        }
      });
  std::vector<obs::FlightEvent> events = EventsNamed("pool.mark");
  std::set<uint64_t> args;
  for (const obs::FlightEvent& e : events) args.insert(e.arg);
  EXPECT_EQ(args.size(), kEvents);
  EXPECT_EQ(*args.begin(), 0u);
  EXPECT_EQ(*args.rbegin(), kEvents - 1);
  // The merged drain is globally ordered by timestamp.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST(FlightRecorderTest, EventsJsonParsesWithAllFields) {
  obs::ResetFlightRingForTesting(64);
  obs::FlightRecord(obs::FlightEventKind::kMark, "json.test", 42);
  std::string json = obs::FlightEventsToJson(obs::DrainFlightRecorder());
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << json;
  ASSERT_TRUE(doc->is_array());
  bool found = false;
  for (const obs::JsonValue& e : doc->array) {
    if (e.StringOr("name", "") != "json.test") continue;
    found = true;
    EXPECT_EQ(e.StringOr("kind", ""), "mark");
    EXPECT_EQ(e.NumberOr("arg", 0), 42);
    EXPECT_GT(e.NumberOr("ts_ns", 0), 0);
    EXPECT_GT(e.NumberOr("tid", 0), 0);
  }
  EXPECT_TRUE(found) << json;
  obs::ResetFlightRingForTesting(obs::FlightRingCapacity());
}

TEST(FlightRecorderTest, SignalSafeDumpIsParseableJson) {
  obs::ResetFlightRingForTesting(64);
  obs::FlightRecord(obs::FlightEventKind::kMark, "dump.test", 7);
  ScopedTempDir dir("ringdump");
  std::string path = dir.path() + "/rings.json";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  obs::DumpFlightRingsJson(fileno(f));
  std::fclose(f);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = obs::ParseJson(buf.str());
  ASSERT_TRUE(doc.ok()) << buf.str();
  ASSERT_TRUE(doc->is_array());
  obs::ResetFlightRingForTesting(obs::FlightRingCapacity());
}

TEST(PostmortemTest, BundleRoundTripsThroughInspect) {
  ScopedTempDir dir("bundle");
  ScopedPostmortemDir postmortem(dir.path());
  obs::ResetFlightRingForTesting(64);
  obs::FlightRecord(obs::FlightEventKind::kSpanBegin, "exec.run");
  obs::FlightRecord(obs::FlightEventKind::kSpanEnd, "exec.run");

  obs::RunRecord run;
  run.query = "{x | R(x)}";
  run.query_hash = obs::HashQueryText(run.query);
  run.ok = false;
  run.error = "RESOURCE_EXHAUSTED: max_bytes exceeded";
  run.aborted_limit = "max_bytes";
  run.wall_ns = 4242;
  run.peak_bytes = 1 << 12;
  run.ops = {{"Scan", "Scan(R)", 10, 40, 4}};
  auto path = obs::WritePostmortem("manual", &run, "{\"op\":\"Scan\"}");
  ASSERT_TRUE(path.ok()) << path.status().ToString();

  auto bundle = obs::ReadPostmortemBundle(*path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle->reason, "manual");
  EXPECT_EQ(bundle->run, run);
  EXPECT_EQ(bundle->profile.StringOr("op", ""), "Scan");
  ASSERT_GE(bundle->events.size(), 2u);

  std::string rendered = obs::RenderBundle(*bundle);
  EXPECT_NE(rendered.find("reason: manual"), std::string::npos);
  EXPECT_NE(rendered.find("aborted_limit: max_bytes"), std::string::npos);

  auto trace = obs::ParseJson(obs::BundleToChromeTrace(*bundle));
  ASSERT_TRUE(trace.ok());
  const obs::JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->array.size(), 2u);
  obs::ResetFlightRingForTesting(obs::FlightRingCapacity());
}

TEST(PostmortemTest, DisabledWriterFails) {
  ScopedPostmortemDir postmortem("");
  EXPECT_FALSE(obs::WritePostmortem("manual", nullptr, "").ok());
}

TEST(PostmortemTest, GovernorAbortWritesBundleMatchingQueryLog) {
  ScopedTempDir dir("abort");
  ScopedPostmortemDir postmortem(dir.path());
  obs::ResetFlightRingForTesting(4096);

  Compiler compiler;
  Database db;
  std::string csv;
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i + 1) + "\n";
  }
  ASSERT_TRUE(LoadCsvText(db, "EDGE", csv).ok());
  auto q = compiler.Compile("{x | exists y (EDGE(x, y))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  std::ostringstream log_buffer;
  obs::QueryLog log(&log_buffer);
  obs::QueryLog* saved_log = obs::GetQueryLog();
  obs::SetQueryLog(&log);
  uint64_t bundles_before = obs::PostmortemCount();
  setenv("EMCALC_MAX_QUERY_BYTES", "1", 1);
  auto aborted = q->Run(db);
  unsetenv("EMCALC_MAX_QUERY_BYTES");
  obs::SetQueryLog(saved_log);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(obs::PostmortemCount(), bundles_before + 1);

  // Exactly one bundle in the fresh directory.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    files.push_back(entry.path().string());
  }
  ASSERT_EQ(files.size(), 1u);
  auto bundle = obs::ReadPostmortemBundle(files[0]);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle->reason, "governor_abort");
  EXPECT_EQ(bundle->run.aborted_limit, "max_bytes");
  EXPECT_EQ(bundle->run.query, "{x | exists y (EDGE(x, y))}");

  // The ring shows the aborting operator's span and the governor trip.
  bool saw_exec_span = false;
  bool saw_trip = false;
  for (const obs::BundleEvent& e : bundle->events) {
    if (e.kind == "span_begin" && e.name == "exec.run") saw_exec_span = true;
    if (e.kind == "governor_trip" && e.name == "max_bytes") saw_trip = true;
  }
  EXPECT_TRUE(saw_exec_span);
  EXPECT_TRUE(saw_trip);

  // The bundle agrees with the query log's record of the same run.
  obs::QueryLogScan scan = obs::ParseQueryLogText(log_buffer.str());
  ASSERT_EQ(scan.bad_lines, 0u);
  bool found_run = false;
  for (const obs::QueryLogRecord& r : scan.records) {
    if (r.event != "run") continue;
    found_run = true;
    EXPECT_FALSE(r.run.ok);
    EXPECT_EQ(r.run.aborted_limit, bundle->run.aborted_limit);
    EXPECT_EQ(r.run.query_hash, bundle->run.query_hash);
  }
  EXPECT_TRUE(found_run);
  obs::ResetFlightRingForTesting(obs::FlightRingCapacity());
}

// One aborted run, two sinks: the query log and the postmortem bundle
// serialize the same RunRecord, so every field agrees, and rows_out is 0
// rather than the aborted root's partial count (1000 here).
TEST(PostmortemTest, AllSinksAgreeOnAnAbortedRun) {
  ScopedTempDir dir("sinks_agree");
  ScopedPostmortemDir postmortem(dir.path() + "/bundles");
  std::ostringstream log_buffer;
  obs::QueryLog log(&log_buffer);
  obs::QueryLog* saved_log = obs::GetQueryLog();
  obs::SetQueryLog(&log);

  Compiler compiler;
  Database db;
  std::string csv;
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i + 1) + "\n";
  }
  ASSERT_TRUE(LoadCsvText(db, "EDGE", csv).ok());
  auto q = compiler.Compile("{x, y | EDGE(x, y) or EDGE(y, x)}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  setenv("EMCALC_MAX_QUERY_BYTES", "8000", 1);
  auto aborted = q->Run(db);
  unsetenv("EMCALC_MAX_QUERY_BYTES");
  obs::SetQueryLog(saved_log);
  ASSERT_FALSE(aborted.ok());

  std::vector<obs::RunRecord> logged;
  for (const obs::QueryLogRecord& r :
       obs::ParseQueryLogText(log_buffer.str()).records) {
    if (r.event == "run") logged.push_back(r.run);
  }
  ASSERT_EQ(logged.size(), 1u);

  std::vector<std::string> bundles;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path() + "/bundles")) {
    bundles.push_back(entry.path().string());
  }
  ASSERT_EQ(bundles.size(), 1u);
  auto bundle = obs::ReadPostmortemBundle(bundles[0]);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  const obs::RunRecord& run = logged[0];
  EXPECT_EQ(run.query_hash, obs::HashQueryText(run.query));
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.aborted_limit, "max_bytes");
  EXPECT_EQ(run.rows_out, 0u);
  EXPECT_GT(run.peak_bytes, 0u);
  EXPECT_FALSE(run.ops.empty());
  const obs::RunRecord& other = bundle->run;
  EXPECT_EQ(other.query_hash, run.query_hash);
  EXPECT_EQ(other.ok, run.ok);
  EXPECT_EQ(other.error, run.error);
  EXPECT_EQ(other.aborted_limit, run.aborted_limit);
  EXPECT_EQ(other.wall_ns, run.wall_ns);
  EXPECT_EQ(other.rows_out, 0u);
  EXPECT_EQ(other.peak_bytes, run.peak_bytes);
  EXPECT_EQ(other.ops, run.ops);
  EXPECT_EQ(other, run);  // and every other field
}

}  // namespace
}  // namespace emcalc
