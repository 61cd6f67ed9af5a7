// Tests for the offline analyzer library behind emcalc-inspect
// (src/obs/inspect.h): golden output over the checked-in sample query log,
// aggregate correctness over a generated 1000-record log, rotation-aware
// log reading, and the bundle / Chrome-trace renderers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/obs/inspect.h"
#include "src/obs/json.h"
#include "src/obs/query_log.h"

#ifndef EMCALC_TESTDATA_DIR
#error "EMCALC_TESTDATA_DIR must point at tests/testdata"
#endif

namespace emcalc {
namespace {

obs::QueryLogScan SampleScan() {
  auto scan = obs::ReadQueryLog(std::string(EMCALC_TESTDATA_DIR) +
                                "/sample_query_log.jsonl");
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  return scan.ok() ? *scan : obs::QueryLogScan{};
}

TEST(InspectSampleLogTest, ScanCountsRecordsAndBadLines) {
  obs::QueryLogScan scan = SampleScan();
  EXPECT_EQ(scan.records.size(), 11u);
  EXPECT_EQ(scan.bad_lines, 1u);  // the line clipped by the "crash"
}

TEST(InspectSampleLogTest, TopSlowestOrdersByWallTime) {
  std::string out = obs::RenderTopSlowest(SampleScan(), 3);
  EXPECT_EQ(out,
            "top 3 slowest runs\n"
            "  1. 12.000ms rows=10 eff=75%  {x | exists y (Q2(x, y))}\n"
            "  2. 9.000ms rows=25  {x | Q9(x)}\n"
            "  3. 7.000ms rows=50 eff=60%  {x | exists y (Q8(x, y))}\n");
}

TEST(InspectSampleLogTest, TopSlowestMarksAbortsAndErrors) {
  std::string out = obs::RenderTopSlowest(SampleScan(), 9);
  EXPECT_NE(out.find("aborted=max_bytes  {x | Q3(x, x)}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("error  {x | Q5(x)}"), std::string::npos) << out;
}

TEST(InspectSampleLogTest, AbortsBreakDownByLimit) {
  std::string out = obs::RenderAborts(SampleScan());
  EXPECT_EQ(out,
            "aborts: 3 of 9 runs\n"
            "  max_bytes: 2\n"
            "    e.g. {x | Q3(x, x)}\n"
            "  max_rows: 1\n"
            "    e.g. {x | Q7(x)}\n"
            "errors (non-governor): 1\n");
}

// The sample log predates the removal of the estimate fields: three of
// its run lines carry misestimate_factor/misestimate_op. Every complete
// run line still parses, and the log renders exactly as it did when
// those fields were read.
TEST(InspectSampleLogTest, OldFormatLinesRenderUnchanged) {
  obs::QueryLogScan scan = SampleScan();
  size_t runs = 0;
  for (const obs::QueryLogRecord& r : scan.records) {
    if (r.event == "run") ++runs;
  }
  EXPECT_EQ(runs, 9u);
  EXPECT_EQ(obs::RenderTopSlowest(scan, 10),
            "top 9 slowest runs\n"
            "  1. 12.000ms rows=10 eff=75%  {x | exists y (Q2(x, y))}\n"
            "  2. 9.000ms rows=25  {x | Q9(x)}\n"
            "  3. 7.000ms rows=50 eff=60%  {x | exists y (Q8(x, y))}\n"
            "  4. 5.000ms rows=100  {x | Q1(x)}\n"
            "  5. 3.000ms rows=0 aborted=max_bytes  {x, y | Q6(x, y)}\n"
            "  6. 2.000ms rows=0 aborted=max_bytes  {x | Q3(x, x)}\n"
            "  7. 1.500ms rows=0 aborted=max_rows  {x | Q7(x)}\n"
            "  8. 0.800ms rows=5  {x | Q4(x)}\n"
            "  9. 0.100ms rows=0 error  {x | Q5(x)}\n");
  EXPECT_EQ(obs::RenderAborts(scan),
            "aborts: 3 of 9 runs\n"
            "  max_bytes: 2\n"
            "    e.g. {x | Q3(x, x)}\n"
            "  max_rows: 1\n"
            "    e.g. {x | Q7(x)}\n"
            "errors (non-governor): 1\n");
  EXPECT_EQ(obs::RenderLogSummary(scan),
            "records: 11 (compile=2 run=9, bad lines=1)\n"
            "runs: ok=5 errors=1 aborts=3\n"
            "wall: total=40.400ms mean=4.489ms max=12.000ms\n"
            "rows out: 190\n"
            "parallel runs: 2 (mean eff=68%)\n");
}

TEST(InspectSampleLogTest, SummaryRollsUpRunsAndWall) {
  std::string out = obs::RenderLogSummary(SampleScan());
  EXPECT_NE(out.find("records: 11 (compile=2 run=9, bad lines=1)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("runs: ok=5 errors=1 aborts=3"), std::string::npos)
      << out;
  EXPECT_NE(out.find("max=12.000ms"), std::string::npos) << out;
  EXPECT_NE(out.find("rows out: 190"), std::string::npos) << out;
  EXPECT_NE(out.find("parallel runs: 2"), std::string::npos) << out;
}

// A generated 1000-record log with known aggregates: wall time rises with
// the index, every 100th run trips max_bytes, every 250th errors plainly.
obs::QueryLogScan GeneratedScan() {
  std::string text;
  for (int i = 0; i < 1000; ++i) {
    obs::QueryLogRecord r;
    r.event = "run";
    obs::RunRecord& run = r.run;
    run.query = "q" + std::to_string(i);
    run.query_hash = obs::HashQueryText(run.query);
    run.wall_ns = static_cast<uint64_t>(i + 1) * 1000;
    run.rows_out = static_cast<uint64_t>(i);
    if (i % 100 == 0) {
      run.ok = false;
      run.aborted_limit = "max_bytes";
      run.error = "RESOURCE_EXHAUSTED: max_bytes exceeded";
    } else if (i % 250 == 51) {
      run.ok = false;
      run.error = "INVALID_ARGUMENT: bad";
    }
    text += obs::QueryLogRecordToJson(r) + "\n";
  }
  return obs::ParseQueryLogText(text);
}

TEST(InspectGeneratedLogTest, TopFiveAreTheFiveSlowest) {
  obs::QueryLogScan scan = GeneratedScan();
  ASSERT_EQ(scan.records.size(), 1000u);
  ASSERT_EQ(scan.bad_lines, 0u);
  std::string out = obs::RenderTopSlowest(scan, 5);
  EXPECT_EQ(out,
            "top 5 slowest runs\n"
            "  1. 1.000ms rows=999  q999\n"
            "  2. 0.999ms rows=998  q998\n"
            "  3. 0.998ms rows=997  q997\n"
            "  4. 0.997ms rows=996  q996\n"
            "  5. 0.996ms rows=995  q995\n");
}

TEST(InspectGeneratedLogTest, AbortCountsAreExact) {
  std::string out = obs::RenderAborts(GeneratedScan());
  EXPECT_NE(out.find("aborts: 10 of 1000 runs"), std::string::npos) << out;
  EXPECT_NE(out.find("  max_bytes: 10\n    e.g. q0\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("errors (non-governor): 4"), std::string::npos) << out;
}

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

std::string RunLine(const std::string& query, uint64_t wall_ns) {
  obs::QueryLogRecord r;
  r.event = "run";
  r.run.query = query;
  r.run.query_hash = obs::HashQueryText(query);
  r.run.wall_ns = wall_ns;
  return obs::QueryLogRecordToJson(r) + "\n";
}

TEST(InspectRotationTest, ReadsRotatedSegmentOldestFirst) {
  ScopedTempDir dir("rotation");
  std::string log = dir.path() + "/query_log.jsonl";
  // The rotated `.1` segment holds the older records (plus one line a
  // crash clipped); the live file holds the newest.
  {
    std::ofstream rotated(log + ".1");
    rotated << RunLine("q_oldest", 1000) << RunLine("q_older", 2000)
            << "{\"event\":\"run\",\"que";
    std::ofstream live(log);
    live << RunLine("q_newest", 3000);
  }
  auto scan = obs::ReadQueryLogWithRotation(log);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].run.query, "q_oldest");
  EXPECT_EQ(scan->records[1].run.query, "q_older");
  EXPECT_EQ(scan->records[2].run.query, "q_newest");
  EXPECT_EQ(scan->bad_lines, 1u);  // summed across both segments
}

TEST(InspectRotationTest, NoRotatedSegmentReadsLiveFileOnly) {
  ScopedTempDir dir("rotation_live");
  std::string log = dir.path() + "/query_log.jsonl";
  {
    std::ofstream live(log);
    live << RunLine("q_only", 500);
  }
  auto scan = obs::ReadQueryLogWithRotation(log);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].run.query, "q_only");
  // A missing live file is an error even if a `.1` segment existed.
  EXPECT_FALSE(
      obs::ReadQueryLogWithRotation(dir.path() + "/no_such_log").ok());
}

TEST(InspectBundleTest, ParsesRendersAndConvertsToChromeTrace) {
  std::string json =
      "{\"schema\":1,\"reason\":\"governor_abort\",\"query_hash\":\"42\","
      "\"query\":\"{x | R(x)}\",\"error\":\"RESOURCE_EXHAUSTED: max_bytes "
      "exceeded\",\"aborted_limit\":\"max_bytes\","
      "\"profile\":{\"op\":\"Scan\"},"
      "\"flight_recorder\":["
      "{\"ts_ns\":100,\"tid\":1,\"kind\":\"span_begin\",\"name\":\"exec.run\","
      "\"arg\":0},"
      "{\"ts_ns\":150,\"tid\":1,\"kind\":\"governor_trip\","
      "\"name\":\"max_bytes\",\"arg\":4096},"
      "{\"ts_ns\":200,\"tid\":1,\"kind\":\"span_end\",\"name\":\"exec.run\","
      "\"arg\":0}]}";
  auto bundle = obs::ParsePostmortemBundle(json);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle->reason, "governor_abort");
  EXPECT_EQ(bundle->run.aborted_limit, "max_bytes");
  EXPECT_EQ(bundle->run.query_hash, 42u);
  ASSERT_EQ(bundle->events.size(), 3u);
  EXPECT_EQ(bundle->events[1].kind, "governor_trip");
  EXPECT_EQ(bundle->events[1].arg, 4096u);

  std::string rendered = obs::RenderBundle(*bundle);
  EXPECT_NE(rendered.find("reason: governor_abort"), std::string::npos);
  EXPECT_NE(rendered.find("aborted_limit: max_bytes"), std::string::npos);
  EXPECT_NE(rendered.find("flight events: 3"), std::string::npos);
  EXPECT_NE(rendered.find("150 tid=1 governor_trip max_bytes arg=4096"),
            std::string::npos)
      << rendered;

  std::string trace = obs::BundleToChromeTrace(*bundle);
  auto doc = obs::ParseJson(trace);
  ASSERT_TRUE(doc.ok()) << trace;
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 3u);
  EXPECT_EQ(events->array[0].StringOr("ph", ""), "B");
  EXPECT_EQ(events->array[1].StringOr("ph", ""), "i");
  EXPECT_EQ(events->array[2].StringOr("ph", ""), "E");
  // Span begin/end pair up on the same name and tid.
  EXPECT_EQ(events->array[0].StringOr("name", ""),
            events->array[2].StringOr("name", ""));
  EXPECT_EQ(events->array[0].NumberOr("tid", -1),
            events->array[2].NumberOr("tid", -1));
}

TEST(InspectBundleTest, RejectsNonObjectAndBadJson) {
  EXPECT_FALSE(obs::ParsePostmortemBundle("[1,2]").ok());
  EXPECT_FALSE(obs::ParsePostmortemBundle("{not json").ok());
}

}  // namespace
}  // namespace emcalc
