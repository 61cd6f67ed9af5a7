// Offline analysis of emcalc's observability artifacts: JSON-Lines query
// logs (src/obs/query_log.h) and postmortem bundles (src/obs/postmortem.h).
// Both carry the one run record (src/obs/run_record.h) and are read with
// its one reader, so a log line and a bundle of the same run load into
// equal RunRecords. This is the library behind the `emcalc-inspect` CLI
// (tools/inspect.cc); every renderer returns plain text so the CLI stays a
// thin argv shim and tests can golden-match the output.
#ifndef EMCALC_OBS_INSPECT_H_
#define EMCALC_OBS_INSPECT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/run_record.h"

namespace emcalc::obs {

// A parsed query log. Unparseable lines are counted, not fatal — a log cut
// off mid-line by a crash must still analyze.
struct QueryLogScan {
  std::vector<RunRecord> records;
  size_t bad_lines = 0;
};

// Parses JSON-Lines text (empty lines skipped).
QueryLogScan ParseQueryLogText(std::string_view text);

// Reads and parses the file at `path`.
StatusOr<QueryLogScan> ReadQueryLog(const std::string& path);

// Like ReadQueryLog, but when a rotated `<path>.1` segment exists its
// records are included first (oldest-first), so rotation does not silently
// halve the analysis window. `path` itself must exist; the rotated
// segment is optional.
StatusOr<QueryLogScan> ReadQueryLogWithRotation(const std::string& path);

// The k slowest "run" records by wall time, slowest first.
std::string RenderTopSlowest(const QueryLogScan& scan, size_t k);

// Failed runs broken down by aborting resource limit (plus plain errors),
// with an example query per limit. Sorted by count, then name.
std::string RenderAborts(const QueryLogScan& scan);

// One-screen roll-up: record counts, error/abort totals, wall-time and
// parallel-efficiency aggregates.
std::string RenderLogSummary(const QueryLogScan& scan);

// A parsed postmortem bundle. `run` holds the failed run's RunRecord,
// profile tree included (defaults for a manual bundle; query and hash only
// for a signal bundle). `metrics` holds the embedded snapshot verbatim
// (kind kNull when absent) so callers can drill in without re-reading the
// file.
struct PostmortemBundle {
  std::string reason;  // "governor_abort" | "run_error" | "signal" | ...
  std::string signal_name;
  RunRecord run;
  JsonValue metrics;
  std::vector<FlightEvent> events;  // the "flight_recorder" array
};

StatusOr<PostmortemBundle> ParsePostmortemBundle(std::string_view json);
StatusOr<PostmortemBundle> ReadPostmortemBundle(const std::string& path);

// Human-readable bundle digest: reason, query, tripped limit, event counts
// by kind, and the newest flight events. (`emcalc-inspect trace` renders
// the events with ChromeTraceJson, src/obs/trace.h.)
std::string RenderBundle(const PostmortemBundle& bundle);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_INSPECT_H_
