// Offline analysis of emcalc's observability artifacts: JSON-Lines query
// logs (src/obs/query_log.h) and postmortem bundles (src/obs/postmortem.h).
// This is the library behind the `emcalc-inspect` CLI (tools/inspect.cc);
// every renderer returns plain text so the CLI stays a thin argv shim and
// tests can golden-match the output.
#ifndef EMCALC_OBS_INSPECT_H_
#define EMCALC_OBS_INSPECT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/obs/json.h"
#include "src/obs/query_log.h"
#include "src/obs/run_record.h"

namespace emcalc::obs {

// A parsed query log. Unparseable lines are counted, not fatal — a log cut
// off mid-line by a crash must still analyze.
struct QueryLogScan {
  std::vector<QueryLogRecord> records;
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

// One flight-recorder event from a bundle's "flight_recorder" array.
struct BundleEvent {
  uint64_t ts_ns = 0;
  uint64_t arg = 0;
  uint32_t tid = 0;
  std::string kind;  // "span_begin", "governor_trip", ...
  std::string name;
};

// A parsed postmortem bundle. `run` holds the failed run's RunRecord
// (defaults for a manual bundle; query and hash only for a signal bundle).
// `profile` / `metrics` / `pool` hold the embedded sub-documents verbatim
// (kind kNull when absent) so callers can drill in without re-reading the
// file.
struct PostmortemBundle {
  std::string reason;  // "governor_abort" | "run_error" | "signal" | ...
  std::string signal_name;
  RunRecord run;
  JsonValue profile;
  JsonValue metrics;
  JsonValue pool;
  std::vector<BundleEvent> events;
};

StatusOr<PostmortemBundle> ParsePostmortemBundle(std::string_view json);
StatusOr<PostmortemBundle> ReadPostmortemBundle(const std::string& path);

// Human-readable bundle digest: reason, query, tripped limit, event counts
// by kind, and the newest flight events.
std::string RenderBundle(const PostmortemBundle& bundle);

// The bundle's flight events as a Chrome trace (chrome://tracing /
// Perfetto "traceEvents" JSON): span begin/end pairs become "B"/"E"
// duration events, everything else an "i" instant.
std::string BundleToChromeTrace(const PostmortemBundle& bundle);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_INSPECT_H_
