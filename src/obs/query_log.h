// Structured per-query logging: one JSON object per line (JSON Lines),
// each line one RunRecord (src/obs/run_record.h).
//
// The compiler emits a "compile" record per Compile, CompileQuery or
// CompileParameterized call (safety verdict, ||phi|| level proxy, FinD
// count, RANF size, plan node count, per-phase durations, error status)
// and a "run" record per execution (outcome, memory, and the run's
// per-operator profile tree). A query has one text, logged by both kinds
// of record: the text as written for Compile and CompileParameterized, the
// printed query for CompileQuery. Records share that text's hash, so
// compile and run lines join.
//
// A process-global sink is installed with SetQueryLog (or EMCALC_QUERY_LOG
// via InitQueryLogFromEnv); with none installed, logging is a single
// atomic load per query.
#ifndef EMCALC_OBS_QUERY_LOG_H_
#define EMCALC_OBS_QUERY_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/obs/run_record.h"

namespace emcalc::obs {

// FNV-1a of the query text; stable across processes.
uint64_t HashQueryText(std::string_view text);

// Reads one query-log line (RunRecordToJson's output) back into its
// record. Fails when the line is not a JSON object or has no event.
StatusOr<RunRecord> ParseQueryLogLine(std::string_view line);

// A thread-safe JSON-Lines sink.
//
// File mode (Open) buffers lines and flushes on error/abort records, when
// the buffer fills, on Flush(), and at destruction — so a clipped query's
// record is on disk even if the process dies right after. When a rotation
// cap is set (EMCALC_QUERY_LOG_MAX_BYTES, or SetRotationMaxBytes), a file
// that reaches the cap is renamed to `<path>.1` (replacing any previous
// rotation) and a fresh file is started.
//
// Stream mode (borrowed ostream; tests) writes through immediately.
class QueryLog {
 public:
  // Borrow an existing stream (tests); must outlive the log.
  explicit QueryLog(std::ostream* sink) : sink_(sink) {}

  // Appends to `path`. Applies EMCALC_QUERY_LOG_MAX_BYTES when set.
  static StatusOr<std::unique_ptr<QueryLog>> Open(const std::string& path);

  ~QueryLog();

  // Writes the record as one line (RunRecordToJson).
  void Write(const RunRecord& record);

  // Forces buffered lines to disk (file mode; no-op in stream mode).
  void Flush();

  // Best-effort flush for signal handlers: skips if the lock is held,
  // writes with write(2) only. Returns true when the buffer was drained.
  bool TrySignalFlush();

  // 0 disables rotation.
  void SetRotationMaxBytes(uint64_t bytes);
  uint64_t rotations() const;

 private:
  QueryLog() = default;
  void FlushLocked();
  void MaybeRotateLocked();

  mutable std::mutex mu_;
  std::ostream* sink_ = nullptr;  // stream mode only
  int fd_ = -1;                   // file mode only
  std::string path_;
  std::string buf_;
  uint64_t file_bytes_ = 0;
  uint64_t max_bytes_ = 0;
  uint64_t rotations_ = 0;
};

// The process-global query log; null (disabled) by default. Borrowed, not
// owned.
QueryLog* GetQueryLog();
void SetQueryLog(QueryLog* log);

// EMCALC_QUERY_LOG=<path>: installs a process-lifetime query log appending
// to <path>. Returns true when enabled. Idempotent.
bool InitQueryLogFromEnv();

// Async-signal-safe best-effort flush of the global query log (if any).
// Called from the fatal-signal postmortem path.
void QueryLogSignalFlush();

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_QUERY_LOG_H_
