// Durable per-query-hash execution history: an append-mostly JSON-Lines
// feedback store that aggregates actuals from every run — rows out,
// per-operator estimate vs actual (keyed on a stable operator path within
// the plan), wall-time and peak-bytes digests on the metrics histogram
// buckets, parallel efficiency, and abort counts.
//
// The store is the consumer side of the est-vs-actual feedback loop:
// Lower() (src/exec/lower.cc) asks LookupEstimate() for the historical
// mean actual of a previously-seen (query hash, operator path) and uses it
// as that operator's cardinality estimate instead of the static heuristic;
// ObserveRun (src/core/compiler.cc) records every execution's RunRecord
// back into the store. The op-path scheme is owned by src/exec/feedback.h
// (PlanOpPaths / BuildRunRecord) so the plan side and the profile side
// derive identical keys.
//
// File format (one object per line, `<dir>/history.jsonl`):
//   {"v":2,"type":"run",<RunRecord members: "query_hash":"<dec64>",...>}
//   {"v":1,"type":"agg","gen":N,"hash":"<dec64>","runs":...,...}
// Run lines are appended on every recorded execution. Version-1 run lines
// (written before the RunRecord) spelled three keys differently; the
// loader renames hash, aborted and par_eff to query_hash, aborted_limit
// and parallel_efficiency before reading them. When the file
// outgrows its byte bound the store compacts: the in-memory aggregates are
// rewritten as one "agg" line per hash into a temp file that atomically
// replaces the log, and the generation counter increments ("generation
// compaction"). Loading folds agg lines first, then replays run lines;
// unparseable lines (a tail truncated by a crash) are skipped and counted,
// mirroring the query-log inspect policy.
//
// A process-global sink mirrors the query-log pattern: SetHistoryStore for
// tests and the repl, InitHistoryFromEnv for EMCALC_HISTORY_DIR. All
// mutation goes through one mutex, so concurrent Run() recording from the
// thread pool is safe (covered by history_test under TSAN).
#ifndef EMCALC_OBS_HISTORY_H_
#define EMCALC_OBS_HISTORY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/obs/run_record.h"

namespace emcalc::obs {

// Upper bounds for byte-size digests: 1KiB … 16GiB in powers of four.
// Lives here (not metrics.cc) because latency buckets are the registry
// default; size digests are a history-store concern.
const std::vector<double>& DefaultSizeBucketsBytes();

// Per-operator aggregate within one query's history.
struct OpHistory {
  std::string op;  // display name from the newest run
  uint64_t runs = 0;
  double est_sum = 0;
  double actual_sum = 0;
  uint64_t actual_last = 0;
  double factor_sum = 0;
  double factor_worst = 1;
  // The historical actual used to correct future estimates.
  double MeanActual() const {
    return runs == 0 ? 0 : actual_sum / static_cast<double>(runs);
  }
};

// Aggregated history of one query hash across all recorded runs.
struct QueryHistory {
  uint64_t query_hash = 0;
  std::string query;  // text from the newest run
  uint64_t runs = 0;
  uint64_t aborts = 0;  // governor aborts (aborted_limit set)
  uint64_t errors = 0;  // other failed runs
  uint64_t rows_out_last = 0;
  // Digests on the shared metrics bucket layouts: wall on
  // DefaultLatencyBucketsNs, peak on DefaultSizeBucketsBytes.
  Histogram::Snapshot wall;
  Histogram::Snapshot peak;
  double par_eff_sum = 0;
  uint64_t par_runs = 0;
  // Misestimation factors pooled over every (run, operator) sample.
  double factor_worst = 1;
  double factor_sum = 0;
  uint64_t factor_count = 0;
  // The newest wall-time samples, oldest first (sparkline trends).
  std::vector<uint64_t> wall_trend;
  std::map<std::string, OpHistory> ops;  // keyed by operator path

  double MeanWallNs() const {
    return wall.count == 0 ? 0 : wall.sum / static_cast<double>(wall.count);
  }
  double MeanFactor() const {
    return factor_count == 0
               ? 1
               : factor_sum / static_cast<double>(factor_count);
  }
};

// Samples kept per query for trend sparklines.
inline constexpr size_t kHistoryTrendLen = 16;

// Folds one run into an aggregate (shared by recording and load).
void FoldRunRecord(QueryHistory& agg, const RunRecord& run);

// A loaded store file: per-hash aggregates plus load diagnostics.
struct HistoryScan {
  std::vector<QueryHistory> entries;  // sorted by query_hash
  size_t bad_lines = 0;
  uint64_t generation = 0;
  uint64_t total_runs = 0;
};

// `dir_or_file` names either a store directory (its `history.jsonl` is
// used) or a store file directly.
std::string ResolveHistoryPath(const std::string& dir_or_file);

// Read-only load (emcalc-inspect, diffing); does not create the file.
StatusOr<HistoryScan> ReadHistoryFile(const std::string& path);

// Wall-clock percentile of a query's digest (p in (0, 100]).
double HistoryWallPercentile(const QueryHistory& h, double p);

class HistoryStore {
 public:
  struct Options {
    // Compaction trigger: rewrite the log as aggregates once it exceeds
    // this many bytes (and has at least doubled since the last rewrite,
    // so a store whose aggregates alone exceed the bound does not compact
    // on every append). 0 disables compaction.
    uint64_t max_bytes = 4u << 20;
  };

  // Opens (creating if needed) the store under directory `dir`. Loads any
  // existing `history.jsonl`, skipping truncated/corrupt lines.
  static StatusOr<std::unique_ptr<HistoryStore>> Open(const std::string& dir,
                                                      Options options);
  static StatusOr<std::unique_ptr<HistoryStore>> Open(const std::string& dir) {
    return Open(dir, Options());
  }
  ~HistoryStore();

  HistoryStore(const HistoryStore&) = delete;
  HistoryStore& operator=(const HistoryStore&) = delete;

  // Folds `run` into the in-memory aggregates and appends one line to the
  // log (compacting when past the byte bound). Thread-safe.
  void RecordRun(const RunRecord& run);

  // Historical mean actual for (query hash, operator path), with the
  // number of runs it is based on. nullopt when the pair was never seen.
  struct EstimateCorrection {
    double est_rows = 0;
    uint64_t runs = 0;
  };
  std::optional<EstimateCorrection> LookupEstimate(
      uint64_t query_hash, const std::string& op_path) const;

  // A self-consistent copy of the aggregates (sorted by hash).
  HistoryScan Scan() const;

  // Forces a generation compaction now (repl/tests).
  void Compact();

  size_t query_count() const;
  uint64_t total_runs() const;
  uint64_t generation() const;
  size_t bad_lines() const;  // skipped while loading
  const std::string& path() const { return path_; }

 private:
  HistoryStore() = default;
  void CompactLocked();

  std::string path_;
  Options options_;
  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t file_bytes_ = 0;
  uint64_t compact_floor_ = 0;  // file size right after the last compaction
  uint64_t generation_ = 0;
  size_t bad_lines_ = 0;
  uint64_t total_runs_ = 0;
  std::unordered_map<uint64_t, QueryHistory> entries_;
};

// The process-global history store; null (disabled) by default. Borrowed,
// not owned — mirrors SetQueryLog.
HistoryStore* GetHistoryStore();
void SetHistoryStore(HistoryStore* store);

// EMCALC_HISTORY_DIR=<dir>: installs a process-lifetime store recording to
// (and correcting estimates from) <dir>/history.jsonl. Returns true when
// enabled. Idempotent.
bool InitHistoryFromEnv();

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_HISTORY_H_
