// Postmortem bundles: one JSON file per failure, written when a query is
// aborted by the ResourceGovernor, finishes with a non-OK status, or the
// process takes a fatal signal. A bundle contains everything needed to
// reconstruct the last moments of the query offline:
//
//   - the run's RunRecord (query text and FNV-1a hash, error, tripped
//     limit, wall time, memory, and the partial per-operator profile tree:
//     rows, wall time and memory attribution per operator), the same
//     record the query log writes for the run
//   - a metrics-registry snapshot
//   - the drained flight-recorder rings (recent span/governor/memory events)
//
// Bundles land in the directory configured with SetPostmortemDir (or the
// EMCALC_POSTMORTEM_DIR env knob); with no directory configured the writer
// is disabled and costs one atomic load per failure. `emcalc-inspect
// bundle <file>` renders a bundle, `emcalc-inspect trace <file>` converts
// its ring into a Chrome trace.
//
// The fatal-signal path (InstallCrashHandler; SIGSEGV/SIGABRT/SIGBUS/
// SIGFPE) is async-signal-safe: it formats with stack buffers and write(2)
// only, reads the current-query slate from a preallocated buffer, skips
// the metrics snapshot (mutex-guarded), and best-effort-flushes the query
// log before re-raising the signal with default disposition.
#ifndef EMCALC_OBS_POSTMORTEM_H_
#define EMCALC_OBS_POSTMORTEM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/obs/run_record.h"

namespace emcalc::obs {

// Directory for bundles; empty string disables the writer. Thread-safe.
void SetPostmortemDir(const std::string& dir);
std::string PostmortemDir();
bool PostmortemEnabled();

// EMCALC_POSTMORTEM_DIR=<dir>: enables bundle writing. Returns true when
// enabled. Idempotent per process (first call wins).
bool InitPostmortemFromEnv();

// Registers the fatal-signal handler (SIGSEGV, SIGABRT, SIGBUS, SIGFPE).
// Idempotent. Safe to call before a directory is configured; the handler
// re-checks at signal time.
void InstallCrashHandler();

// Publishes the query that is currently executing so the signal handler
// can include it in a crash bundle. Text is truncated to an internal
// fixed-size slate. Prefer the RAII CurrentQueryScope.
void SetCurrentQuery(std::string_view text, uint64_t query_hash);
void ClearCurrentQuery();

class CurrentQueryScope {
 public:
  CurrentQueryScope(std::string_view text, uint64_t query_hash) {
    SetCurrentQuery(text, query_hash);
  }
  ~CurrentQueryScope() { ClearCurrentQuery(); }
  CurrentQueryScope(const CurrentQueryScope&) = delete;
  CurrentQueryScope& operator=(const CurrentQueryScope&) = delete;
};

// Writes one bundle (drains the flight recorder, snapshots metrics) and
// returns its path. `reason` is "governor_abort", "run_error" or "manual";
// `run` (null for a manual bundle) contributes its RunRecord members,
// profile included. Fails when no directory is configured or the file
// cannot be created.
StatusOr<std::string> WritePostmortem(std::string_view reason,
                                      const RunRecord* run);

// Total bundles written by this process (normal path only).
uint64_t PostmortemCount();

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_POSTMORTEM_H_
