// Per-phase compile profiling: a CompilePhase tree mirrors ExecProfile on
// the compile side — one node per pipeline phase (parse, view expansion,
// safety, ENF, RANF, algebra generation, optimization, lowering), each
// with inclusive wall time and a phase-specific detail string.
//
// PhaseTimer is the RAII filler: it appends a child phase to its parent,
// times the enclosing scope into it, and emits a matching span so the same
// phase boundaries appear in captured traces. Phase timing is always on
// (one clock read per phase), which is what lets
// CompiledQuery::ExplainCompile() report real durations unconditionally.
// The detail string lives only here: spans carry names, not details.
//
// Usage contract: sibling timers on one parent must be sequential (close
// one before opening the next) — the timer holds a pointer into the
// parent's children vector.
#ifndef EMCALC_OBS_COMPILE_PROFILE_H_
#define EMCALC_OBS_COMPILE_PROFILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.h"

namespace emcalc::obs {

// One pipeline phase with inclusive wall time; children are sub-phases.
struct CompilePhase {
  std::string name;
  std::string detail;
  uint64_t wall_ns = 0;
  std::vector<CompilePhase> children;

  // First direct child named `name`, or nullptr.
  const CompilePhase* Find(std::string_view name) const;
};

// Sum of the direct children's wall times (for coverage checks: the
// children of a well-instrumented phase account for almost all of it).
uint64_t ChildWallNs(const CompilePhase& phase);

// Indented rendering, one line per phase with time and share of the root:
//   compile                      1.234ms
//     parse                      0.100ms   8.1%
//     translate                  0.901ms  73.0%
//       safety                   0.200ms  16.2%  em-allowed finds=3
std::string CompileProfileToString(const CompilePhase& root);

// Flattens to (dotted-path, wall_ns) pairs, excluding the root's own name:
// {"parse", ...}, {"translate.safety", ...}. Query-log records carry this.
std::vector<std::pair<std::string, uint64_t>> FlattenPhases(
    const CompilePhase& root);

// RAII: appends a phase named `name` to `parent->children`, times the
// scope into it, and emits a span named `span_name` (a static string,
// conventionally "compile.<name>").
class PhaseTimer {
 public:
  PhaseTimer(CompilePhase* parent, const char* name, const char* span_name);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  // The phase being timed; valid until the next sibling phase is opened.
  CompilePhase* phase() { return phase_; }
  void SetDetail(std::string detail) { phase_->detail = std::move(detail); }

 private:
  CompilePhase* phase_;
  Span span_;
  uint64_t start_ns_;
};

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_COMPILE_PROFILE_H_
