// Spans and their Chrome trace-event export.
//
// A Span is an RAII guard that records a span_begin event at construction
// and a span_end event at destruction into the calling thread's flight-
// recorder ring (src/obs/flight_recorder.h), the one sink of every span:
//
//   { obs::Span span("compile.parse"); ... }     // one begin/end pair
//   obs::WriteChromeTrace("trace.json", since);  // Perfetto-loadable
//
// Recording costs what the recorder costs (four relaxed stores plus a
// release store per event; one relaxed load when it is disabled), so the
// instrumentation stays compiled in on hot paths unconditionally. Span
// names must be string literals (or otherwise outlive the process): the
// ring stores the pointer. Per-phase and per-operator details live in
// CompilePhase and ExecProfile, not in spans.
//
// A trace is a drain of the rings, so a capture holds at most the ring
// capacity per thread (EMCALC_FLIGHT_RING_EVENTS, default 4096) and is
// empty when the recorder is off (EMCALC_FLIGHT_RECORDER=0).
#ifndef EMCALC_OBS_TRACE_H_
#define EMCALC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/obs/flight_recorder.h"

namespace emcalc::obs {

// Monotonic nanoseconds (steady clock); the zero point is arbitrary.
uint64_t NowNs();

// Small dense id for the calling thread (first use assigns the next id).
uint32_t CurrentThreadId();

// RAII span guard: a span_begin/span_end pair in the calling thread's ring.
class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    FlightRecord(FlightEventKind::kSpanBegin, name);
  }
  ~Span() { FlightRecord(FlightEventKind::kSpanEnd, name_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
};

// Flight events as Chrome trace-event JSON (chrome://tracing, Perfetto):
// {"displayTimeUnit":"ns","traceEvents":[...]}. Span begin/end become "B"/
// "E" duration events, which nest per thread; every other event is an "i"
// instant carrying its argument. An end whose begin is not among `events`
// (lost to a lapped ring or before a capture's start) is dropped, so each
// thread's spans stay balanced. The one Chrome-trace writer: the repl's
// `.trace`, EMCALC_TRACE and `emcalc-inspect trace` all use it.
std::string ChromeTraceJson(const std::vector<FlightEvent>& events);

// Drains the rings and writes the events recorded at or after `since_ns`
// to `path` as ChromeTraceJson. Returns the number of events drained.
StatusOr<size_t> WriteChromeTrace(const std::string& path, uint64_t since_ns);

// EMCALC_TRACE=<path>: at normal process exit, writes the drained rings to
// <path>. Returns true when the variable is set. Idempotent.
bool InitTracingFromEnv();

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_TRACE_H_
