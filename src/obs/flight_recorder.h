// Always-on flight recorder: a per-thread, lock-free ring buffer of recent
// observability events (span begin/end, governor trips, large memory deltas,
// query start/end). It is the one sink of obs::Span (src/obs/trace.h): on
// by default, it keeps the last few thousand events per thread, so the
// moments before an abort or crash are recoverable after the fact, and a
// trace is a drain of the rings.
//
// Design constraints:
//  - Recording must be cheap enough to leave on in production (<1% of query
//    wall time; gated by bench_obs_overhead). Each event is four relaxed
//    atomic stores plus one release store of the ring head.
//  - Each ring has exactly one writer (its owning thread), so no CAS loops
//    are needed. Readers (drain, postmortem, signal handler) may observe a
//    torn slot while the writer laps them; drained events are validated and
//    rare torn slots dropped.
//  - The ring registry is a fixed-size array of atomic pointers so a fatal-
//    signal handler can walk it without taking locks or allocating.
#ifndef EMCALC_OBS_FLIGHT_RECORDER_H_
#define EMCALC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace emcalc::obs {

enum class FlightEventKind : uint8_t {
  kNone = 0,  // unwritten slot
  kSpanBegin = 1,
  kSpanEnd = 2,
  kGovernorTrip = 3,
  kMemory = 4,
  kQueryStart = 5,
  kQueryEnd = 6,
  kMark = 7,
};

// Stable lower-case name for JSON output ("span_begin", ...).
const char* FlightEventKindName(FlightEventKind kind);

// The kind FlightEventKindName names `name`; kNone for an unknown name.
FlightEventKind FlightEventKindFromName(std::string_view name);

// One event, drained from the rings or read back from a bundle.
struct FlightEvent {
  uint64_t ts_ns = 0;
  uint64_t arg = 0;
  std::string name;
  uint32_t tid = 0;
  FlightEventKind kind = FlightEventKind::kNone;
};

// The recorder is enabled by default; EMCALC_FLIGHT_RECORDER=0 disables it
// and EMCALC_FLIGHT_RING_EVENTS overrides the per-thread capacity (rounded
// up to a power of two, default 4096). Both are read once, lazily.
bool FlightRecorderEnabled();
void SetFlightRecorderEnabled(bool enabled);
size_t FlightRingCapacity();

// Records one event into the calling thread's ring. `name` must be a
// pointer with static storage duration (string literal or interned).
void FlightRecord(FlightEventKind kind, const char* name, uint64_t arg = 0);

// Merges all rings into one timestamp-sorted vector of the most recent
// events (up to capacity per thread); events of one thread keep their
// recording order. Safe to call while writers run.
std::vector<FlightEvent> DrainFlightRecorder();

// Renders events as a JSON array of objects
// [{"ts_ns":..,"tid":..,"kind":"span_begin","name":"..","arg":..},..].
std::string FlightEventsToJson(const std::vector<FlightEvent>& events);

// Async-signal-safe: walks the ring registry and writes the same JSON array
// directly to `fd` using only write(2) and stack buffers. Used by the fatal
// signal handler; no allocation, locks, or formatted I/O.
void DumpFlightRingsJson(int fd);

// Test hook: drops the calling thread's ring so a fresh capacity takes
// effect and drained output is limited to events recorded afterwards.
void ResetFlightRingForTesting(size_t capacity_events);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_FLIGHT_RECORDER_H_
