#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "src/obs/json.h"

namespace emcalc::obs {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string ChromeTraceJson(const std::vector<FlightEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  std::unordered_map<uint32_t, size_t> open_spans;  // by tid
  bool first = true;
  for (const FlightEvent& e : events) {
    char ph = 'i';
    if (e.kind == FlightEventKind::kSpanBegin) {
      ph = 'B';
      ++open_spans[e.tid];
    } else if (e.kind == FlightEventKind::kSpanEnd) {
      size_t& open = open_spans[e.tid];
      if (open == 0) continue;
      --open;
      ph = 'E';
    }
    if (!first) out += ",";
    first = false;
    // Trace-event timestamps are microseconds; the nanoseconds stay exact
    // as three decimals.
    char ts[48];
    std::snprintf(ts, sizeof(ts), "%" PRIu64 ".%03" PRIu64, e.ts_ns / 1000,
                  e.ts_ns % 1000);
    out += "{\"name\":\"" + JsonEscape(e.name) + "\",\"cat\":\"";
    out += FlightEventKindName(e.kind);
    out += "\",\"ph\":\"";
    out += ph;
    out += "\",\"ts\":";
    out += ts;
    out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    // Instants need a scope; args carry the event payload either way.
    if (ph == 'i') out += ",\"s\":\"t\"";
    if (e.arg != 0) out += ",\"args\":{\"arg\":" + std::to_string(e.arg) + "}";
    out += "}";
  }
  out += "]}";
  return out;
}

StatusOr<size_t> WriteChromeTrace(const std::string& path, uint64_t since_ns) {
  std::vector<FlightEvent> events = DrainFlightRecorder();
  events.erase(events.begin(),
               std::partition_point(events.begin(), events.end(),
                                    [since_ns](const FlightEvent& e) {
                                      return e.ts_ns < since_ns;
                                    }));
  std::ofstream file(path, std::ios::trunc);
  if (!file) return InvalidArgumentError("cannot open trace file " + path);
  file << ChromeTraceJson(events) << "\n";
  if (!file.good()) return InternalError("write to trace file " + path + " failed");
  return events.size();
}

namespace {

// The EMCALC_TRACE path; written via atexit.
std::string* g_env_trace_path = nullptr;

void FlushEnvTrace() {
  auto written = WriteChromeTrace(*g_env_trace_path, 0);
  if (!written.ok()) {
    std::fprintf(stderr, "emcalc: EMCALC_TRACE flush failed: %s\n",
                 written.status().ToString().c_str());
  }
}

}  // namespace

bool InitTracingFromEnv() {
  if (g_env_trace_path != nullptr) return true;
  const char* path = std::getenv("EMCALC_TRACE");
  if (path == nullptr || *path == '\0') return false;
  g_env_trace_path = new std::string(path);  // lives until process exit
  std::atexit(FlushEnvTrace);
  return true;
}

}  // namespace emcalc::obs
