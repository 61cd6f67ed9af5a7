#include "src/obs/flight_recorder.h"

#include <unistd.h>

#include <atomic>
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/obs/json.h"
#include "src/obs/trace.h"

namespace emcalc::obs {

namespace {

// Each slot is four consecutive atomic words: ts_ns, name (as uintptr),
// arg, and (tid << 8 | kind). Words are individually atomic so a reader
// racing the writer sees, per word, some previously stored valid value —
// at worst a mismatched combination, which validation below tolerates.
constexpr size_t kWordsPerSlot = 4;
constexpr size_t kMaxRings = 512;
constexpr size_t kDefaultCapacity = 4096;
constexpr uint8_t kMaxKind = static_cast<uint8_t>(FlightEventKind::kMark);

struct Ring {
  uint32_t tid = 0;
  size_t capacity = 0;  // power of two
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t>* words = nullptr;  // capacity * kWordsPerSlot
  Ring* next_retired = nullptr;  // link in g_retired once retired
};

// Fixed registry of rings so the signal handler can iterate without locks.
// Slots are published with release stores and never reordered; a retired
// ring (test reset) leaves a null slot behind and moves to g_retired.
std::atomic<Ring*> g_rings[kMaxRings];
// Retired rings, never freed (a concurrent drain may still be reading one)
// but kept reachable from this list head.
std::atomic<Ring*> g_retired{nullptr};
std::atomic<size_t> g_ring_count{0};
std::atomic<bool> g_enabled{true};
std::atomic<bool> g_env_checked{false};

thread_local Ring* t_ring = nullptr;
thread_local size_t t_ring_slot = 0;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

size_t DefaultCapacityFromEnv() {
  static const size_t capacity = [] {
    const char* env = std::getenv("EMCALC_FLIGHT_RING_EVENTS");
    if (env != nullptr && *env != '\0') {
      char* end = nullptr;
      unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && v >= 16 && v <= (1ull << 24)) {
        return RoundUpPow2(static_cast<size_t>(v));
      }
    }
    return kDefaultCapacity;
  }();
  return capacity;
}

void CheckEnvOnce() {
  if (g_env_checked.load(std::memory_order_acquire)) return;
  const char* env = std::getenv("EMCALC_FLIGHT_RECORDER");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') {
    g_enabled.store(false, std::memory_order_relaxed);
  }
  g_env_checked.store(true, std::memory_order_release);
}

Ring* CreateRing(size_t capacity) {
  size_t slot = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxRings) {
    // Registry full: this thread records nothing rather than blocking.
    g_ring_count.fetch_sub(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto* ring = new Ring();  // lives until process exit
  ring->tid = CurrentThreadId();
  ring->capacity = capacity;
  ring->words = new std::atomic<uint64_t>[capacity * kWordsPerSlot]();
  t_ring_slot = slot;
  g_rings[slot].store(ring, std::memory_order_release);
  return ring;
}

// One slot as read, name still the writer's pointer (no allocation, so the
// signal-safe dump can use it).
struct Slot {
  uint64_t ts_ns = 0;
  uint64_t arg = 0;
  const char* name = "";
  uint32_t tid = 0;
  FlightEventKind kind = FlightEventKind::kNone;
};

// Reads one slot; returns false if it looks unwritten or torn.
bool ReadSlot(const Ring& ring, uint64_t seq, Slot* out) {
  size_t base = (seq & (ring.capacity - 1)) * kWordsPerSlot;
  uint64_t ts = ring.words[base].load(std::memory_order_relaxed);
  uint64_t name = ring.words[base + 1].load(std::memory_order_relaxed);
  uint64_t arg = ring.words[base + 2].load(std::memory_order_relaxed);
  uint64_t meta = ring.words[base + 3].load(std::memory_order_relaxed);
  uint8_t kind = static_cast<uint8_t>(meta & 0xff);
  if (kind == 0 || kind > kMaxKind) return false;
  out->ts_ns = ts;
  out->arg = arg;
  out->name = name == 0 ? ""
                        : reinterpret_cast<const char*>(
                              static_cast<uintptr_t>(name));
  out->tid = static_cast<uint32_t>(meta >> 8);
  out->kind = static_cast<FlightEventKind>(kind);
  return true;
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kNone: return "none";
    case FlightEventKind::kSpanBegin: return "span_begin";
    case FlightEventKind::kSpanEnd: return "span_end";
    case FlightEventKind::kGovernorTrip: return "governor_trip";
    case FlightEventKind::kMemory: return "memory";
    case FlightEventKind::kQueryStart: return "query_start";
    case FlightEventKind::kQueryEnd: return "query_end";
    case FlightEventKind::kMark: return "mark";
  }
  return "unknown";
}

FlightEventKind FlightEventKindFromName(std::string_view name) {
  for (uint8_t k = 1; k <= kMaxKind; ++k) {
    auto kind = static_cast<FlightEventKind>(k);
    if (name == FlightEventKindName(kind)) return kind;
  }
  return FlightEventKind::kNone;
}

bool FlightRecorderEnabled() {
  CheckEnvOnce();
  return g_enabled.load(std::memory_order_relaxed);
}

void SetFlightRecorderEnabled(bool enabled) {
  CheckEnvOnce();
  g_enabled.store(enabled, std::memory_order_relaxed);
}

size_t FlightRingCapacity() { return DefaultCapacityFromEnv(); }

void FlightRecord(FlightEventKind kind, const char* name, uint64_t arg) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Ring* ring = t_ring;
  if (ring == nullptr) {
    CheckEnvOnce();
    if (!g_enabled.load(std::memory_order_relaxed)) return;
    ring = CreateRing(DefaultCapacityFromEnv());
    t_ring = ring;
    if (ring == nullptr) return;
  }
  uint64_t head = ring->head.load(std::memory_order_relaxed);
  size_t base = (head & (ring->capacity - 1)) * kWordsPerSlot;
  ring->words[base].store(NowNs(), std::memory_order_relaxed);
  ring->words[base + 1].store(
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(name)),
      std::memory_order_relaxed);
  ring->words[base + 2].store(arg, std::memory_order_relaxed);
  ring->words[base + 3].store(
      (static_cast<uint64_t>(ring->tid) << 8) | static_cast<uint64_t>(kind),
      std::memory_order_relaxed);
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<FlightEvent> DrainFlightRecorder() {
  std::vector<FlightEvent> events;
  size_t count = std::min(g_ring_count.load(std::memory_order_acquire),
                          kMaxRings);
  for (size_t i = 0; i < count; ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t start = head > ring->capacity ? head - ring->capacity : 0;
    for (uint64_t seq = start; seq < head; ++seq) {
      Slot slot;
      if (!ReadSlot(*ring, seq, &slot)) continue;
      events.push_back(FlightEvent{slot.ts_ns, slot.arg, slot.name, slot.tid,
                                   slot.kind});
    }
  }
  // Stable: a span's begin and a nested begin can share a timestamp, and
  // their order in the ring is what nests them.
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

std::string FlightEventsToJson(const std::vector<FlightEvent>& events) {
  std::string out = "[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"ts_ns\":" + std::to_string(e.ts_ns);
    out += ",\"tid\":" + std::to_string(e.tid);
    out += ",\"kind\":\"";
    out += FlightEventKindName(e.kind);
    out += "\",\"name\":\"" + JsonEscape(e.name);
    out += "\",\"arg\":" + std::to_string(e.arg) + "}";
  }
  out += "]";
  return out;
}

namespace {

// write(2) with EINTR retry; best effort (a signal handler cannot recover
// from a failed dump anyway).
void RawWrite(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
}

void RawWriteStr(int fd, const char* s) { RawWrite(fd, s, std::strlen(s)); }

void RawWriteU64(int fd, uint64_t v) {
  char buf[24];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  RawWrite(fd, p, static_cast<size_t>(buf + sizeof(buf) - p));
}

// Names are string literals (identifiers); anything that would need JSON
// escaping is replaced rather than escaped to stay trivially signal-safe.
void RawWriteName(int fd, const char* s) {
  for (const char* p = s; *p != '\0'; ++p) {
    char c = *p;
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = '?';
    RawWrite(fd, &c, 1);
  }
}

}  // namespace

void DumpFlightRingsJson(int fd) {
  RawWriteStr(fd, "[");
  bool first = true;
  size_t count = std::min(g_ring_count.load(std::memory_order_acquire),
                          kMaxRings);
  for (size_t i = 0; i < count; ++i) {
    Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t start = head > ring->capacity ? head - ring->capacity : 0;
    for (uint64_t seq = start; seq < head; ++seq) {
      Slot e;
      if (!ReadSlot(*ring, seq, &e)) continue;
      if (!first) RawWriteStr(fd, ",");
      first = false;
      RawWriteStr(fd, "{\"ts_ns\":");
      RawWriteU64(fd, e.ts_ns);
      RawWriteStr(fd, ",\"tid\":");
      RawWriteU64(fd, e.tid);
      RawWriteStr(fd, ",\"kind\":\"");
      RawWriteStr(fd, FlightEventKindName(e.kind));
      RawWriteStr(fd, "\",\"name\":\"");
      RawWriteName(fd, e.name);
      RawWriteStr(fd, "\",\"arg\":");
      RawWriteU64(fd, e.arg);
      RawWriteStr(fd, "}");
    }
  }
  RawWriteStr(fd, "]");
}

void ResetFlightRingForTesting(size_t capacity_events) {
  if (t_ring != nullptr) {
    // Retire the old ring so drains no longer see its events. The ring
    // itself is never freed: a concurrent drain may still be reading it.
    g_rings[t_ring_slot].store(nullptr, std::memory_order_release);
    t_ring->next_retired = g_retired.load(std::memory_order_relaxed);
    while (!g_retired.compare_exchange_weak(t_ring->next_retired, t_ring,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
    }
    t_ring = nullptr;
  }
  if (capacity_events < 2) capacity_events = 2;
  t_ring = CreateRing(RoundUpPow2(capacity_events));
}

}  // namespace emcalc::obs
