#include "src/obs/resource.h"

#include <cstdlib>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"

namespace emcalc::obs {

MemoryAccountant& MemoryAccountant::Instance() {
  // Leaked on purpose: instrumented containers may be destroyed after any
  // static destruction order.
  static MemoryAccountant* accountant = new MemoryAccountant();
  return *accountant;
}

namespace {

thread_local MemoryScopeState t_scope;

uint64_t EnvLimit(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return 0;
  return static_cast<uint64_t>(v);
}

}  // namespace

MemoryScope::MemoryScope(QueryMemory* query, int op_id) : prev_(t_scope) {
  t_scope = MemoryScopeState{query, op_id};
}

MemoryScope::MemoryScope(const MemoryScopeState& state) : prev_(t_scope) {
  t_scope = state;
}

MemoryScope::~MemoryScope() { t_scope = prev_; }

MemoryScopeState MemoryScope::Current() { return t_scope; }

void ChargeBytes(int64_t delta) {
  if (delta == 0) return;
  MemoryAccountant::Instance().Charge(delta);
  if (t_scope.query != nullptr) t_scope.query->Charge(delta, t_scope.op_id);
  // Large allocations/releases are worth a flight-recorder breadcrumb; the
  // threshold keeps per-row churn out of the ring.
  constexpr int64_t kFlightMemoryThreshold = 256 * 1024;
  if (delta >= kFlightMemoryThreshold || delta <= -kFlightMemoryThreshold) {
    FlightRecord(FlightEventKind::kMemory,
                 delta > 0 ? "mem.charge" : "mem.release",
                 static_cast<uint64_t>(delta > 0 ? delta : -delta));
  }
}

ResourceLimits ResourceLimitsFromEnv() {
  ResourceLimits limits;
  limits.max_bytes = EnvLimit("EMCALC_MAX_QUERY_BYTES");
  limits.max_wall_ms = EnvLimit("EMCALC_MAX_QUERY_MS");
  return limits;
}

ResourceLimits EffectiveLimits(const ResourceLimits& opts) {
  ResourceLimits env = ResourceLimitsFromEnv();
  ResourceLimits merged = opts;
  if (merged.max_bytes == 0) merged.max_bytes = env.max_bytes;
  if (merged.max_wall_ms == 0) merged.max_wall_ms = env.max_wall_ms;
  return merged;
}

const char* ResourceLimitKindName(ResourceLimitKind kind) {
  switch (kind) {
    case ResourceLimitKind::kNone: return "none";
    case ResourceLimitKind::kBytes: return "max_bytes";
    case ResourceLimitKind::kRows: return "max_rows";
    case ResourceLimitKind::kTermClosure: return "max_term_closure_size";
    case ResourceLimitKind::kDeadline: return "max_wall_ms";
  }
  return "?";
}

ResourceGovernor::ResourceGovernor(const ResourceLimits& limits,
                                   const QueryMemory* memory,
                                   uint64_t start_ns)
    : limits_(limits),
      memory_(memory),
      enabled_(limits.max_bytes != 0 || limits.max_rows != 0 ||
               limits.max_term_closure_size != 0 || limits.max_wall_ms != 0) {
  if (limits_.max_wall_ms != 0) {
    deadline_ns_ = start_ns + limits_.max_wall_ms * 1'000'000ULL;
  }
}

void ResourceGovernor::Trip(ResourceLimitKind kind, uint64_t used,
                            uint64_t limit) {
  bool expected = false;
  // First trip wins: later (possibly concurrent) trips keep the original
  // blame so the surfaced limit is deterministic per execution.
  if (tripped_.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    kind_.store(static_cast<uint8_t>(kind), std::memory_order_release);
    used_.store(used, std::memory_order_release);
    limit_.store(limit, std::memory_order_release);
    FlightRecord(FlightEventKind::kGovernorTrip, ResourceLimitKindName(kind),
                 used);
  }
}

bool ResourceGovernor::Check() {
  if (!enabled_) return false;
  if (tripped_.load(std::memory_order_acquire)) return true;
  // The tracked peak, not the live sum: a buffer allocated and freed
  // between two checkpoints still counts against the limit.
  if (limits_.max_bytes != 0 && memory_ != nullptr) {
    int64_t bytes = memory_->peak_bytes();
    if (bytes > 0 && static_cast<uint64_t>(bytes) > limits_.max_bytes) {
      Trip(ResourceLimitKind::kBytes, static_cast<uint64_t>(bytes),
           limits_.max_bytes);
      return true;
    }
  }
  if (limits_.max_rows != 0) {
    uint64_t rows = rows_.load(std::memory_order_relaxed);
    if (rows > limits_.max_rows) {
      Trip(ResourceLimitKind::kRows, rows, limits_.max_rows);
      return true;
    }
  }
  if (deadline_ns_ != 0) {
    uint64_t now = NowNs();
    if (now > deadline_ns_) {
      Trip(ResourceLimitKind::kDeadline,
           (now - (deadline_ns_ - limits_.max_wall_ms * 1'000'000ULL)) /
               1'000'000ULL,
           limits_.max_wall_ms);
      return true;
    }
  }
  return false;
}

Status ResourceGovernor::CheckClosure(uint64_t closure_size) {
  if (enabled_ && limits_.max_term_closure_size != 0 &&
      closure_size > limits_.max_term_closure_size) {
    Trip(ResourceLimitKind::kTermClosure, closure_size,
         limits_.max_term_closure_size);
    return status();
  }
  Check();
  return status();
}

Status ResourceGovernor::status() const {
  if (!tripped()) return Status::Ok();
  ResourceLimitKind kind = tripped_limit();
  std::string unit;
  switch (kind) {
    case ResourceLimitKind::kBytes: unit = " bytes"; break;
    case ResourceLimitKind::kRows: unit = " rows"; break;
    case ResourceLimitKind::kTermClosure: unit = " values"; break;
    case ResourceLimitKind::kDeadline: unit = " ms"; break;
    case ResourceLimitKind::kNone: break;
  }
  return ResourceExhaustedError(
      std::string(ResourceLimitKindName(kind)) + " exceeded: used " +
      std::to_string(used_.load(std::memory_order_acquire)) + unit +
      ", limit " + std::to_string(limit_.load(std::memory_order_acquire)));
}

}  // namespace emcalc::obs
