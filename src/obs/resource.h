// Memory accounting and per-query resource governance.
//
// Three layers, cheapest first:
//
//   MemoryAccountant   process-wide relaxed-atomic byte counters. Every
//                      tracked allocation site (FlatRelation buffers,
//                      JoinTable slot arrays, StringPool blocks, term-
//                      closure sets, morsel buffers) reports capacity
//                      deltas here unconditionally.
//   MemoryScope        thread-local RAII attribution: while a scope is
//                      active, the same deltas are additionally charged to
//                      a QueryMemory (one per plan execution) and to one of
//                      its per-operator slots. ThreadPool::ParallelFor
//                      captures the caller's scope and re-installs it on
//                      every worker, so morsel allocations attribute to the
//                      operator that spawned the region no matter which
//                      thread runs the morsel.
//   ResourceGovernor   per-query limits (bytes, rows, term-closure size,
//                      wall deadline) checked at morsel boundaries and
//                      closure rounds. The first limit to trip is recorded
//                      (sticky) and surfaces as a kResourceExhausted Status
//                      naming the limit; workers drain without doing work
//                      once tripped, so the pool is left clean and the
//                      process stays reusable.
//
// Accounting is capacity-based (vector capacity × element size), not
// malloc-exact: it tracks the dominant data-plane buffers, which is what a
// limit needs to bound. Charges follow the owning container: a buffer
// allocated under operator A and freed while operator B's scope is active
// debits B's query-level running sum (the process-wide counter is always
// consistent). Peaks are monotone maxima of the running sums, so the
// per-query peak is exact for allocations made during the query.
#ifndef EMCALC_OBS_RESOURCE_H_
#define EMCALC_OBS_RESOURCE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace emcalc::obs {

namespace internal {
// Relaxed CAS-max: lifts `current` into `peak` when larger. Lost races
// only ever lose to a *larger* concurrent value, so the peak is monotone.
inline void UpdateAtomicMax(std::atomic<int64_t>& peak, int64_t current) {
  int64_t prev = peak.load(std::memory_order_relaxed);
  while (current > prev &&
         !peak.compare_exchange_weak(prev, current,
                                     std::memory_order_relaxed)) {
  }
}
}  // namespace internal

// Process-wide byte counters. All operations are relaxed atomics — the
// counters are monotone instrumentation, never synchronization.
class MemoryAccountant {
 public:
  // The process-wide instance (never destroyed).
  static MemoryAccountant& Instance();

  // Reports a capacity delta (positive = grow, negative = release).
  void Charge(int64_t delta) {
    int64_t now = bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
    internal::UpdateAtomicMax(peak_, now);
    if (delta > 0) {
      allocated_.fetch_add(static_cast<uint64_t>(delta),
                           std::memory_order_relaxed);
    }
  }

  // Bytes currently held by tracked containers.
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  // High-water mark of bytes() over the process lifetime.
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  // Cumulative positive deltas (total bytes ever allocated).
  uint64_t bytes_allocated() const {
    return allocated_.load(std::memory_order_relaxed);
  }

  MemoryAccountant(const MemoryAccountant&) = delete;
  MemoryAccountant& operator=(const MemoryAccountant&) = delete;

 private:
  MemoryAccountant() = default;

  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<uint64_t> allocated_{0};
};

// Per-execution memory state: a query-level running sum/peak plus one slot
// per physical operator. Charged from many worker threads concurrently.
class QueryMemory {
 public:
  explicit QueryMemory(size_t num_ops) : ops_(num_ops) {}

  QueryMemory(const QueryMemory&) = delete;
  QueryMemory& operator=(const QueryMemory&) = delete;

  // Charges `delta` to the query totals and, when `op_id` addresses a
  // slot, to that operator.
  void Charge(int64_t delta, int op_id) {
    int64_t now = bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
    internal::UpdateAtomicMax(peak_, now);
    if (delta > 0) {
      allocated_.fetch_add(static_cast<uint64_t>(delta),
                           std::memory_order_relaxed);
    }
    if (op_id >= 0 && static_cast<size_t>(op_id) < ops_.size()) {
      OpSlot& slot = ops_[static_cast<size_t>(op_id)];
      int64_t op_now =
          slot.bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
      internal::UpdateAtomicMax(slot.peak, op_now);
      if (delta > 0) {
        slot.allocated.fetch_add(static_cast<uint64_t>(delta),
                                 std::memory_order_relaxed);
      }
    }
  }

  // Query-level running byte sum (can dip negative when buffers allocated
  // before the query are freed inside it) and its high-water mark, which
  // the governor's byte limit compares.
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t bytes_allocated() const {
    return allocated_.load(std::memory_order_relaxed);
  }

  size_t num_ops() const { return ops_.size(); }
  int64_t OpPeakBytes(size_t op) const {
    return ops_[op].peak.load(std::memory_order_relaxed);
  }
  uint64_t OpBytesAllocated(size_t op) const {
    return ops_[op].allocated.load(std::memory_order_relaxed);
  }

 private:
  struct OpSlot {
    std::atomic<int64_t> bytes{0};
    std::atomic<int64_t> peak{0};
    std::atomic<uint64_t> allocated{0};
  };

  std::vector<OpSlot> ops_;  // sized at construction, never grows
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<uint64_t> allocated_{0};
};

// The attribution target of the calling thread; a null query means only
// the process accountant is charged.
struct MemoryScopeState {
  QueryMemory* query = nullptr;
  int op_id = -1;
};

// RAII installer of a MemoryScopeState into thread-local storage. Scopes
// nest: each constructor saves the previous state and the destructor
// restores it, so an operator's scope shadows its parent's for exactly the
// duration of its Run.
class MemoryScope {
 public:
  MemoryScope(QueryMemory* query, int op_id);
  // Adopts a captured state (thread-pool workers entering a region).
  explicit MemoryScope(const MemoryScopeState& state);
  ~MemoryScope();

  MemoryScope(const MemoryScope&) = delete;
  MemoryScope& operator=(const MemoryScope&) = delete;

  // The calling thread's active state (for capture/propagation).
  static MemoryScopeState Current();

 private:
  MemoryScopeState prev_;
};

// Reports a byte delta to the process accountant and, when the calling
// thread has an active scope, to its query/operator. This is the one
// charge entry point every instrumented container calls.
void ChargeBytes(int64_t delta);

// Tracks the bytes charged for a transient buffer the caller sizes
// manually (join scratch arrays, closure sets). Update(now) charges the
// delta against the last reported size; the destructor releases whatever
// is still charged.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  explicit MemoryCharge(int64_t bytes) { Update(bytes); }
  ~MemoryCharge() { Update(0); }

  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

  void Update(int64_t now) {
    if (now == charged_) return;
    ChargeBytes(now - charged_);
    charged_ = now;
  }
  int64_t charged() const { return charged_; }

 private:
  int64_t charged_ = 0;
};

// Per-query ceilings; 0 means unlimited.
struct ResourceLimits {
  uint64_t max_bytes = 0;              // tracked peak bytes (query scope)
  uint64_t max_rows = 0;               // total operator output rows
  uint64_t max_term_closure_size = 0;  // values in one term closure
  uint64_t max_wall_ms = 0;            // wall-clock deadline
};

// EMCALC_MAX_QUERY_BYTES / EMCALC_MAX_QUERY_MS, parsed per call (the cost
// is two getenv calls per execution). Unset/invalid fields read as 0.
ResourceLimits ResourceLimitsFromEnv();

// `opts` merged with the env knobs: an explicit (non-zero) ExecOptions
// field wins; otherwise the env value applies.
ResourceLimits EffectiveLimits(const ResourceLimits& opts);

// Which ceiling tripped.
enum class ResourceLimitKind : uint8_t {
  kNone = 0,
  kBytes,
  kRows,
  kTermClosure,
  kDeadline,
};

// Stable name matching the ResourceLimits field ("max_bytes", ...).
const char* ResourceLimitKindName(ResourceLimitKind kind);

// Enforces one query's limits. Check() is cheap enough for morsel
// boundaries: with no limits configured it is one branch; with limits it
// is a handful of relaxed loads (the deadline clock is only read when a
// deadline is set). The first trip wins and is sticky — later checks
// return the same verdict without re-deriving it, and in-flight workers
// observing tripped() skip their remaining morsels.
class ResourceGovernor {
 public:
  // `memory` backs the byte limit (may be null → byte limit inert);
  // `start_ns` anchors the deadline (steady clock, obs::NowNs).
  ResourceGovernor(const ResourceLimits& limits, const QueryMemory* memory,
                   uint64_t start_ns);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  bool enabled() const { return enabled_; }

  // Accumulates operator output rows toward max_rows.
  void AddRows(uint64_t n) {
    if (enabled_) rows_.fetch_add(n, std::memory_order_relaxed);
  }

  // Evaluates the byte/row/deadline limits; returns true when tripped
  // (now or previously).
  bool Check();

  // Check() plus the closure-size limit; returns the governor status
  // directly (Ok when nothing tripped).
  Status CheckClosure(uint64_t closure_size);

  bool tripped() const {
    return enabled_ && tripped_.load(std::memory_order_acquire);
  }
  ResourceLimitKind tripped_limit() const {
    return static_cast<ResourceLimitKind>(
        kind_.load(std::memory_order_acquire));
  }

  // Ok, or kResourceExhausted naming the tripped limit with used/limit
  // values.
  Status status() const;

 private:
  void Trip(ResourceLimitKind kind, uint64_t used, uint64_t limit);

  const ResourceLimits limits_;
  const QueryMemory* memory_;
  const bool enabled_;
  uint64_t deadline_ns_ = 0;  // 0 = no deadline
  std::atomic<uint64_t> rows_{0};
  std::atomic<bool> tripped_{false};
  std::atomic<uint8_t> kind_{0};
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> limit_{0};
};

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_RESOURCE_H_
