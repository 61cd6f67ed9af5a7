// A morsel-driven fork-join thread pool for the execution layer.
//
// The pool keeps `threads` persistent workers parked on a condition
// variable. ParallelFor splits [0, n) into fixed-size morsels (grain) and
// lets workers claim morsels from an atomic cursor until the range is
// drained; the calling thread participates as worker 0, so `parallelism`
// includes the caller and a pool constructed with 0 extra threads still
// makes progress. Morsel boundaries depend only on (n, grain), never on
// the number of threads, so per-morsel outputs can be concatenated in
// morsel order for thread-count-independent results.
//
// One parallel region runs at a time (a region mutex serializes callers);
// operators inside a region must not start nested regions.
#ifndef EMCALC_BASE_THREAD_POOL_H_
#define EMCALC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/resource.h"

namespace emcalc {

class ThreadPool {
 public:
  // A pool with `threads` workers in addition to the caller. `threads`
  // may be 0: ParallelFor then runs entirely on the calling thread.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool sized to the hardware; created on first use.
  static ThreadPool& Global();

  // Default worker count for `num_threads = 0` knobs. Detection can be
  // overridden with EMCALC_HARDWARE_THREADS (resolved once per process);
  // the global pool is sized from this value.
  static size_t HardwareThreads();

  // Workers available to a region, including the calling thread.
  size_t parallelism() const { return workers_.size() + 1; }

  // Contention telemetry accumulated across the regions a caller passes
  // one of these to (an operator hands the same instance to every
  // ParallelFor it issues, then folds it into its OpStats). Efficiency is
  // busy_ns / (wall_ns * max_workers): 1.0 means every participating
  // thread was claiming morsels for the whole region.
  struct RegionStats {
    uint64_t wall_ns = 0;      // summed region wall time
    uint64_t busy_ns = 0;      // summed per-thread drain time
    uint64_t morsels = 0;      // morsels claimed
    uint32_t max_workers = 0;  // most threads that did work in one region
  };

  // Runs fn(worker, begin, end) over disjoint morsels covering [0, n).
  // `worker` is a dense id in [0, max_workers) identifying the executing
  // thread within this region — use it to index per-worker accumulators.
  // `max_workers` caps how many threads participate (clamped to
  // parallelism()); 1 runs inline without touching the pool. fn must not
  // re-enter ParallelFor. Blocks until every morsel has been processed.
  // When `stats` is non-null the region's telemetry is added (+=) into it.
  void ParallelFor(size_t n, size_t grain, size_t max_workers,
                   const std::function<void(size_t, size_t, size_t)>& fn,
                   RegionStats* stats = nullptr);

 private:
  struct Region {
    const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
    size_t n = 0;
    size_t grain = 0;
    // The caller's memory-attribution scope, re-installed on every worker
    // so morsel allocations charge the operator that opened the region.
    obs::MemoryScopeState scope;
    std::atomic<size_t> cursor{0};
    // Dense worker ids, claimed on entry; bounded by max_workers.
    std::atomic<size_t> next_worker{0};
    size_t max_workers = 0;
    std::atomic<size_t> active{0};
    // Telemetry: folded from every draining thread when it finishes.
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> morsels{0};
    std::atomic<size_t> participants{0};  // threads that claimed >=1 morsel
  };

  void WorkerLoop();
  // Claims morsels from `region` until the cursor passes n, and folds this
  // thread's drain time and morsel count into the region's telemetry.
  static void Drain(Region& region, size_t worker);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a region
  std::condition_variable done_cv_;   // the caller waits here for drain
  Region* region_ = nullptr;          // guarded by mu_
  uint64_t region_seq_ = 0;           // guarded by mu_; bumps per region
  bool shutdown_ = false;             // guarded by mu_
  std::mutex region_serial_;          // one ParallelFor at a time
};

}  // namespace emcalc

#endif  // EMCALC_BASE_THREAD_POOL_H_
