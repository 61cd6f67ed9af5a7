#include "src/base/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "src/obs/trace.h"

namespace emcalc {

ThreadPool::ThreadPool(size_t threads) {
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: worker threads must never outlive the pool, and
  // static destruction order cannot guarantee that.
  static ThreadPool* pool =
      new ThreadPool(HardwareThreads() > 0 ? HardwareThreads() - 1 : 0);
  return *pool;
}

size_t ThreadPool::HardwareThreads() {
  // EMCALC_HARDWARE_THREADS overrides detection: it forces real worker
  // threads on single-core boxes (so sanitizer runs exercise genuine
  // concurrency) and caps fan-out on shared machines. Read once; the
  // global pool is sized from this value.
  static const size_t resolved = [] {
    if (const char* env = std::getenv("EMCALC_HARDWARE_THREADS")) {
      char* end = nullptr;
      unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && v > 0 && v <= 1024) {
        return static_cast<size_t>(v);
      }
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? size_t{1} : static_cast<size_t>(hw);
  }();
  return resolved;
}

void ThreadPool::Drain(Region& region, size_t worker) {
  const size_t n = region.n;
  const size_t grain = region.grain;
  const uint64_t start = obs::NowNs();
  uint64_t claimed = 0;
  for (;;) {
    size_t begin = region.cursor.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= n) break;
    size_t end = std::min(begin + grain, n);
    ++claimed;
    (*region.fn)(worker, begin, end);
  }
  const uint64_t busy = obs::NowNs() - start;
  region.busy_ns.fetch_add(busy, std::memory_order_relaxed);
  region.morsels.fetch_add(claimed, std::memory_order_relaxed);
  if (claimed > 0) region.participants.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::WorkerLoop() {
  uint64_t last_seq = 0;
  for (;;) {
    Region* region = nullptr;
    size_t worker = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (region_ != nullptr && region_seq_ != last_seq);
      });
      if (shutdown_) return;
      last_seq = region_seq_;
      // Claim a dense worker id; late joiners beyond the cap sit the
      // region out (and wait for the next one).
      size_t id =
          region_->next_worker.fetch_add(1, std::memory_order_relaxed);
      if (id >= region_->max_workers) continue;
      worker = id;
      region = region_;
      region->active.fetch_add(1, std::memory_order_relaxed);
    }
    {
      obs::MemoryScope adopt(region->scope);
      Drain(*region, worker);
    }
    if (region->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t grain, size_t max_workers,
    const std::function<void(size_t, size_t, size_t)>& fn,
    RegionStats* stats) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  max_workers = std::min(max_workers, parallelism());
  if (max_workers <= 1 || n <= grain) {
    // Inline: no pool involvement, no synchronization. Timing only when a
    // caller asked for telemetry.
    if (stats == nullptr) {
      for (size_t begin = 0; begin < n; begin += grain) {
        fn(0, begin, std::min(begin + grain, n));
      }
      return;
    }
    const uint64_t start = obs::NowNs();
    uint64_t morsels = 0;
    for (size_t begin = 0; begin < n; begin += grain) {
      ++morsels;
      fn(0, begin, std::min(begin + grain, n));
    }
    const uint64_t wall = obs::NowNs() - start;
    stats->wall_ns += wall;
    stats->busy_ns += wall;
    stats->morsels += morsels;
    stats->max_workers = std::max<uint32_t>(stats->max_workers, 1);
    return;
  }

  std::lock_guard<std::mutex> serial(region_serial_);
  Region region;
  region.fn = &fn;
  region.n = n;
  region.grain = grain;
  region.scope = obs::MemoryScope::Current();
  region.max_workers = max_workers;
  // The caller is worker 0; pool workers claim ids from 1.
  region.next_worker.store(1, std::memory_order_relaxed);
  const uint64_t start = obs::NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    region_ = &region;
    ++region_seq_;
  }
  work_cv_.notify_all();
  Drain(region, 0);
  // Unpublish before waiting: once region_ is null no new worker can
  // join, so active can only fall. Without this a late-waking worker
  // could enter the region while we are destroying it.
  {
    std::unique_lock<std::mutex> lock(mu_);
    region_ = nullptr;
    done_cv_.wait(lock, [&] {
      return region.active.load(std::memory_order_acquire) == 0;
    });
  }
  if (stats == nullptr) return;
  stats->wall_ns += obs::NowNs() - start;
  stats->busy_ns += region.busy_ns.load(std::memory_order_relaxed);
  stats->morsels += region.morsels.load(std::memory_order_relaxed);
  const auto participants = static_cast<uint32_t>(
      region.participants.load(std::memory_order_relaxed));
  stats->max_workers =
      std::max(stats->max_workers, std::max<uint32_t>(participants, 1));
}

}  // namespace emcalc
