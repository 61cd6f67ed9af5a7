#include "src/storage/adom.h"

#include <algorithm>
#include <unordered_set>

#include "src/base/thread_pool.h"
#include "src/calculus/analysis.h"

namespace emcalc {

void NormalizeValueSet(ValueSet& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

ValueSet ActiveDomain(const Database& db) {
  ValueSet out;
  for (const auto& [name, rel] : db.relations()) {
    for (TupleRef t : rel) {
      out.insert(out.end(), t.begin(), t.end());
    }
  }
  NormalizeValueSet(out);
  return out;
}

ValueSet ActiveDomain(const Formula* f, const Database& db) {
  ValueSet out = ActiveDomain(db);
  ValueSet consts = CollectConstants(f);
  out.insert(out.end(), consts.begin(), consts.end());
  NormalizeValueSet(out);
  return out;
}

StatusOr<ValueSet> TermClosure(
    ValueSet base, const std::vector<std::pair<std::string, int>>& fns,
    const FunctionRegistry& registry, int level, size_t max_size,
    size_t num_threads, obs::ResourceGovernor* governor,
    ThreadPool::RegionStats* par_stats) {
  NormalizeValueSet(base);

  // Resolve all functions up front.
  std::vector<const ScalarFunction*> resolved;
  for (const auto& [name, arity] : fns) {
    auto f = registry.Get(name, arity);
    if (!f.ok()) return f.status();
    resolved.push_back(*f);
  }

  size_t threads =
      num_threads == 0 ? ThreadPool::HardwareThreads() : num_threads;
  constexpr size_t kGrain = 4096;  // fn applications per morsel

  // The closure so far, twice: `members` answers membership in O(1), `all`
  // keeps an indexable enumeration order. Each round costs O(applications
  // + fresh values) — the closure is never re-sorted; one final sort
  // restores the ValueSet contract.
  std::unordered_set<Value> members(base.begin(), base.end());
  std::unordered_set<Value> frontier(members);
  ValueSet all = std::move(base);  // sorted + deduped above

  // Approximate the closure's working set for memory accounting: the
  // enumeration vector's capacity plus ~3 words per hash-set element
  // (node + bucket share). Updated once per round; released on return.
  obs::MemoryCharge memory;
  auto charge_round = [&] {
    memory.Update(static_cast<int64_t>(
        (all.capacity() + 3 * members.size() + 3 * frontier.size()) *
        sizeof(Value)));
  };
  charge_round();

  for (int round = 0; round < level; ++round) {
    if (frontier.empty()) break;
    if (governor != nullptr) {
      if (Status s = governor->CheckClosure(members.size()); !s.ok()) {
        return s;
      }
    }
    ValueSet fresh;  // values first seen this round
    for (const ScalarFunction* fn : resolved) {
      const size_t arity = static_cast<size_t>(fn->arity);
      if (arity == 0) {
        // A constant: only ever new in the first round.
        if (round > 0) continue;
        Value v = fn->fn({});
        if (members.insert(v).second) fresh.push_back(v);
        continue;
      }
      const size_t n = all.size();
      if (n == 0) continue;
      // Enumerate all^arity as a flat index space, skipping tuples with no
      // frontier component (already applied in an earlier round).
      size_t total = 1;
      for (size_t i = 0; i < arity; ++i) {
        // A size_t overflow here means an astronomically large argument
        // space; the closure itself would blow the value budget long
        // before such an enumeration finished.
        if (total > SIZE_MAX / n) {
          return UnsupportedError(
              "term closure exceeded budget of " + std::to_string(max_size) +
              " values at level " + std::to_string(round + 1));
        }
        total *= n;
      }
      const bool all_touch = round == 0;
      // Each morsel collects candidate values privately; candidates are
      // only checked against the pre-round membership set (read-only in
      // the region), so workers never write shared state. Morsel
      // boundaries depend on (total, kGrain) alone, and the sequential
      // merge below visits buffers in morsel order, making the outcome
      // independent of the thread count.
      size_t num_morsels = (total + kGrain - 1) / kGrain;
      std::vector<std::vector<Value>> candidates(num_morsels);
      ThreadPool::Global().ParallelFor(
          total, kGrain, threads,
          [&](size_t /*worker*/, size_t begin, size_t end) {
            std::vector<Value> args(arity);
            std::vector<Value>& out = candidates[begin / kGrain];
            for (size_t t = begin; t < end; ++t) {
              size_t rest = t;
              bool touches = all_touch;
              for (size_t i = 0; i < arity; ++i) {
                const Value& v = all[rest % n];
                rest /= n;
                args[i] = v;
                if (!touches && frontier.count(v) > 0) touches = true;
              }
              if (!touches) continue;
              Value v = fn->fn(args);
              if (members.count(v) == 0) out.push_back(v);
            }
          },
          par_stats);
      for (const std::vector<Value>& morsel : candidates) {
        for (const Value& v : morsel) {
          if (members.insert(v).second) fresh.push_back(v);
        }
      }
    }
    if (members.size() > max_size) {
      return UnsupportedError(
          "term closure exceeded budget of " + std::to_string(max_size) +
          " values at level " + std::to_string(round + 1));
    }
    all.insert(all.end(), fresh.begin(), fresh.end());
    frontier.clear();
    frontier.insert(fresh.begin(), fresh.end());
    charge_round();
  }
  if (governor != nullptr) {
    if (Status s = governor->CheckClosure(members.size()); !s.ok()) {
      return s;
    }
  }
  NormalizeValueSet(all);
  return all;
}

}  // namespace emcalc
