// Active domains and the term closure term^k(C) (Section 4 of the paper).
//
// adom(q, I) is the set of values occurring in the instance I or as
// constants of the query q. term^k(C) closes C under k rounds of
// application of the query's scalar functions — functions only, never
// inverses; these are the "neighborhoods" that embedded domain independence
// quantifies over (specialized k-closures of the DB-windows of [BM92a]).
#ifndef EMCALC_STORAGE_ADOM_H_
#define EMCALC_STORAGE_ADOM_H_

#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/thread_pool.h"
#include "src/calculus/ast.h"
#include "src/obs/resource.h"
#include "src/storage/database.h"
#include "src/storage/interpretation.h"

namespace emcalc {

// A sorted duplicate-free set of domain values.
using ValueSet = std::vector<Value>;

// Sorts + dedupes in place.
void NormalizeValueSet(ValueSet& values);

// All values occurring in any relation of `db`.
ValueSet ActiveDomain(const Database& db);

// adom(q, I): instance values plus query constants.
ValueSet ActiveDomain(const Formula* f, const Database& db);

// term^level(base) under the functions `fns` (name/arity pairs, resolved in
// `registry`). Fails with kUnsupported when the closure would exceed
// `max_size` values (arity-2 functions grow the closure quadratically per
// level; callers choose their budget).
//
// Membership is tracked in a hash set, so each round costs O(applications
// + fresh) instead of re-sorting the whole closure. `num_threads` > 1
// splits each round's argument-tuple enumeration into morsels on the
// global thread pool (0 means hardware concurrency); the result is
// identical for every thread count. Functions must be pure.
//
// When `governor` is non-null its per-query limits are checked at every
// closure round: a tripped limit (including max_term_closure_size, checked
// against the closure's member count) aborts with kResourceExhausted.
// When `par_stats` is non-null, contention telemetry of the closure's
// parallel rounds is accumulated into it (see ThreadPool::RegionStats).
StatusOr<ValueSet> TermClosure(
    ValueSet base, const std::vector<std::pair<std::string, int>>& fns,
    const FunctionRegistry& registry, int level, size_t max_size,
    size_t num_threads = 1, obs::ResourceGovernor* governor = nullptr,
    ThreadPool::RegionStats* par_stats = nullptr);

}  // namespace emcalc

#endif  // EMCALC_STORAGE_ADOM_H_
