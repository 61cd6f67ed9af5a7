#include "src/storage/flat_relation.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include "src/base/check.h"
#include "src/obs/resource.h"

namespace emcalc {
namespace {

// Relaxed atomics: the counters are monotone instrumentation, never used
// for synchronization.
std::atomic<uint64_t> g_relation_copies{0};
std::atomic<uint64_t> g_tuple_copies{0};

void CountCopy(size_t tuples) {
  g_relation_copies.fetch_add(1, std::memory_order_relaxed);
  g_tuple_copies.fetch_add(tuples, std::memory_order_relaxed);
}

// Contiguous row sorting for small arities: reinterpret the arity-strided
// buffer as an array of fixed-size rows, so std::sort moves whole rows
// (A 8-byte words each) and comparisons walk sequential memory instead of
// chasing an index permutation. Wide rows fall back to the permutation
// path below (moving them during the sort would cost more than the
// indirection saves).
constexpr int kMaxContiguousSortArity = 8;

template <int A>
struct RowN {
  Value v[A];
};

template <int A>
bool RowLess(const RowN<A>& x, const RowN<A>& y) {
  for (int i = 0; i < A; ++i) {
    if (x.v[i] < y.v[i]) return true;
    if (y.v[i] < x.v[i]) return false;
  }
  return false;
}

template <int A>
bool RowEq(const RowN<A>& x, const RowN<A>& y) {
  for (int i = 0; i < A; ++i) {
    if (x.v[i] != y.v[i]) return false;
  }
  return true;
}

// Sorts and dedupes the rows, skipping the sort when one linear pass finds
// them already non-decreasing (operator output often arrives in order).
// Sets *sorted to `rows` when the comparison sort ran.
template <int A>
size_t SortDedupeRows(Value* data, size_t rows, size_t* sorted) {
  static_assert(sizeof(RowN<A>) == A * sizeof(Value));
  RowN<A>* base = reinterpret_cast<RowN<A>*>(data);
  if (!std::is_sorted(base, base + rows, RowLess<A>)) {
    std::sort(base, base + rows, RowLess<A>);
    *sorted = rows;
  }
  return static_cast<size_t>(std::unique(base, base + rows, RowEq<A>) - base);
}

// Merges the sorted runs [0, mid) and [mid, rows) in place, then dedupes.
template <int A>
size_t MergeDedupeRows(Value* data, size_t mid, size_t rows) {
  RowN<A>* base = reinterpret_cast<RowN<A>*>(data);
  std::inplace_merge(base, base + mid, base + rows, RowLess<A>);
  return static_cast<size_t>(std::unique(base, base + rows, RowEq<A>) - base);
}

// Returns the deduped row count, or SIZE_MAX when `a` is too wide for the
// contiguous path.
size_t SortDedupeDispatch(size_t a, Value* data, size_t rows, size_t* sorted) {
  switch (a) {
    case 1: return SortDedupeRows<1>(data, rows, sorted);
    case 2: return SortDedupeRows<2>(data, rows, sorted);
    case 3: return SortDedupeRows<3>(data, rows, sorted);
    case 4: return SortDedupeRows<4>(data, rows, sorted);
    case 5: return SortDedupeRows<5>(data, rows, sorted);
    case 6: return SortDedupeRows<6>(data, rows, sorted);
    case 7: return SortDedupeRows<7>(data, rows, sorted);
    case 8: return SortDedupeRows<8>(data, rows, sorted);
    default: return SIZE_MAX;
  }
}

size_t MergeDedupeDispatch(size_t a, Value* data, size_t mid, size_t rows) {
  switch (a) {
    case 1: return MergeDedupeRows<1>(data, mid, rows);
    case 2: return MergeDedupeRows<2>(data, mid, rows);
    case 3: return MergeDedupeRows<3>(data, mid, rows);
    case 4: return MergeDedupeRows<4>(data, mid, rows);
    case 5: return MergeDedupeRows<5>(data, mid, rows);
    case 6: return MergeDedupeRows<6>(data, mid, rows);
    case 7: return MergeDedupeRows<7>(data, mid, rows);
    case 8: return MergeDedupeRows<8>(data, mid, rows);
    default: return SIZE_MAX;
  }
}

}  // namespace

bool operator<(TupleRef a, TupleRef b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return a.size() < b.size();
}

uint64_t FlatRelation::CopiesMade() {
  return g_relation_copies.load(std::memory_order_relaxed);
}

uint64_t FlatRelation::TuplesCopied() {
  return g_tuple_copies.load(std::memory_order_relaxed);
}

void FlatRelation::RechargeTo(int64_t now) const {
  obs::ChargeBytes(now - charged_bytes_);
  charged_bytes_ = now;
}

FlatRelation::FlatRelation(const FlatRelation& other)
    : arity_(other.arity_),
      dirty_(other.dirty_),
      rows_(other.rows_),
      data_(other.data_) {
  CountCopy(rows_);
  SyncCharge();
}

FlatRelation& FlatRelation::operator=(const FlatRelation& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  dirty_ = other.dirty_;
  rows_ = other.rows_;
  data_ = other.data_;
  CountCopy(rows_);
  SyncCharge();
  return *this;
}

Status FlatRelation::TryInsert(const Tuple& t) {
  if (static_cast<int>(t.size()) != arity_) {
    return InvalidArgumentError("tuple arity " + std::to_string(t.size()) +
                                " does not match relation arity " +
                                std::to_string(arity_));
  }
  data_.insert(data_.end(), t.begin(), t.end());
  ++rows_;
  dirty_ = true;
  SyncCharge();
  return Status::Ok();
}

void FlatRelation::Insert(TupleRef t) {
  EMCALC_CHECK_MSG(static_cast<int>(t.size()) == arity_,
                   "tuple arity %zu != relation arity %d", t.size(), arity_);
  data_.insert(data_.end(), t.begin(), t.end());
  ++rows_;
  dirty_ = true;
  SyncCharge();
}

void FlatRelation::AppendAll(const FlatRelation& other) {
  EMCALC_CHECK(arity_ == other.arity_);
  if (other.rows_ == 0) return;
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
  dirty_ = true;
  SyncCharge();
}

size_t FlatRelation::Normalize() const {
  if (!dirty_) return 0;
  dirty_ = false;
  const size_t a = static_cast<size_t>(arity_);
  if (a == 0) {
    // The only tuple is the empty tuple; dedupe to at most one row.
    rows_ = rows_ > 0 ? 1 : 0;
    return 0;
  }
  if (rows_ <= 1) return 0;
  size_t sorted = 0;
  size_t kept = SortDedupeDispatch(a, data_.data(), rows_, &sorted);
  if (kept == SIZE_MAX) {
    // Wide rows: the same linear pre-check, then a permutation sort that
    // orders row indices and gathers rows into fresh storage (one pass of
    // row moves instead of O(n log n) row-sized swaps).
    Value* base = data_.data();
    auto row = [&base, a](size_t i) { return TupleRef(base + i * a, a); };
    size_t i = 1;
    while (i < rows_ && !(row(i) < row(i - 1))) ++i;
    if (i < rows_) {
      std::vector<size_t> order(rows_);
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(),
                [&row](size_t x, size_t y) { return row(x) < row(y); });
      std::vector<Value> gathered;
      gathered.reserve(data_.size());
      for (size_t r : order) {
        gathered.insert(gathered.end(), base + r * a, base + (r + 1) * a);
      }
      data_ = std::move(gathered);
      base = data_.data();
      sorted = rows_;
    }
    // Dedupe in place: survivors only move down.
    kept = 1;
    for (size_t r = 1; r < rows_; ++r) {
      if (row(r) == row(kept - 1)) continue;
      if (kept != r) std::copy_n(base + r * a, a, base + kept * a);
      ++kept;
    }
  }
  data_.resize(kept * a);
  rows_ = kept;
  SyncCharge();
  return sorted;
}

bool FlatRelation::Contains(TupleRef t) const {
  Normalize();
  const size_t a = static_cast<size_t>(arity_);
  if (t.size() != a) return false;
  if (a == 0) return rows_ > 0;
  const Value* base = data_.data();
  size_t lo = 0;
  size_t hi = rows_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    TupleRef row(base + mid * a, a);
    if (row < t) {
      lo = mid + 1;
    } else if (t < row) {
      hi = mid;
    } else {
      return true;
    }
  }
  return false;
}

FlatRelation FlatRelation::UnionWith(const FlatRelation& other) const& {
  EMCALC_CHECK(arity_ == other.arity_);
  Normalize();
  other.Normalize();
  const size_t a = static_cast<size_t>(arity_);
  FlatRelation out(arity_);
  if (a == 0) {
    out.rows_ = (rows_ > 0 || other.rows_ > 0) ? 1 : 0;
    g_tuple_copies.fetch_add(out.rows_, std::memory_order_relaxed);
    return out;
  }
  out.data_.reserve(data_.size() + other.data_.size());
  const Value* lb = data_.data();
  const Value* rb = other.data_.data();
  size_t li = 0;
  size_t ri = 0;
  size_t n = 0;
  while (li < rows_ && ri < other.rows_) {
    TupleRef l(lb + li * a, a);
    TupleRef r(rb + ri * a, a);
    if (l < r) {
      out.data_.insert(out.data_.end(), l.begin(), l.end());
      ++li;
    } else if (r < l) {
      out.data_.insert(out.data_.end(), r.begin(), r.end());
      ++ri;
    } else {
      out.data_.insert(out.data_.end(), l.begin(), l.end());
      ++li;
      ++ri;
    }
    ++n;
  }
  for (; li < rows_; ++li, ++n) {
    out.data_.insert(out.data_.end(), lb + li * a, lb + (li + 1) * a);
  }
  for (; ri < other.rows_; ++ri, ++n) {
    out.data_.insert(out.data_.end(), rb + ri * a, rb + (ri + 1) * a);
  }
  out.rows_ = n;
  g_tuple_copies.fetch_add(n, std::memory_order_relaxed);
  out.SyncCharge();
  return out;
}

FlatRelation FlatRelation::UnionWith(const FlatRelation& other) && {
  EMCALC_CHECK(arity_ == other.arity_);
  Normalize();
  other.Normalize();
  // Keep this side's storage: append the other side's rows and merge in
  // place. Only |other| tuples are copied (vs |this| + |other| above).
  FlatRelation out(arity_);
  out.data_ = std::move(data_);
  out.rows_ = rows_;
  out.charged_bytes_ = charged_bytes_;  // the charge follows the storage
  rows_ = 0;
  charged_bytes_ = 0;
  data_.clear();
  SyncCharge();
  const size_t a = static_cast<size_t>(arity_);
  if (a == 0) {
    out.rows_ = (out.rows_ > 0 || other.rows_ > 0) ? 1 : 0;
    g_tuple_copies.fetch_add(other.rows_, std::memory_order_relaxed);
    return out;
  }
  size_t mid = out.rows_;
  out.data_.insert(out.data_.end(), other.data_.begin(), other.data_.end());
  out.rows_ += other.rows_;
  out.SyncCharge();
  size_t merged_rows = MergeDedupeDispatch(a, out.data_.data(), mid, out.rows_);
  if (merged_rows != SIZE_MAX) {
    out.data_.resize(merged_rows * a);
    out.rows_ = merged_rows;
    g_tuple_copies.fetch_add(other.rows_, std::memory_order_relaxed);
    return out;
  }
  // Wide rows: the two sorted runs meet at row `mid`; merging rows via an
  // index permutation keeps the merge stable and row-granular.
  std::vector<size_t> order(out.rows_);
  std::iota(order.begin(), order.end(), size_t{0});
  const Value* base = out.data_.data();
  std::inplace_merge(order.begin(),
                     order.begin() + static_cast<ptrdiff_t>(mid), order.end(),
                     [base, a](size_t i, size_t j) {
                       return TupleRef(base + i * a, a) <
                              TupleRef(base + j * a, a);
                     });
  std::vector<Value> merged;
  merged.reserve(out.data_.size());
  size_t kept = 0;
  for (size_t i = 0; i < out.rows_; ++i) {
    const Value* row = base + order[i] * a;
    if (kept > 0 &&
        TupleRef(row, a) == TupleRef(merged.data() + (kept - 1) * a, a)) {
      continue;
    }
    merged.insert(merged.end(), row, row + a);
    ++kept;
  }
  out.data_ = std::move(merged);
  out.rows_ = kept;
  out.SyncCharge();
  g_tuple_copies.fetch_add(other.rows_, std::memory_order_relaxed);
  return out;
}

FlatRelation FlatRelation::DifferenceWith(const FlatRelation& other) const& {
  EMCALC_CHECK(arity_ == other.arity_);
  Normalize();
  other.Normalize();
  const size_t a = static_cast<size_t>(arity_);
  FlatRelation out(arity_);
  if (a == 0) {
    out.rows_ = (rows_ > 0 && other.rows_ == 0) ? 1 : 0;
    g_tuple_copies.fetch_add(out.rows_, std::memory_order_relaxed);
    return out;
  }
  const Value* lb = data_.data();
  const Value* rb = other.data_.data();
  size_t li = 0;
  size_t ri = 0;
  size_t n = 0;
  while (li < rows_) {
    TupleRef l(lb + li * a, a);
    if (ri >= other.rows_) {
      out.data_.insert(out.data_.end(), l.begin(), l.end());
      ++li;
      ++n;
      continue;
    }
    TupleRef r(rb + ri * a, a);
    if (l < r) {
      out.data_.insert(out.data_.end(), l.begin(), l.end());
      ++li;
      ++n;
    } else if (r < l) {
      ++ri;
    } else {
      ++li;
      ++ri;
    }
  }
  out.rows_ = n;
  g_tuple_copies.fetch_add(n, std::memory_order_relaxed);
  out.SyncCharge();
  return out;
}

FlatRelation FlatRelation::DifferenceWith(const FlatRelation& other) && {
  EMCALC_CHECK(arity_ == other.arity_);
  Normalize();
  other.Normalize();
  // Filter in place: no tuples are copied, survivors shift by move.
  FlatRelation out(arity_);
  out.data_ = std::move(data_);
  out.rows_ = rows_;
  out.charged_bytes_ = charged_bytes_;
  rows_ = 0;
  charged_bytes_ = 0;
  data_.clear();
  SyncCharge();
  const size_t a = static_cast<size_t>(arity_);
  if (a == 0) {
    out.rows_ = (out.rows_ > 0 && other.rows_ == 0) ? 1 : 0;
    return out;
  }
  Value* base = out.data_.data();
  size_t kept = 0;
  for (size_t i = 0; i < out.rows_; ++i) {
    const Value* row = base + i * a;
    if (other.Contains(TupleRef(row, a))) continue;
    if (kept != i) {
      std::memmove(base + kept * a, row, a * sizeof(Value));
    }
    ++kept;
  }
  out.data_.resize(kept * a);
  out.rows_ = kept;
  return out;
}

bool operator==(const FlatRelation& a, const FlatRelation& b) {
  if (a.arity_ != b.arity_) return false;
  a.Normalize();
  b.Normalize();
  if (a.rows_ != b.rows_) return false;
  return a.data_ == b.data_;
}

std::string FlatRelation::ToString() const {
  Normalize();
  std::string out;
  for (TupleRef t : *this) {
    out += "(";
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ", ";
      out += t[i].ToString();
    }
    out += ")\n";
  }
  return out;
}

}  // namespace emcalc
