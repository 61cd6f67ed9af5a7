#include "src/storage/flat_relation.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>
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

// Serializes the sort of a dirty relation among concurrent readers. Striped
// by address, so readers of different relations rarely share a lock; only
// a dirty relation's first read takes one.
std::mutex& NormalizeMutex(const void* rel) {
  static std::mutex stripes[64];
  return stripes[(reinterpret_cast<uintptr_t>(rel) >> 6) % 64];
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

// The row comparators are lambdas, not functions, so that std::sort and
// friends inline them instead of calling through a function pointer.
template <int A>
constexpr auto RowLess = [](const RowN<A>& x, const RowN<A>& y) {
  for (int i = 0; i < A; ++i) {
    if (x.v[i] != y.v[i]) return x.v[i] < y.v[i];
  }
  return false;
};

template <int A>
constexpr auto RowEq = [](const RowN<A>& x, const RowN<A>& y) {
  for (int i = 0; i < A; ++i) {
    if (x.v[i] != y.v[i]) return false;
  }
  return true;
};

// Dedupes rows that one linear pass finds already non-decreasing (operator
// output often arrives in order). Returns SIZE_MAX, leaving the rows
// untouched, when they are out of order and need SortDedupeOnKeys.
template <int A>
size_t DedupeIfOrdered(Value* data, size_t rows) {
  static_assert(sizeof(RowN<A>) == A * sizeof(Value));
  RowN<A>* base = reinterpret_cast<RowN<A>*>(data);
  if (!std::is_sorted(base, base + rows, RowLess<A>)) return SIZE_MAX;
  return static_cast<size_t>(std::unique(base, base + rows, RowEq<A>) - base);
}

// Merges the sorted runs [0, mid) and [mid, rows) in place, then dedupes.
template <int A>
size_t MergeDedupeRows(Value* data, size_t mid, size_t rows) {
  RowN<A>* base = reinterpret_cast<RowN<A>*>(data);
  std::inplace_merge(base, base + mid, base + rows, RowLess<A>);
  return static_cast<size_t>(std::unique(base, base + rows, RowEq<A>) - base);
}

size_t DedupeIfOrderedDispatch(size_t a, Value* data, size_t rows) {
  switch (a) {
    case 1: return DedupeIfOrdered<1>(data, rows);
    case 2: return DedupeIfOrdered<2>(data, rows);
    case 3: return DedupeIfOrdered<3>(data, rows);
    case 4: return DedupeIfOrdered<4>(data, rows);
    case 5: return DedupeIfOrdered<5>(data, rows);
    case 6: return DedupeIfOrdered<6>(data, rows);
    case 7: return DedupeIfOrdered<7>(data, rows);
    case 8: return DedupeIfOrdered<8>(data, rows);
    default: break;
  }
  // Wide rows: the same linear check over row views, then an in-place
  // dedupe in which survivors only move down.
  auto row = [data, a](size_t i) { return TupleRef(data + i * a, a); };
  for (size_t i = 1; i < rows; ++i) {
    if (row(i) < row(i - 1)) return SIZE_MAX;
  }
  size_t kept = 1;
  for (size_t r = 1; r < rows; ++r) {
    if (row(r) == row(kept - 1)) continue;
    if (kept != r) std::copy_n(data + r * a, a, data + kept * a);
    ++kept;
  }
  return kept;
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

// ---- Order-key sort ------------------------------------------------------
// Rows out of order are sorted on 64-bit order keys, not on Values: every
// cell maps to a key whose unsigned order is Value order, the rows are
// sorted and deduped comparing raw words, and the kept keys are decoded
// back to their exact original words. Comparing two Values can cost two
// pool lookups and a string compare; comparing two keys is one word
// compare, and the pool is consulted only to rank the k distinct pooled
// values once (k log k compares instead of n log n).
//
// The encoding is a bijection built per sort. Inline ints map
// arithmetically, offset by the least inline int present; pooled values
// map to their rank among the distinct pooled values of this relation.
// Keys are laid out densely as
//   [negative big ints by rank][inline ints from the least present]
//   [positive big ints, then strings, by rank]
// which is Value order (ints by value, then strings). Inline ints span
// [-2^62, 2^62), so this fits one word, and a column that mixes small
// ints with strings spans only the values this relation holds.
class OrderKeys {
 public:
  // Collects and ranks the distinct pooled values among `n` cells, and
  // finds the range of the inline ints.
  OrderKeys(const Value* cells, size_t n) {
    int64_t lo = INT64_MAX;
    int64_t hi = INT64_MIN;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t w = cells[i].raw();
      if ((w & 1) == 0) {
        const int64_t v = static_cast<int64_t>(w) >> 1;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        continue;
      }
      if (table_.empty()) Rehash(16);
      Entry& e = table_[Find(w)];
      if (e.word == w) continue;
      e.word = w;
      ranked_.push_back(cells[i]);
      if (ranked_.size() * 2 > table_.size()) Rehash(table_.size() * 2);
    }
    if (lo <= hi) {
      lo_ = static_cast<uint64_t>(lo);
      span_ = static_cast<uint64_t>(hi) - lo_ + 1;
    }
    if (ranked_.empty()) return;
    std::sort(ranked_.begin(), ranked_.end());
    negatives_ = static_cast<uint64_t>(
        std::partition_point(ranked_.begin(), ranked_.end(),
                             [](Value v) {
                               return v.is_int() && v.AsInt() < 0;
                             }) -
        ranked_.begin());
    for (size_t r = 0; r < ranked_.size(); ++r) {
      table_[Find(ranked_[r].raw())].rank = r;
    }
  }

  uint64_t Key(Value v) const {
    const uint64_t w = v.raw();
    if ((w & 1) == 0) {
      // The int's offset from the least inline int, in [0, span_).
      const auto i = static_cast<uint64_t>(static_cast<int64_t>(w) >> 1);
      return negatives_ + (i - lo_);
    }
    const uint64_t r = table_[Find(w)].rank;
    return r < negatives_ ? r : span_ + r;
  }

  Value Decode(uint64_t k) const {
    if (k < negatives_) return ranked_[k];
    if (k - negatives_ < span_) return FromWord((lo_ + (k - negatives_)) << 1);
    return ranked_[k - span_];
  }

  static Value FromWord(uint64_t w) { return std::bit_cast<Value>(w); }

 private:

  // Pooled words are odd, so word 0 marks an empty slot.
  struct Entry {
    uint64_t word = 0;
    uint64_t rank = 0;
  };

  // The slot holding `w`, or the empty slot where it belongs.
  size_t Find(uint64_t w) const {
    const size_t mask = table_.size() - 1;
    size_t i = static_cast<size_t>((w * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (table_[i].word != 0 && table_[i].word != w) i = (i + 1) & mask;
    return i;
  }

  void Rehash(size_t capacity) {
    std::vector<Entry> old(capacity);
    old.swap(table_);
    shift_ = 64 - std::countr_zero(capacity);
    for (const Entry& e : old) {
      if (e.word != 0) table_[Find(e.word)] = e;
    }
  }

  std::vector<Entry> table_;   // open addressing, capacity a power of 2
  std::vector<Value> ranked_;  // distinct pooled values in Value order
  uint64_t negatives_ = 0;     // pooled ints below the inline range
  uint64_t lo_ = 0;            // the least inline int, as a word
  uint64_t span_ = 0;          // inline ints from lo_ to the greatest
  int shift_ = 64;             // 64 - log2(table_.size())
};

// ---- Packed rows ---------------------------------------------------------
// When every column's keys, offset by the column's least key, fit into one
// 64-bit word together, each row packs into a single word (column 0 most
// significant), so word order is row order and equal words are equal
// rows. Sorting then moves 8 bytes per row whatever the arity, and a
// radix sort needs only as many digit passes as the packed width has.

// Where one column's keys sit in the packed word: the key minus `min`,
// masked to the column's width, shifted left by `shift`. A column whose
// keys are all equal has width 0: its mask and shift are 0, so it takes
// no bits and unpacks to `min`.
struct PackedColumn {
  uint64_t min = UINT64_MAX;
  uint64_t max = 0;
  uint64_t mask = 0;
  int shift = 0;
};

struct Packing {
  std::vector<PackedColumn> columns;
  int bits = 0;  // packed width; the words are < 2^bits
};

// Finds each column's least and greatest key and lays the columns out in
// one word. Returns false when their widths sum to more than 64 bits.
bool PlanPacking(const OrderKeys& keys, const Value* cells, size_t rows,
                 size_t a, Packing& packing) {
  std::vector<PackedColumn>& cols = packing.columns;
  cols.resize(a);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < a; ++c) {
      const uint64_t k = keys.Key(cells[r * a + c]);
      cols[c].min = std::min(cols[c].min, k);
      cols[c].max = std::max(cols[c].max, k);
    }
  }
  int bits = 0;
  for (size_t c = a; c-- > 0;) {
    const int width =
        static_cast<int>(std::bit_width(cols[c].max - cols[c].min));
    if (width > 64 - bits) return false;
    cols[c].mask = width == 0 ? 0 : UINT64_MAX >> (64 - width);
    cols[c].shift = width == 0 ? 0 : bits;
    bits += width;
  }
  packing.bits = bits;
  return true;
}

// LSD radix sort of the n words in `words`, all below 2^bits, with `tmp`
// as the second buffer; returns whichever buffer holds the sorted words.
// One pass per digit of at most kRadixDigitBits, and a pass whose digit is
// the same in every word is skipped.
constexpr int kRadixDigitBits = 11;

uint64_t* RadixSort(uint64_t* words, uint64_t* tmp, size_t n, int bits) {
  const int passes = (bits + kRadixDigitBits - 1) / kRadixDigitBits;
  if (passes == 0) return words;
  const int digit = (bits + passes - 1) / passes;
  const size_t buckets = size_t{1} << digit;
  const uint64_t mask = buckets - 1;
  std::vector<size_t> counts(static_cast<size_t>(passes) * buckets);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = words[i];
    for (int p = 0; p < passes; ++p) {
      ++counts[static_cast<size_t>(p) * buckets + ((w >> (p * digit)) & mask)];
    }
  }
  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit;
    size_t* count = counts.data() + static_cast<size_t>(p) * buckets;
    if (count[(words[0] >> shift) & mask] == n) continue;
    size_t offset = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const size_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (size_t i = 0; i < n; ++i) {
      tmp[count[(words[i] >> shift) & mask]++] = words[i];
    }
    std::swap(words, tmp);
  }
  return words;
}

// Sorts and dedupes `rows` rows of arity `a` as packed words, then unpacks
// and decodes the kept rows over the front of `cells`; returns how many
// were kept. The cells are read until the unpack, which starts only after
// every buffer exists.
size_t SortDedupePacked(const OrderKeys& keys, const Packing& packing,
                        Value* cells, size_t rows, size_t a) {
  const std::vector<PackedColumn>& cols = packing.columns;
  const bool radix = rows >= FlatRelation::kRadixSortMinRows;
  std::vector<uint64_t> words(radix ? 2 * rows : rows);
  for (size_t r = 0; r < rows; ++r) {
    uint64_t w = 0;
    for (size_t c = 0; c < a; ++c) {
      w |= (keys.Key(cells[r * a + c]) - cols[c].min) << cols[c].shift;
    }
    words[r] = w;
  }
  uint64_t* sorted = words.data();
  if (radix) {
    sorted = RadixSort(sorted, sorted + rows, rows, packing.bits);
  } else {
    std::sort(sorted, sorted + rows);
  }
  const size_t kept = static_cast<size_t>(std::unique(sorted, sorted + rows) -
                                          sorted);
  for (size_t r = 0; r < kept; ++r) {
    const uint64_t w = sorted[r];
    for (size_t c = 0; c < a; ++c) {
      cells[r * a + c] =
          keys.Decode(((w >> cols[c].shift) & cols[c].mask) + cols[c].min);
    }
  }
  return kept;
}

// ---- Row sort on keys (rows too wide for one word) -------------------------

template <int A>
constexpr auto KeyRowLess = [](const RowN<A>& x, const RowN<A>& y) {
  for (int i = 0; i < A; ++i) {
    if (x.v[i] != y.v[i]) return x.v[i].raw() < y.v[i].raw();
  }
  return false;
};

template <int A>
size_t SortDedupeKeyRows(Value* data, size_t rows) {
  RowN<A>* base = reinterpret_cast<RowN<A>*>(data);
  std::sort(base, base + rows, KeyRowLess<A>);
  return static_cast<size_t>(std::unique(base, base + rows, RowEq<A>) - base);
}

// Encodes every cell in place to its key, sorts and dedupes the rows
// comparing raw words, and decodes the kept cells; returns the kept row
// count. Rows of arity up to kMaxContiguousSortArity sort in place as
// RowN<A>; wider rows sort an index permutation and are gathered into
// fresh storage (one pass of row moves instead of O(n log n) row-sized
// swaps).
size_t SortDedupeRows(const OrderKeys& keys, std::vector<Value>& data,
                      size_t rows, size_t a) {
  const size_t n = rows * a;
  const bool wide = a > static_cast<size_t>(kMaxContiguousSortArity);
  std::vector<size_t> order(wide ? rows : 0);
  std::vector<Value> gathered;
  if (wide) gathered.reserve(n);
  // Nothing below allocates, so a bad_alloc above leaves no keys behind.
  Value* cells = data.data();
  for (size_t i = 0; i < n; ++i) {
    cells[i] = OrderKeys::FromWord(keys.Key(cells[i]));
  }
  size_t kept = 0;
  switch (a) {
    case 1: kept = SortDedupeKeyRows<1>(cells, rows); break;
    case 2: kept = SortDedupeKeyRows<2>(cells, rows); break;
    case 3: kept = SortDedupeKeyRows<3>(cells, rows); break;
    case 4: kept = SortDedupeKeyRows<4>(cells, rows); break;
    case 5: kept = SortDedupeKeyRows<5>(cells, rows); break;
    case 6: kept = SortDedupeKeyRows<6>(cells, rows); break;
    case 7: kept = SortDedupeKeyRows<7>(cells, rows); break;
    case 8: kept = SortDedupeKeyRows<8>(cells, rows); break;
    default: {
      std::iota(order.begin(), order.end(), size_t{0});
      auto row = [cells, a](size_t i) { return cells + i * a; };
      std::sort(order.begin(), order.end(), [&row, a](size_t x, size_t y) {
        const Value* p = row(x);
        const Value* q = row(y);
        for (size_t i = 0; i < a; ++i) {
          if (p[i] != q[i]) return p[i].raw() < q[i].raw();
        }
        return false;
      });
      for (size_t r : order) {
        const Value* p = row(r);
        if (kept > 0 && std::equal(p, p + a, gathered.end() - a)) continue;
        gathered.insert(gathered.end(), p, p + a);
        ++kept;
      }
      data.swap(gathered);
      cells = data.data();
    }
  }
  for (size_t i = 0; i < kept * a; ++i) cells[i] = keys.Decode(cells[i].raw());
  return kept;
}

// Sorts and dedupes `rows` rows of arity `a` on order keys; returns the
// kept row count. Rows whose keys pack into one word sort as words;
// others sort as rows of keys. Every allocation happens before the first
// cell is overwritten, so a bad_alloc leaves the rows as they were. Out of
// line so that Normalize's already-ordered path stays small.
[[gnu::noinline]] size_t SortDedupeOnKeys(std::vector<Value>& data,
                                          size_t rows, size_t a) {
  const OrderKeys keys(data.data(), rows * a);
  Packing packing;
  if (PlanPacking(keys, data.data(), rows, a, packing)) {
    return SortDedupePacked(keys, packing, data.data(), rows, a);
  }
  return SortDedupeRows(keys, data, rows, a);
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
      dirty_(other.dirty_.load(std::memory_order_relaxed)),
      rows_(other.rows_),
      data_(other.data_) {
  CountCopy(rows_);
  SyncCharge();
}

FlatRelation& FlatRelation::operator=(const FlatRelation& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  dirty_.store(other.dirty_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
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
  dirty_.store(true, std::memory_order_relaxed);
  SyncCharge();
  return Status::Ok();
}

void FlatRelation::Insert(TupleRef t) {
  EMCALC_CHECK_MSG(static_cast<int>(t.size()) == arity_,
                   "tuple arity %zu != relation arity %d", t.size(), arity_);
  data_.insert(data_.end(), t.begin(), t.end());
  ++rows_;
  dirty_.store(true, std::memory_order_relaxed);
  SyncCharge();
}

void FlatRelation::AppendAll(const FlatRelation& other) {
  EMCALC_CHECK(arity_ == other.arity_);
  if (other.rows_ == 0) return;
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
  dirty_.store(true, std::memory_order_relaxed);
  SyncCharge();
}

size_t FlatRelation::Normalize() const {
  if (!dirty_.load(std::memory_order_acquire)) return 0;
  // Concurrent readers of one dirty relation (two runs scanning the same
  // base relation) meet here: the first sorts, the others wait on the lock
  // and then find it clean.
  std::lock_guard<std::mutex> lock(NormalizeMutex(this));
  if (!dirty_.load(std::memory_order_relaxed)) return 0;
  const size_t a = static_cast<size_t>(arity_);
  size_t sorted = 0;
  if (a == 0) {
    // The only tuple is the empty tuple; dedupe to at most one row.
    rows_ = rows_ > 0 ? 1 : 0;
  } else if (rows_ > 1) {
    size_t kept = DedupeIfOrderedDispatch(a, data_.data(), rows_);
    if (kept == SIZE_MAX) {
      kept = SortDedupeOnKeys(data_, rows_, a);
      sorted = rows_;
    }
    data_.resize(kept * a);
    rows_ = kept;
    SyncCharge();
  }
  dirty_.store(false, std::memory_order_release);
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
