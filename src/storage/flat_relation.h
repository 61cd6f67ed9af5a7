// Flat relation storage: all tuples of a relation live in one
// arity-strided contiguous Value array, so inserting a tuple is a bump
// append, copying a relation is one memcpy-able vector copy, and scans are
// cache-linear — no per-tuple heap allocation anywhere. Values are 8-byte
// interned words (src/base/value.h), so a TupleRef is just a span into the
// backing array.
//
// Set semantics: tuples are kept sorted and duplicate-free (normalized
// lazily on first read), union/difference/equality/ordering are defined on
// the normalized form, and the move-aware set operations reuse this
// relation's storage. tests/storage_test.cc checks every set operation
// against a std::set model on random inputs.
#ifndef EMCALC_STORAGE_FLAT_RELATION_H_
#define EMCALC_STORAGE_FLAT_RELATION_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/value.h"

namespace emcalc {

// A materialized database tuple (parser/loader boundary type; the storage
// and execution layers pass TupleRef spans instead).
using Tuple = std::vector<Value>;

// A borrowed view of one tuple inside a FlatRelation (or any contiguous
// Value run). Valid only while the owning storage is alive and unmodified.
class TupleRef {
 public:
  TupleRef() = default;
  TupleRef(const Value* data, size_t size) : data_(data), size_(size) {}
  explicit TupleRef(const Tuple& t) : data_(t.data()), size_(t.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value* data() const { return data_; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  Tuple ToTuple() const { return Tuple(begin(), end()); }

  // Element-wise; Value equality is a word compare.
  friend bool operator==(TupleRef a, TupleRef b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(TupleRef a, TupleRef b) { return !(a == b); }
  // Lexicographic, resolving interned strings through the pool.
  friend bool operator<(TupleRef a, TupleRef b);

 private:
  const Value* data_ = nullptr;
  size_t size_ = 0;
};

// A finite relation of fixed arity over flat storage. Arity 0 is legal:
// such a relation is either empty ("false") or contains the single empty
// tuple ("true").
class FlatRelation {
 public:
  explicit FlatRelation(int arity) : arity_(arity) {}

  // Copies are instrumented (see CopiesMade/TuplesCopied); moves are free.
  // Moves transfer the memory-accounting charge along with the storage, so
  // the bytes stay attributed to whichever container currently owns them.
  FlatRelation(const FlatRelation& other);
  FlatRelation& operator=(const FlatRelation& other);
  FlatRelation(FlatRelation&& other) noexcept
      : arity_(other.arity_),
        dirty_(other.dirty_.load(std::memory_order_relaxed)),
        rows_(other.rows_),
        data_(std::move(other.data_)),
        charged_bytes_(other.charged_bytes_) {
    other.dirty_.store(false, std::memory_order_relaxed);
    other.rows_ = 0;
    other.charged_bytes_ = 0;
    other.SyncCharge();  // moved-from capacity is unspecified; reconcile
  }
  FlatRelation& operator=(FlatRelation&& other) noexcept {
    if (this == &other) return *this;
    RechargeTo(0);  // our buffer is about to be freed by the vector move
    arity_ = other.arity_;
    dirty_.store(other.dirty_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    rows_ = other.rows_;
    data_ = std::move(other.data_);
    charged_bytes_ = other.charged_bytes_;
    other.dirty_.store(false, std::memory_order_relaxed);
    other.rows_ = 0;
    other.charged_bytes_ = 0;
    other.SyncCharge();
    SyncCharge();
    return *this;
  }
  ~FlatRelation() {
    if (charged_bytes_ != 0) RechargeTo(0);
  }

  int arity() const { return arity_; }
  size_t size() const {
    Normalize();
    return rows_;
  }
  bool empty() const {
    Normalize();
    return rows_ == 0;
  }

  // Iteration yields TupleRef views over the normalized storage.
  class const_iterator {
   public:
    const_iterator(const Value* data, size_t arity, size_t row)
        : data_(data), arity_(arity), row_(row) {}
    TupleRef operator*() const {
      return TupleRef(data_ + row_ * arity_, arity_);
    }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.row_ == b.row_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.row_ != b.row_;
    }

   private:
    const Value* data_;
    size_t arity_;
    size_t row_;
  };
  const_iterator begin() const {
    Normalize();
    return const_iterator(data_.data(), static_cast<size_t>(arity_), 0);
  }
  const_iterator end() const {
    Normalize();
    return const_iterator(data_.data(), static_cast<size_t>(arity_), rows_);
  }

  // Row access over the normalized form.
  TupleRef row(size_t i) const {
    Normalize();
    return TupleRef(data_.data() + i * static_cast<size_t>(arity_),
                    static_cast<size_t>(arity_));
  }

  // Capacity hint for bulk inserts, in tuples.
  void Reserve(size_t n) {
    data_.reserve(n * static_cast<size_t>(arity_));
    SyncCharge();
  }

  // Inserts a tuple; error on arity mismatch. Amortized: tuples are
  // appended and normalized lazily on first read.
  Status TryInsert(const Tuple& t);

  // Inserts a tuple whose arity the caller has already validated; aborts
  // on mismatch (internal evaluator paths where a mismatch is a bug, not
  // bad input — external data goes through TryInsert).
  void Insert(const Tuple& t) { Insert(TupleRef(t)); }
  void Insert(TupleRef t);
  // Braced-list convenience: r.Insert({Value::Int(1), Value::Str("a")}).
  void Insert(std::initializer_list<Value> t) {
    Insert(TupleRef(t.begin(), t.size()));
  }

  // Unchecked append of one row of `arity()` values (hot evaluator loops;
  // the caller guarantees the width).
  void AppendRow(const Value* values) {
    data_.insert(data_.end(), values, values + arity_);
    ++rows_;
    dirty_.store(true, std::memory_order_relaxed);
    SyncCharge();
  }

  // Unchecked bulk append of `n` rows stored contiguously row-major at
  // `values` (n * arity() cells). One insert, one charge sync — the batch
  // kernels stage a whole batch and land it here.
  void AppendRows(const Value* values, size_t n) {
    if (n == 0) return;
    if (arity_ > 0) {
      data_.insert(data_.end(), values,
                   values + n * static_cast<size_t>(arity_));
    }
    rows_ += n;
    dirty_.store(true, std::memory_order_relaxed);
    SyncCharge();
  }

  // Appends every row of `other` (same arity) without normalizing.
  void AppendAll(const FlatRelation& other);

  // Declares the appended rows already ascending and duplicate-free (a
  // kernel that emits a subsequence of a normalized input), so the next
  // read skips Normalize's ordered check. The caller guarantees the order.
  void MarkNormalized() { dirty_.store(false, std::memory_order_relaxed); }

  // The normalized arity-strided backing buffer (size() * arity() cells).
  // Valid until the next mutation; the batch kernels slice columns out of
  // it directly.
  const Value* data() const {
    Normalize();
    return data_.data();
  }

  // Membership test.
  bool Contains(const Tuple& t) const { return Contains(TupleRef(t)); }
  bool Contains(TupleRef t) const;
  bool Contains(std::initializer_list<Value> t) const {
    return Contains(TupleRef(t.begin(), t.size()));
  }

  // Set algebra; arities must match. The rvalue overloads reuse this
  // relation's storage instead of copying both sides into a fresh vector —
  // the execution layer uses them to make union/difference chains
  // copy-light.
  FlatRelation UnionWith(const FlatRelation& other) const&;
  FlatRelation UnionWith(const FlatRelation& other) &&;
  FlatRelation DifferenceWith(const FlatRelation& other) const&;
  FlatRelation DifferenceWith(const FlatRelation& other) &&;

  friend bool operator==(const FlatRelation& a, const FlatRelation& b);

  // Multi-line "(1, 'a')\n(2, 'b')" rendering, for tests and examples.
  std::string ToString() const;

  // Sorts and dedupes now (no-op when already normalized). Safe to call
  // from several threads at once: the first reader of a dirty relation
  // sorts it under a lock and the others wait for it; a clean relation
  // takes no lock.
  //
  // One linear pass first checks whether the rows are already
  // non-decreasing; if so they are only deduped. Otherwise they are sorted
  // on order keys: the distinct pooled values are ranked once and every
  // cell maps to a 64-bit key whose unsigned order is Value order. When
  // each column's key range (greatest minus least key) needs few enough
  // bits that the columns fit one 64-bit word together, each row packs
  // into one word, column 0 most significant; the words are radix-sorted
  // (std::sort below kRadixSortMinRows rows), deduped, and unpacked back to
  // the original cells. Rows that do not fit one word sort as rows of keys.
  // Returns the number of rows sorted: 0 when no sort ran (already
  // normalized, at most one row, or found in order), otherwise the
  // pre-dedupe row count.
  size_t Normalize() const;

  // Below this many rows, packed rows sort with std::sort: a radix sort's
  // histograms would cost more than the sort.
  static constexpr size_t kRadixSortMinRows = 1024;

  // Process-wide copy instrumentation: whole-relation copies and tuples
  // copied into new storage by relation copies and the lvalue set
  // operations. The execution layer samples deltas around each operator to
  // expose copy costs per operator; tests compare evaluator strategies.
  static uint64_t CopiesMade();
  static uint64_t TuplesCopied();

 private:
  // Memory accounting (obs::ChargeBytes): charged_bytes_ is the capacity
  // this relation has reported to the accountant. SyncCharge is a single
  // compare when the capacity is unchanged — the common case on appends
  // that do not grow — and only the rare recharge goes out of line.
  void SyncCharge() const {
    auto now = static_cast<int64_t>(data_.capacity() * sizeof(Value));
    if (now != charged_bytes_) RechargeTo(now);
  }
  void RechargeTo(int64_t now) const;

  int arity_;
  // Set by appends, cleared by Normalize. Atomic so that concurrent
  // readers can test it without a lock (see Normalize).
  mutable std::atomic<bool> dirty_{false};
  mutable size_t rows_ = 0;
  mutable std::vector<Value> data_;  // arity-strided, rows_ * arity_ cells
  mutable int64_t charged_bytes_ = 0;
};

}  // namespace emcalc

#endif  // EMCALC_STORAGE_FLAT_RELATION_H_
