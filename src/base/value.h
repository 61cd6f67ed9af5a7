// The underlying domain of values ("dom" in the paper).
//
// The paper assumes a one-sorted countably infinite domain of uninterpreted
// constants; scalar functions are total functions dom^n -> dom. We model dom
// as the disjoint union of 64-bit integers and strings. Totality of scalar
// functions across the whole (mixed-sort) domain is the responsibility of
// the function implementations in storage/interpretation.h.
#ifndef EMCALC_BASE_VALUE_H_
#define EMCALC_BASE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace emcalc {

// A single domain element: an integer or a string, packed into one
// trivially-copyable 8-byte tagged word so tuples are flat arrays and
// copies are memcpy.
//
// Encoding (low bit is the tag):
//   xxxx...xxx0  inline integer, value = rep >> 1 (arithmetic)
//   xxxx...xxx1  id into the process StringPool, id = rep >> 1; the pool
//                entry is a string, or an integer whose magnitude exceeds
//                the 63-bit inline range (so the full int64 domain stays
//                representable)
//
// Equality is a single word compare: interning canonicalizes pool
// payloads, inline ints are unique by construction, and an integer is
// pooled only when it cannot be inline. The total order (all ints by
// value, then all strings lexicographically) and the hash resolve pooled
// payloads through the pool, so sorted-set Relation semantics and
// user-visible ordering match the pre-interning representation exactly.
class Value {
 public:
  constexpr Value() : rep_(0) {}
  explicit Value(int64_t v) : rep_(EncodeInt(v)) {}
  explicit Value(std::string_view v) : rep_(EncodeStr(v)) {}
  static Value Int(int64_t v) { return Value(v); }
  static Value Str(std::string_view v) { return Value(v); }

  bool is_int() const { return (rep_ & 1) == 0 || !PooledIsStr(); }
  bool is_str() const { return (rep_ & 1) == 1 && PooledIsStr(); }

  // Accessors abort on kind mismatch.
  int64_t AsInt() const;
  const std::string& AsStr() const;

  // Total order: all ints (by value) precede all strings (lexicographic).
  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return !(a == b);
  }
  // Inline so the common compares (equal words, or two inline ints) cost a
  // compare and a branch; a pooled side goes out of line to the pool.
  friend bool operator<(const Value& a, const Value& b) {
    if (a.rep_ == b.rep_) return false;
    if (((a.rep_ | b.rep_) & 1) == 0) {
      return static_cast<int64_t>(a.rep_) < static_cast<int64_t>(b.rep_);
    }
    return PooledLess(a, b);
  }

  // Renders ints as digits and strings single-quoted (e.g. 42, 'bob').
  std::string ToString() const;

  // Hash combining kind and payload. Pooled payloads return the hash
  // precomputed at intern time.
  size_t Hash() const;

  // The raw tagged word (hash-table keys, debugging). Equal iff equal.
  uint64_t raw() const { return rep_; }

 private:
  // Inline so int construction in batch loops is a shift and a branch that
  // only big-int inputs take; the pool fallback stays out of line.
  static uint64_t EncodeInt(int64_t v) {
    uint64_t shifted = static_cast<uint64_t>(v) << 1;
    // Round-trips iff v fits 63 bits; otherwise fall back to the pool so
    // the full int64 range stays representable.
    if ((static_cast<int64_t>(shifted) >> 1) == v) return shifted;
    return EncodeBigInt(v);
  }
  static uint64_t EncodeBigInt(int64_t v);
  static uint64_t EncodeStr(std::string_view v);
  bool PooledIsStr() const;
  // operator< for distinct words at least one of which is pooled.
  static bool PooledLess(Value a, Value b);

  uint64_t rep_;
};

static_assert(sizeof(Value) == 8, "Value must stay one machine word");
static_assert(std::is_trivially_copyable_v<Value>,
              "Value must be trivially copyable (flat tuple storage)");

}  // namespace emcalc

template <>
struct std::hash<emcalc::Value> {
  size_t operator()(const emcalc::Value& v) const noexcept { return v.Hash(); }
};

#endif  // EMCALC_BASE_VALUE_H_
