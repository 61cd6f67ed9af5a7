#include "src/base/value.h"

#include "src/base/check.h"
#include "src/base/string_pool.h"

namespace emcalc {

uint64_t Value::EncodeBigInt(int64_t v) {
  return (StringPool::Global().InternBigInt(v) << 1) | 1;
}

uint64_t Value::EncodeStr(std::string_view v) {
  return (StringPool::Global().InternString(v) << 1) | 1;
}

bool Value::PooledIsStr() const {
  return StringPool::Global().Get(rep_ >> 1).is_str;
}

int64_t Value::AsInt() const {
  if ((rep_ & 1) == 0) return static_cast<int64_t>(rep_) >> 1;
  const StringPool::Entry& e = StringPool::Global().Get(rep_ >> 1);
  EMCALC_CHECK_MSG(!e.is_str, "Value::AsInt on string value");
  return e.num;
}

const std::string& Value::AsStr() const {
  EMCALC_CHECK_MSG((rep_ & 1) == 1, "Value::AsStr on int value");
  const StringPool::Entry& e = StringPool::Global().Get(rep_ >> 1);
  EMCALC_CHECK_MSG(e.is_str, "Value::AsStr on int value");
  return e.str;
}

bool Value::PooledLess(Value a, Value b) {
  // At least one side is pooled; fetch each pooled entry exactly once.
  const StringPool& pool = StringPool::Global();
  const StringPool::Entry* ea =
      (a.rep_ & 1) != 0 ? &pool.Get(a.rep_ >> 1) : nullptr;
  const StringPool::Entry* eb =
      (b.rep_ & 1) != 0 ? &pool.Get(b.rep_ >> 1) : nullptr;
  bool a_str = ea != nullptr && ea->is_str;
  bool b_str = eb != nullptr && eb->is_str;
  if (a_str != b_str) return !a_str;  // ints before strings
  if (!a_str) {
    int64_t na = ea != nullptr ? ea->num : static_cast<int64_t>(a.rep_) >> 1;
    int64_t nb = eb != nullptr ? eb->num : static_cast<int64_t>(b.rep_) >> 1;
    return na < nb;
  }
  // Two distinct interned strings (equal strings share an id and were
  // caught by the rep compare above): the 8-byte order prefix decides
  // unless the strings agree on their first 8 bytes.
  if (ea->order_prefix != eb->order_prefix) {
    return ea->order_prefix < eb->order_prefix;
  }
  return ea->str < eb->str;
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(AsInt());
  return "'" + AsStr() + "'";
}

size_t Value::Hash() const {
  if ((rep_ & 1) == 0) {
    // Same finalizer as StringPool::InternBigInt, so inline and pooled
    // integers hash consistently.
    uint64_t x = static_cast<uint64_t>(static_cast<int64_t>(rep_) >> 1);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
  return static_cast<size_t>(StringPool::Global().Get(rep_ >> 1).hash);
}

}  // namespace emcalc
