// The process-wide value intern pool backing the 8-byte Value encoding.
//
// Value (src/base/value.h) stores either an inline 63-bit integer or a pool
// id. The pool holds every interned payload: strings, plus the rare
// integers whose magnitude does not fit the inline encoding. Interning
// canonicalizes: equal payloads always receive the same id, so Value
// equality is a single word compare.
//
// Concurrency contract:
//   - Intern* may be called from any thread (sharded mutexes; append-only).
//   - Get() is wait-free and lock-free: entries are immutable once
//     published and live in fixed-size blocks whose pointers never move,
//     so a reference returned by Get() is stable for the process lifetime.
//   - Ids are dense per shard and never reused; the pool never shrinks.
#ifndef EMCALC_BASE_STRING_POOL_H_
#define EMCALC_BASE_STRING_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace emcalc {

class StringPool {
 public:
  // One interned payload. `is_str` selects which of str/num is meaningful;
  // `hash` is the payload hash Value::Hash() returns (precomputed here so
  // hashing an interned value never re-scans the string).
  // `order_prefix` packs a string's first 8 bytes big-endian (zero-padded),
  // so prefix words order exactly like the strings' first 8 bytes and
  // Value::operator< decides most string comparisons in one word compare.
  // Value::operator< (so FlatRelation::Contains and the set-operation
  // merges) and the batch comparison kernels rely on it; sorts no longer
  // do (FlatRelation::Normalize compares each distinct pooled value only
  // once, to rank it).
  struct Entry {
    bool is_str = false;
    int64_t num = 0;
    uint64_t hash = 0;
    uint64_t order_prefix = 0;
    std::string str;
  };

  // The process-wide pool. Values carry ids into this instance, so there
  // is exactly one.
  static StringPool& Global();

  // Interns `s` (deduplicating) and returns its id.
  uint64_t InternString(std::string_view s);

  // Interns an integer that does not fit Value's inline encoding.
  uint64_t InternBigInt(int64_t v);

  // The entry for an id previously returned by Intern*. Wait-free.
  const Entry& Get(uint64_t id) const;

  // Total interned entries across all shards (the query-log
  // string_pool_size field). Approximate under concurrent interning.
  uint64_t size() const;

  // Tracked bytes held by the pool: block storage plus out-of-line string
  // payloads. The pool never shrinks, so this is monotone.
  uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

 private:
  StringPool() = default;

  static constexpr int kShardBits = 4;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;
  static constexpr size_t kBlockSize = 1024;  // entries per block
  static constexpr size_t kMaxBlocks = 8192;  // 8M entries per shard

  struct Shard {
    std::mutex mu;
    // Keys view into the stored entries (stable storage), values are
    // per-shard entry indexes.
    std::unordered_map<std::string_view, uint64_t> str_index;
    std::unordered_map<int64_t, uint64_t> int_index;
    std::atomic<uint64_t> count{0};
    // Block pointers are published with release stores and never change
    // afterwards, so readers only need an acquire load.
    std::atomic<Entry*> blocks[kMaxBlocks] = {};
  };

  // Appends an entry to `shard` (mu held) and returns its global id.
  uint64_t Append(Shard& shard, size_t shard_idx, Entry entry);

  Shard shards_[kNumShards];
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace emcalc

#endif  // EMCALC_BASE_STRING_POOL_H_
