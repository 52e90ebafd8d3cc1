#ifndef CALCDB_STORAGE_SHARDED_STORE_H_
#define CALCDB_STORAGE_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/kv_store.h"
#include "storage/record.h"
#include "storage/value.h"
#include "util/status.h"

namespace calcdb {

/// N independent KVStore partitions behind one facade (cf. Larson et al.'s
/// per-partition structures; the ROADMAP's first scaling lever). Each shard
/// owns its own bucket array, record arena, *dense per-shard index space*
/// (Record::index restarts at 0 per shard; Record::shard routes back), and
/// present-count — so checkpointer bit vectors, sidecar arrays, and capture
/// segments all become per-shard and never share a cache line across
/// partitions.
///
/// Routing is ShardOfKey(), a multiplicative hash *different* from the
/// in-shard bucket hash: reusing the bucket mix's low bits for shard
/// selection would leave every shard's bucket table 1/N occupied.
///
/// With num_shards == 1 the facade is a pass-through to a single KVStore —
/// the legacy engine exactly (iteration order, capture bytes, and lock
/// order are all pinned by tests against the pre-shard code path).
class ShardedStore {
 public:
  /// `max_records` is the *global* capacity contract: inserting up to
  /// max_records distinct keys must never fail regardless of hash skew,
  /// so each shard is provisioned ceil(max_records/N) plus ~12.5%
  /// headroom. A global present-count above max_records is still refused
  /// at FindOrCreate time to keep the bound meaningful.
  explicit ShardedStore(uint64_t max_records, uint32_t num_shards = 1,
                        ValuePool* pool = nullptr);

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  /// Shard routing: a distinct Fibonacci-family mix over the high bits.
  static uint32_t ShardOfKey(uint64_t key, uint32_t num_shards) {
    if (num_shards <= 1) return 0;
    uint64_t x = key * 0xda942042e4dd58b5ULL;
    return static_cast<uint32_t>((x >> 32) % num_shards);
  }

  /// Resolution idiom shared with capture/replay threads: `configured`
  /// > 0 wins; 0 means auto (CALCDB_STORAGE_SHARDS env, else 1).
  static uint32_t ResolveShards(int configured);

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t ShardOf(uint64_t key) const {
    return ShardOfKey(key, num_shards());
  }
  KVStore* shard(uint32_t s) { return shards_[s].get(); }
  const KVStore* shard(uint32_t s) const { return shards_[s].get(); }

  Record* Find(uint64_t key) const {
    return shards_[ShardOf(key)]->Find(key);
  }

  /// Null only when the owning shard is at capacity or the global
  /// max_records bound is reached.
  Record* FindOrCreate(uint64_t key);

  /// Sum of per-shard slot counts (tombstones included) — sizes nothing
  /// (per-shard structures size off shard(s)->NumSlots()), reported in
  /// stats and used by single-shard scans.
  uint64_t TotalSlots() const;

  /// Every shard's slot count, now: a capture's scan limits when read at
  /// its point of consistency.
  std::vector<uint32_t> SlotCounts() const {
    std::vector<uint32_t> slots;
    for (const auto& s : shards_) slots.push_back(s->NumSlots());
    return slots;
  }

  uint64_t max_records() const { return max_records_; }
  ValuePool* pool() const { return pool_; }

  /// Non-transactional accessors (loading, tests, recovery), routed to
  /// the owning shard.
  [[nodiscard]] Status Put(uint64_t key, std::string_view value) {
    return shards_[ShardOf(key)]->Put(key, value);
  }
  [[nodiscard]] Status Get(uint64_t key, std::string* value) const {
    return shards_[ShardOf(key)]->Get(key, value);
  }
  [[nodiscard]] Status Delete(uint64_t key) {
    return shards_[ShardOf(key)]->Delete(key);
  }

  /// O(num_shards): sum of the relaxed per-shard present counters.
  uint64_t CountPresent() const;
  /// O(all slots) scan oracle (tests pin CountPresent against this).
  uint64_t CountPresentSlow() const;

  /// See KVStore::ReplaceLive — routed by Record::shard so the owning
  /// shard's present counter moves with the transition.
  void ReplaceLive(Record& rec, Value* new_val) {
    shards_[rec.shard]->ReplaceLive(rec, new_val);
  }

  /// Shard-major iteration over every allocated slot, dead slots
  /// included (callers test `rec->key == ~0` themselves, as with
  /// ByIndex scans). With one shard this is exactly the legacy dense
  /// ByIndex order — the property the byte-stability pins rely on.
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const {
    for (const auto& s : shards_) {
      uint32_t slots = s->NumSlots();
      for (uint32_t i = 0; i < slots; ++i) fn(s->ByIndex(i));
    }
  }

 private:
  uint64_t max_records_;
  ValuePool* pool_;
  std::vector<std::unique_ptr<KVStore>> shards_;
};

}  // namespace calcdb

#endif  // CALCDB_STORAGE_SHARDED_STORE_H_
