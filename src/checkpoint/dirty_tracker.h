#ifndef CALCDB_CHECKPOINT_DIRTY_TRACKER_H_
#define CALCDB_CHECKPOINT_DIRTY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "storage/record.h"
#include "storage/sharded_store.h"
#include "util/bitvec.h"
#include "util/bloom.h"
#include "util/latch.h"

namespace calcdb {

/// The three dirty-key tracking structures the paper evaluates for partial
/// checkpoints (§2.3): a hash table of updated keys, a bit vector indexed
/// by record, and a Bloom filter. The paper settles on the bit vector
/// ("the additional work required by the other approaches were slightly
/// more costly than the performance savings from improved cache locality");
/// all three are kept behind this interface so that decision can be
/// re-measured (bench/micro_components) and any of them selected at run
/// time.
enum class DirtyTrackerKind {
  kBitVector = 0,
  kHashSet = 1,
  kBloom = 2,
};

/// Tracks the set of record indexes updated since a point in time.
///
/// Thread-safety: Mark/Test are safe concurrently. ForEach/Clear require
/// the set to be quiescent (pCALC only scans a side that is frozen — no
/// transaction can still mark into it).
///
/// Note on the Bloom variant: Test may return false positives, which is
/// benign for checkpointing — a clean record captured anyway carries its
/// (unchanged, hence still point-of-consistency-correct) value. False
/// negatives are impossible, so no dirty record is ever missed.
class DirtyKeyTracker {
 public:
  DirtyKeyTracker(DirtyTrackerKind kind, size_t capacity);

  DirtyKeyTracker(const DirtyKeyTracker&) = delete;
  DirtyKeyTracker& operator=(const DirtyKeyTracker&) = delete;

  DirtyTrackerKind kind() const { return kind_; }

  void Mark(uint32_t index);
  bool Test(uint32_t index) const;

  /// Invokes `fn` for every (possibly-)dirty index < `limit`, in
  /// ascending order. For the Bloom variant this scans [0, limit) and
  /// filters by MayContain.
  void ForEach(uint32_t limit,
               const std::function<void(uint32_t)>& fn) const;

  void Clear();

  /// Exact count for bit vector / hash set; upper bound (limit scan) not
  /// provided for Bloom — returns 0 for Bloom.
  size_t Count() const;

  /// Resident bytes of the structure itself (the paper's 0.25% argument).
  size_t MemoryBytes() const;

 private:
  static constexpr int kShards = 64;

  DirtyTrackerKind kind_;
  size_t capacity_;

  // kBitVector
  std::unique_ptr<AtomicBitVector> bits_;

  // kHashSet (sharded by low bits of index)
  struct alignas(64) Shard {
    mutable SpinLatch latch;
    std::unordered_set<uint32_t> set;
  };
  std::unique_ptr<Shard[]> shards_;

  // kBloom
  std::unique_ptr<BloomFilter> bloom_;
};

/// Double-buffered per-shard dirty sets: two sides, each holding one
/// DirtyKeyTracker per shard sized to that shard's own index space. A
/// partial capture consumes one side while commits mark the other. Which
/// side is which stays the checkpointer's decision: CALC routes by the
/// parity of the VPoC count, the quiescing algorithms Flip() while no
/// transaction is in flight.
class DirtySets {
 public:
  DirtySets(DirtyTrackerKind kind, const ShardedStore& store);

  DirtySets(const DirtySets&) = delete;
  DirtySets& operator=(const DirtySets&) = delete;

  /// Shard `shard`'s tracker on `side` (0 or 1).
  DirtyKeyTracker& tracker(uint32_t side, uint32_t shard) {
    return *sides_[side][shard];
  }
  const DirtyKeyTracker& tracker(uint32_t side, uint32_t shard) const {
    return *sides_[side][shard];
  }

  /// Marks every record in `records` on `side`.
  void Mark(uint32_t side, const std::vector<Record*>& records) {
    for (Record* rec : records) tracker(side, rec->shard).Mark(rec->index);
  }

  /// Clears `side` in every shard.
  void Clear(uint32_t side);

  /// The side commits mark between flips (quiescing algorithms).
  uint32_t active() const { return active_.load(std::memory_order_acquire); }

  /// Makes the other side active and returns the previously active one,
  /// which the capture then consumes. Only while no transaction is in
  /// flight, so no commit can still be marking the returned side.
  uint32_t Flip() {
    uint32_t captured = active();
    active_.store(1 - captured, std::memory_order_release);
    return captured;
  }

 private:
  std::vector<std::unique_ptr<DirtyKeyTracker>> sides_[2];
  std::atomic<uint32_t> active_{0};
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_DIRTY_TRACKER_H_
