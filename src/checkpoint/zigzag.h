#ifndef CALCDB_CHECKPOINT_ZIGZAG_H_
#define CALCDB_CHECKPOINT_ZIGZAG_H_

#include <memory>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/dirty_tracker.h"
#include "util/bitvec.h"

namespace calcdb {

/// Options for the Zigzag checkpointer.
struct ZigzagOptions {
  /// pZigzag: write only records dirtied since the previous checkpoint
  /// (paper §4.1.4: "a second version of the ... implementations that take
  /// only partial snapshots using the same bit vectors as used for
  /// pCALC").
  bool partial = false;
  DirtyTrackerKind tracker = DirtyTrackerKind::kBitVector;
};

/// Zigzag (Cao et al., adapted per paper §4.1.4): two versions of every
/// record — AS[key]_0 and AS[key]_1, stored in the record's two version
/// slots — plus two bit vectors MR (which version reads use) and MW (which
/// version writes overwrite). Every update writes AS[key]_MW[key] and sets
/// MR[key] := MW[key]. Each checkpoint period begins, at a physical point
/// of consistency, by setting MW[key] := ¬MR[key] for every key (done
/// word-wise while the system is drained); the asynchronous checkpoint
/// thread then safely writes AS[key]_¬MW[key], which no writer can touch.
///
/// Baseline cost at rest: no extra data copying ("Zigzag only has to
/// perform writes once"), but every write reads and updates the two bit
/// vectors, and both version slots stay permanently allocated — 2x record
/// memory (Figure 6).
class ZigzagCheckpointer : public Checkpointer {
 public:
  ZigzagCheckpointer(EngineContext engine, ZigzagOptions options);

  const char* name() const override {
    return options_.partial ? "pZigzag" : "Zigzag";
  }
  bool is_partial() const override { return options_.partial; }

  Value* ReadRecord(Txn& txn, Record& rec) override;
  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;
  void OnCommit(Txn& txn) override;

  [[nodiscard]] Status RunCheckpointCycle() override;

 private:
  /// Pointer to the record's version slot `v` (0 => live, 1 => stable).
  static Value** Slot(Record& rec, bool v) {
    return v ? &rec.stable : &rec.live;
  }

  ZigzagOptions options_;

  /// MR[key] / MW[key], one bit vector per shard (indexed by the shard's
  /// own dense record indexes).
  std::vector<std::unique_ptr<AtomicBitVector>> mr_;  ///< version to read
  std::vector<std::unique_ptr<AtomicBitVector>> mw_;  ///< version to write

  /// pZigzag's dirty sets (null for Zigzag), flipped during the quiesce.
  std::unique_ptr<DirtySets> dirty_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_ZIGZAG_H_
