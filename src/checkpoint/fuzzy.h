#ifndef CALCDB_CHECKPOINT_FUZZY_H_
#define CALCDB_CHECKPOINT_FUZZY_H_

#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/dirty_tracker.h"

namespace calcdb {

/// Options for the fuzzy checkpointer.
struct FuzzyOptions {
  /// pFuzzy (the traditional form, and the paper's default): flush only
  /// dirty records. The full variant additionally maintains an in-memory
  /// copy of the latest snapshot and writes a complete checkpoint by
  /// merging the dirty records into it (paper §4.1.2).
  bool partial = true;
  DirtyTrackerKind tracker = DirtyTrackerKind::kBitVector;
};

/// Fuzzy checkpointing adapted to a main-memory store at record
/// granularity (paper §4.1.2):
///
///   1. stop accepting new transactions and drain the active ones,
///   2. write the "checkpoint record" — the dirty-record table (and the
///      active-transaction list, empty after the drain) — to the log,
///   3. resume normal operation,
///   4. asynchronously flush every dirty record's *current* value to the
///      checkpoint file.
///
/// Step 2's write is what quiesces the system: "the database system is
/// quiesced to write the dirty record table to disk (which results in a
/// sharp drop in database throughput), but then continues to process
/// transactions".
///
/// Because step 4 reads values concurrently with ongoing writers, the
/// captured state is NOT transaction-consistent; real deployments pair it
/// with an ARIES-style log. This repository has no such log by design
/// (that is CALC's premise), so fuzzy checkpoints participate in the
/// overhead experiments but recovery from them returns NotSupported.
class FuzzyCheckpointer : public Checkpointer {
 public:
  FuzzyCheckpointer(EngineContext engine, FuzzyOptions options);
  ~FuzzyCheckpointer() override;

  const char* name() const override {
    return options_.partial ? "pFuzzy" : "Fuzzy";
  }
  bool is_partial() const override { return options_.partial; }
  bool transaction_consistent() const override { return false; }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;
  void OnCommit(Txn& txn) override;

  [[nodiscard]] Status RunCheckpointCycle() override;

 private:
  FuzzyOptions options_;

  /// Dirty sets, flipped during the quiesce.
  DirtySets dirty_;

  /// Full variant only: the in-memory latest snapshot ("we maintain an
  /// extra copy of the database in main memory which is the latest
  /// consistent snapshot"). snapshot_[shard][index]; owned references.
  std::vector<std::vector<Value*>> snapshot_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_FUZZY_H_
