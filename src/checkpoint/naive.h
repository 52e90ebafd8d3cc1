#ifndef CALCDB_CHECKPOINT_NAIVE_H_
#define CALCDB_CHECKPOINT_NAIVE_H_

#include <memory>

#include "checkpoint/checkpointer.h"
#include "checkpoint/dirty_tracker.h"

namespace calcdb {

/// Options for the naive snapshot checkpointer.
struct NaiveOptions {
  /// pNaive: quiesce, but write only records dirtied since the previous
  /// checkpoint.
  bool partial = false;
  DirtyTrackerKind tracker = DirtyTrackerKind::kBitVector;
};

/// Naive snapshot (paper §4.1.1): acquire exclusive access to the entire
/// database — implemented as closing the admission gate and draining all
/// active transactions — then iterate every key and write its value to
/// disk, with the system quiesced for the full duration of the write.
/// "The throughput drops to 0 transactions per second while the checkpoint
/// is being taken ... the time to take this checkpoint is very small,
/// since all database resources are devoted to creating the checkpoint."
/// (Our checkpoint duration is disk-bandwidth-bound rather than CPU-bound,
/// matching the paper's Appendix A observation.)
class NaiveSnapshotCheckpointer : public Checkpointer {
 public:
  NaiveSnapshotCheckpointer(EngineContext engine, NaiveOptions options);

  const char* name() const override {
    return options_.partial ? "pNaive" : "Naive";
  }
  bool is_partial() const override { return options_.partial; }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;
  void OnCommit(Txn& txn) override;

  [[nodiscard]] Status RunCheckpointCycle() override;

 private:
  NaiveOptions options_;

  /// pNaive's dirty sets (null for Naive), flipped during the quiesce.
  std::unique_ptr<DirtySets> dirty_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_NAIVE_H_
