#ifndef CALCDB_CHECKPOINT_IPP_H_
#define CALCDB_CHECKPOINT_IPP_H_

#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/dirty_tracker.h"

namespace calcdb {

/// Options for the Interleaved Ping-Pong checkpointer.
struct IppOptions {
  /// pIPP: write only records dirtied since the previous checkpoint.
  bool partial = false;
};

/// Interleaved Ping-Pong (Cao et al., adapted per paper §4.1.3): the
/// storage layer keeps the application state plus two additional copies,
/// `odd` and `even`, each with a dirty bit per record. Every write updates
/// the application state AND physically copies the value into the array
/// pointed to by `current`, setting its dirty bit — the duplicated-write
/// cost behind IPP's ~25% baseline throughput loss ("it needs to maintain
/// two copies of the database state at all times, which involves memory
/// copy operations during normal operation").
///
/// At a physical point of consistency `current` flips; a background thread
/// then merges the previous period's dirty values into the last consistent
/// in-memory checkpoint and writes the result to disk, clearing dirty bits
/// as it goes. With the application state, both ping-pong arrays, and the
/// in-memory consistent snapshot resident, IPP holds up to 4 copies of the
/// database (Figure 6).
class IppCheckpointer : public Checkpointer {
 public:
  IppCheckpointer(EngineContext engine, IppOptions options);
  ~IppCheckpointer() override;

  const char* name() const override {
    return options_.partial ? "pIPP" : "IPP";
  }
  bool is_partial() const override { return options_.partial; }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;

  [[nodiscard]] Status RunCheckpointCycle() override;

 private:
  IppOptions options_;

  /// Ping-pong copies, per shard ([shard][index]); the array on the
  /// dirty sets' active side receives write duplicates, and the flip at
  /// the point of consistency switches both. The sets are always bit
  /// vectors: the merge reads the array of every set member, and a Bloom
  /// false positive would merge a stale copy.
  std::vector<std::vector<Value*>> arrays_[2];
  DirtySets dirty_;

  /// The last consistent checkpoint, kept in memory as the merge base
  /// ([shard][index]).
  std::vector<std::vector<Value*>> snapshot_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_IPP_H_
