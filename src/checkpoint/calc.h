#ifndef CALCDB_CHECKPOINT_CALC_H_
#define CALCDB_CHECKPOINT_CALC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/dirty_tracker.h"

namespace calcdb {

/// Options for the CALC checkpointer.
struct CalcOptions {
  /// Take partial checkpoints containing only records modified since the
  /// previous virtual point of consistency (pCALC, paper §2.3).
  bool partial = false;

  /// Dirty-key structure for pCALC (paper's final choice: bit vector).
  DirtyTrackerKind tracker = DirtyTrackerKind::kBitVector;
};

/// CALC — Checkpointing Asynchronously using Logical Consistency.
///
/// Implements the paper's Figure 1: the five-phase cycle whose transitions
/// are tokens in the commit log, the ApplyWrite version routing by
/// transaction start phase, the post-commit fixup for prepare-phase
/// transactions, the capture-phase version pick (stable else live), and
/// the O(1) global stable-status reset.
///
/// Deviations from the paper's presentation, required for correctness once
/// records can be inserted and deleted at any time (the paper's footnote 1
/// elides these; full rationale in DESIGN.md):
///
///  1. The stable-status bit vector with SwapAvailableAndNotAvailable() is
///     generalized to a per-record cycle stamp (Record::stable_cycle): the
///     stable version is available iff the stamp equals the current cycle
///     id. Bumping the id is the same O(1) reset, but slots created
///     mid-cycle (inserts) can never be misread under a flipped sense.
///
///  2. Record slots created after the virtual point of consistency are
///     outside the capture scan's range (`slots_at_vpoc_` watermark), so
///     post-VPoC transactions skip stable installation for them. A slot
///     above the watermark can only belong to transactions that committed
///     after the VPoC — slot creation precedes the creator's commit token,
///     which precedes the RESOLVE token for any pre-VPoC commit.
///
///  3. pCALC installs or keeps a stable version only for records in the
///     in-progress capture's dirty set; otherwise the capture scan would
///     never consume the stable version and a stale value would leak into
///     the next partial checkpoint.
///
/// Inserts and deletes ride on the same machinery via
/// Record::AbsentMarker() (the pointer-level equivalent of the paper's
/// add/delete status vectors): a stable slot holding the marker means
/// "absent at the point of consistency" and is skipped by the full capture
/// scan (emitted as a tombstone by the partial scan); a delete after the
/// point of consistency preserves the old value in the stable slot exactly
/// like an update does.
class CalcCheckpointer : public Checkpointer {
 public:
  CalcCheckpointer(EngineContext engine, CalcOptions options);

  const char* name() const override {
    return options_.partial ? "pCALC" : "CALC";
  }
  bool is_partial() const override { return options_.partial; }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;
  void OnCommit(Txn& txn) override;

  [[nodiscard]] Status RunCheckpointCycle() override;

  /// Peak number of live stable versions during the last cycle (Fig 6:
  /// CALC "only requires extra space for records written during the short
  /// period of time in between these two phases").
  uint64_t peak_stable_versions() const {
    return peak_stable_versions_.load(std::memory_order_relaxed);
  }
  int64_t stable_versions() const {
    return stable_versions_.load(std::memory_order_relaxed);
  }

 private:
  bool StableAvailable(const Record& rec) const {
    uint32_t id = active_cycle_.load(std::memory_order_acquire);
    return id != 0 && rec.stable_cycle == id;
  }
  void SetStableAvailable(Record& rec) {
    rec.stable_cycle = active_cycle_.load(std::memory_order_acquire);
  }

  /// Installs rec.stable := copy of live (or AbsentMarker) if empty.
  void InstallStable(Record& rec);
  /// Erases any stable version (real or marker).
  void EraseStable(Record& rec);

  /// True if this cycle's capture scan visits `rec`: its slot is below
  /// its shard's VPoC watermark and, for pCALC, it is in the consumed
  /// dirty set.
  bool InCaptureScan(const Record& rec) const;

  /// The capture hook: the version of `rec` at the VPoC (an owned
  /// reference), or null if it was absent then.
  Value* CaptureVersion(Record& rec);

  /// Blocks until there is no active transaction whose start phase is in
  /// `phases` ("wait for all active txns to have start-phase == X").
  void WaitForDrain(std::initializer_list<Phase> phases);

  CalcOptions options_;

  /// Monotone cycle counter; Record::stable_cycle == active_cycle_ means
  /// "stable version available". 0 while at rest.
  std::atomic<uint32_t> active_cycle_{0};
  uint32_t next_cycle_ = 1;

  /// Per-shard slot count at the virtual point of consistency; the
  /// capture range of each shard (all published inside the RESOLVE
  /// token's log latch, so one VPoC snapshots every shard atomically
  /// with respect to commit order).
  std::vector<std::atomic<uint32_t>> slots_at_vpoc_;

  /// pCALC: dirty sets indexed by VPoC-count parity (null for CALC).
  std::unique_ptr<DirtySets> dirty_;
  /// Parity of the dirty set consumed by the in-progress capture.
  std::atomic<uint32_t> capture_parity_{0};

  std::atomic<int64_t> stable_versions_{0};
  std::atomic<uint64_t> peak_stable_versions_{0};

  /// When the current rest period began (end of the previous cycle);
  /// 0 before the first cycle. Coordinator-thread only.
  int64_t rest_start_us_ = 0;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_CALC_H_
