#ifndef CALCDB_CHECKPOINT_CHECKPOINTER_H_
#define CALCDB_CHECKPOINT_CHECKPOINTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checkpoint/admission_gate.h"
#include "checkpoint/ckpt_storage.h"
#include "checkpoint/dirty_tracker.h"
#include "checkpoint/phase.h"
#include "log/commit_log.h"
#include "storage/sharded_store.h"
#include "txn/txn.h"
#include "util/clock.h"
#include "util/status.h"

namespace calcdb {

class CommandLogStreamer;

/// Everything a checkpointing algorithm needs from the engine.
struct EngineContext {
  ShardedStore* store = nullptr;
  CommitLog* log = nullptr;
  PhaseController* phases = nullptr;
  AdmissionGate* gate = nullptr;
  CheckpointStorage* ckpt_storage = nullptr;
  /// The command-log streamer, when one is attached (null otherwise).
  /// Checkpoint cycles gate manifest registration on its durability
  /// horizon (WaitLogDurable).
  const CommandLogStreamer* streamer = nullptr;
  /// Capture worker-pool size: at most this many segment writers run at
  /// once (never more than the store's shard count).
  int capture_threads = 1;
};

/// Statistics for one completed checkpoint cycle.
struct CheckpointCycleStats {
  uint64_t checkpoint_id = 0;
  uint64_t records_written = 0;
  uint64_t bytes_written = 0;
  uint64_t segments = 0;        ///< segment files written (1 = single-file)
  int64_t quiesce_micros = 0;   ///< time the admission gate was closed
  int64_t capture_micros = 0;   ///< asynchronous capture duration
  int64_t total_micros = 0;
};

/// The per-record capture hook: returns the version of `rec` a checkpoint
/// writes, as an owned reference, or null when the record is absent at the
/// point of consistency. An empty hook captures each live version in
/// place, taking no reference: only for captures no writer can race (a
/// quiesced engine, or one not yet started).
using CaptureFn = std::function<Value*(Record& rec)>;

/// What one capture visits and writes.
struct CaptureScan {
  uint64_t id = 0;
  uint64_t poc_lsn = 0;  ///< commit-log LSN of the point of consistency
  /// Each shard's slot count at the point of consistency: the scan never
  /// visits a slot at or above it.
  std::vector<uint32_t> limits;
  /// Non-null makes the checkpoint partial: only the slots marked on
  /// `dirty_side` are visited, and a null version becomes a tombstone.
  /// Null visits every slot below the limit and skips null versions.
  const DirtySets* dirty = nullptr;
  uint32_t dirty_side = 0;
};

/// Interface every checkpointing algorithm implements.
///
/// The executor calls the transaction-side hooks; a coordinator thread (or
/// the benchmark harness) calls RunCheckpointCycle to take one checkpoint.
/// Implementations: CalcCheckpointer (the paper's contribution, full and
/// partial), NaiveSnapshotCheckpointer, FuzzyCheckpointer, IppCheckpointer,
/// ZigzagCheckpointer, and NoCheckpointer (the "None" baseline).
class Checkpointer {
 public:
  explicit Checkpointer(EngineContext engine) : engine_(engine) {}
  virtual ~Checkpointer() = default;

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  virtual const char* name() const = 0;

  /// True if this algorithm only ever writes records changed since the
  /// previous checkpoint (the "p" variants).
  virtual bool is_partial() const { return false; }

  /// True if recovery can load this algorithm's checkpoints into a
  /// transaction-consistent state without a full ARIES-style log. False
  /// only for fuzzy checkpoints (paper §2.1).
  virtual bool transaction_consistent() const { return true; }

  // ------------------------------------------------------------------
  // Transaction-side hooks. All are invoked by the executor with the
  // transaction's stripe locks held (strict 2PL), except AdmitTransaction
  // which runs before the transaction registers.
  // ------------------------------------------------------------------

  /// Blocks while the algorithm has admission closed (quiesce). CALC's
  /// implementation is a no-op beyond the gate's single atomic load. The
  /// executor re-reads the gate after registering and, if it closed in
  /// between, deregisters and calls this again; an override must keep
  /// "gate open" as its admission condition for that re-check to hold.
  virtual void AdmitTransaction() { engine_.gate->WaitAdmitted(); }

  /// Returns the version of `rec` this transaction should read, or null if
  /// the record is absent. Default: the live version.
  virtual Value* ReadRecord(Txn& txn, Record& rec);

  /// Applies a committed-buffer write. `new_val` is an owned reference the
  /// hook consumes (or null for a delete).
  virtual void ApplyWrite(Txn& txn, Record& rec, Value* new_val) = 0;

  /// Post-commit fixup: runs after the commit token has been appended to
  /// the commit log and before the transaction's locks are released.
  virtual void OnCommit(Txn& txn) { (void)txn; }

  // ------------------------------------------------------------------
  // Checkpoint lifecycle.
  // ------------------------------------------------------------------

  /// Takes one checkpoint synchronously on the calling thread; returns
  /// once the checkpoint is durable and the system is back at rest.
  [[nodiscard]] virtual Status RunCheckpointCycle() = 0;

  /// Stats of the most recent completed cycle.
  CheckpointCycleStats last_cycle() const {
    SpinLatchGuard guard(stats_latch_);
    return last_cycle_;
  }

  /// The capture pipeline every algorithm except fork writes through (the
  /// pre-Start base checkpoint too). On-disk layout: a single-shard store
  /// writes the legacy single file; a sharded store writes one segment per
  /// shard (segment K holds exactly shard K, in ascending slot order).
  /// min(capture_threads, shards) workers pull shards from a shared
  /// cursor, each writer opened with the storage's writer_options(). The
  /// version hook runs once per visited slot, concurrently across shards.
  /// On success fills `info` (ready for PublishCheckpoint) and the
  /// records/bytes/segments fields of `stats`; on failure the written
  /// files stay unregistered and recovery ignores them.
  [[nodiscard]] static Status CaptureCheckpoint(const EngineContext& engine,
                                                const CaptureScan& scan,
                                                const CaptureFn& version,
                                                CheckpointInfo* info,
                                                CheckpointCycleStats* stats);

 protected:
  /// Ends a cycle: makes the captured checkpoint recoverable
  /// (WaitLogDurable on its point of consistency, then Register +
  /// PersistManifest), stamps `stats->total_micros` from `cycle` and
  /// publishes the stats.
  [[nodiscard]] Status PublishCheckpoint(const CheckpointInfo& info,
                                         const Stopwatch& cycle,
                                         CheckpointCycleStats* stats);

  EngineContext engine_;

 private:
  /// Durability barrier for the checkpoint's point-of-consistency token.
  /// Blocks until the attached command-log streamer (if any) has fsynced
  /// the log through `vpoc_lsn` inclusive; a no-op when no streamer is
  /// attached. Every cycle MUST pass this barrier before Register +
  /// PersistManifest: a checkpoint registered while its RESOLVE token is
  /// still unflushed breaks recovery's anchor rule — a later lifetime's
  /// fsynced commits would be skipped as "nothing after the token
  /// persisted" (docs/DURABILITY.md). Returns the streamer's error if it
  /// can no longer make progress, failing the cycle before anything is
  /// registered.
  [[nodiscard]] Status WaitLogDurable(uint64_t vpoc_lsn);

  /// Publishes cycle stats and mirrors them into the metrics registry
  /// (per-algorithm counters + duration histograms). Cold path: runs
  /// once per checkpoint cycle.
  void SetLastCycle(const CheckpointCycleStats& stats);

  mutable SpinLatch stats_latch_;
  CheckpointCycleStats last_cycle_;
};

/// The "None" baseline: no snapshotting work at all.
class NoCheckpointer : public Checkpointer {
 public:
  explicit NoCheckpointer(EngineContext engine) : Checkpointer(engine) {}

  const char* name() const override { return "None"; }

  void ApplyWrite(Txn& txn, Record& rec, Value* new_val) override;

  [[nodiscard]] Status RunCheckpointCycle() override {
    return Status::NotSupported("NoCheckpointer takes no checkpoints");
  }
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_CHECKPOINTER_H_
