#ifndef CALCDB_DB_DATABASE_H_
#define CALCDB_DB_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "checkpoint/admission_gate.h"
#include "checkpoint/checkpointer.h"
#include "checkpoint/ckpt_storage.h"
#include "checkpoint/merger.h"
#include "checkpoint/phase.h"
#include "db/options.h"
#include "log/command_log_streamer.h"
#include "log/commit_log.h"
#include "obs/health.h"
#include "obs/stats_reporter.h"
#include "recovery/recovery_manager.h"
#include "storage/sharded_store.h"
#include "txn/executor.h"
#include "txn/lock_manager.h"
#include "txn/procedure.h"
#include "util/latch.h"
#include "util/status.h"

namespace calcdb {

/// The public face of the library: a memory-resident transactional
/// key-value store with pluggable asynchronous checkpointing.
///
/// Lifecycle:
///
///   1. Database::Open(options, &db)        — create the engine
///   2. db->registry()->Register(...)       — install stored procedures
///   3. db->Load(key, value) / db->Recover()— populate initial state
///   4. db->Start()                          — attach the checkpointer
///                                             (duplicating state for the
///                                             multi-copy algorithms) and
///                                             enable execution
///   5. db->executor()->Execute(...)         — run transactions (usually
///                                             via the drivers)
///   6. db->Checkpoint()                      — take one checkpoint
///                                             (typically from a
///                                             dedicated thread)
///
/// All methods are safe to call from multiple threads after Start().
class Database {
 public:
  [[nodiscard]] static Status Open(const Options& options,
                                   std::unique_ptr<Database>* db);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Stored-procedure registry; mutate only before Start().
  ProcedureRegistry* registry() { return &registry_; }

  /// Bulk-loads one record. Only before Start().
  [[nodiscard]] Status Load(uint64_t key, std::string_view value);

  /// Restores state from the checkpoint directory: loads the manifest's
  /// recovery chain and, if `replay_log` is non-null, deterministically
  /// replays its committed transactions. Only before Start().
  [[nodiscard]] Status Recover(const CommitLog* replay_log,
                               RecoveryStats* stats);

  /// Full crash recovery: loads the manifest's recovery chain, then
  /// replays the streamed command-log generations at
  /// Options::command_log_path (anchor rule in docs/DURABILITY.md).
  /// Bulk-loaded records (Load) are not in the command log — re-seed them
  /// before calling this when recovering a database that was seeded by
  /// Load rather than by logged transactions. Only before Start().
  [[nodiscard]] Status RecoverFromCommandLog(RecoveryStats* stats);

  /// Writes a full checkpoint of the currently loaded state, providing
  /// the base that partial checkpoints merge onto. Only before Start().
  [[nodiscard]] Status WriteBaseCheckpoint();

  /// Attaches the configured checkpointer and enables execution.
  [[nodiscard]] Status Start();

  /// Takes one checkpoint, synchronously (paper Figure 1's
  /// RunCheckpointer body; the caller supplies the "signal to start
  /// checkpointing" by invoking this). Requires Start().
  [[nodiscard]] Status Checkpoint();

  /// Runs Figure 1's RunCheckpointer loop on a background thread: rest,
  /// then a checkpoint cycle every `interval_ms` (measured start to
  /// start; a cycle longer than the interval begins the next one
  /// immediately). Requires Start(); stopped by StopPeriodicCheckpoints
  /// or Shutdown.
  [[nodiscard]] Status StartPeriodicCheckpoints(int interval_ms);
  void StopPeriodicCheckpoints();

  /// Number of checkpoint cycles completed by the periodic loop.
  uint64_t periodic_checkpoints_done() const {
    return periodic_done_.load(std::memory_order_relaxed);
  }

  /// First error hit by a background service (periodic checkpoint loop,
  /// command-log streamer flush thread). OK while everything is healthy.
  /// Background failures must surface somewhere a caller can see them —
  /// silently dropping a checkpoint-cycle error would turn an injected
  /// IO failure into a silent loss of durability.
  [[nodiscard]] Status BackgroundStatus() const;

  /// Point-in-time health report (obs/health.h): folds BackgroundStatus,
  /// the checkpoint-stall watchdog (periodic cycles must advance within
  /// Options::health_stall_multiplier × the configured interval),
  /// log-durability lag, and obs ring-drop accounting. StatsReporter
  /// embeds the same report in its periodic JSONL. Valid between
  /// Start() and Shutdown(); before Start() it reports healthy.
  obs::HealthReport GetHealth() { return health_monitor_.Check(); }

  /// Transactionally-consistent point read through the checkpointer's
  /// read hook (non-transactional convenience for tools/tests).
  [[nodiscard]] Status Read(uint64_t key, std::string* value);

  /// Human-readable engine statistics: transaction counters, store
  /// occupancy, checkpoint history, memory accounting. One key per line
  /// ("calcdb.<section>.<name>: <value>").
  std::string GetStatsString() const;

  Executor* executor() { return executor_.get(); }
  ShardedStore* store() { return store_.get(); }
  CommitLog* commit_log() { return &log_; }
  CheckpointStorage* checkpoint_storage() { return &ckpt_storage_; }
  Checkpointer* checkpointer() { return checkpointer_.get(); }
  CheckpointMerger* merger() { return merger_.get(); }
  CommandLogStreamer* command_log_streamer() { return streamer_.get(); }

  /// Stops background services (command-log streamer, merger) and flushes
  /// the command log; called automatically by the destructor. Idempotent.
  [[nodiscard]] Status Shutdown();
  PhaseController* phases() { return &phases_; }
  AdmissionGate* gate() { return &gate_; }
  const Options& options() const { return options_; }
  bool started() const { return started_; }

  /// Resolves Options::capture_threads / recovery_threads /
  /// replay_threads, applying the 0 = auto rule (CALCDB_CAPTURE_THREADS /
  /// CALCDB_RECOVERY_THREADS / CALCDB_REPLAY_THREADS environment
  /// variables, else 1).
  static int ResolvedCaptureThreads(const Options& options);
  static int ResolvedRecoveryThreads(const Options& options);
  static int ResolvedReplayThreads(const Options& options);

  /// Resolves Options::storage_shards, applying the 0 = auto rule
  /// (CALCDB_STORAGE_SHARDS environment variable, else 1).
  static uint32_t ResolvedStorageShards(const Options& options);

  /// Resolves Options::ckpt_async_io, applying the 0 = auto rule (on iff
  /// the CALCDB_CKPT_ASYNC_IO environment variable is a positive
  /// integer).
  static bool ResolvedAsyncIo(const Options& options);

 private:
  explicit Database(const Options& options);

  /// The engine handles checkpointers and the executor run against.
  EngineContext Engine();
  [[nodiscard]] Status MakeCheckpointer();
  void SetBackgroundStatus(const Status& st);
  void ConfigureHealthMonitor();

  Options options_;
  std::unique_ptr<ValuePool> pool_;
  std::unique_ptr<ShardedStore> store_;
  CommitLog log_;
  PhaseController phases_;
  AdmissionGate gate_;
  CheckpointStorage ckpt_storage_;
  ProcedureRegistry registry_;
  LockManager lock_manager_;

  std::unique_ptr<Checkpointer> checkpointer_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<CheckpointMerger> merger_;
  std::unique_ptr<CommandLogStreamer> streamer_;
  std::unique_ptr<obs::StatsReporter> stats_reporter_;
  bool started_ = false;

  std::atomic<bool> periodic_running_{false};
  std::atomic<uint64_t> periodic_done_{0};
  std::atomic<int64_t> periodic_interval_us_{0};
  std::thread periodic_thread_;
  obs::HealthMonitor health_monitor_;

  mutable SpinLatch background_status_latch_;
  Status background_status_ CALCDB_GUARDED_BY(background_status_latch_);
};

}  // namespace calcdb

#endif  // CALCDB_DB_DATABASE_H_
