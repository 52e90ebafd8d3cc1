#ifndef CALCDB_RECOVERY_RECOVERY_MANAGER_H_
#define CALCDB_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/ckpt_storage.h"
#include "log/commit_log.h"
#include "storage/sharded_store.h"
#include "txn/procedure.h"
#include "util/status.h"

namespace calcdb {

/// Timing and size breakdown of a recovery (paper §5.1.3 measures the
/// merge component of this as "recovery time").
struct RecoveryStats {
  /// Per-generation replay breakdown (ReplayLogGenerations): how many of
  /// each generation file's commits were replayed vs. retired as covered
  /// by the loaded checkpoint chain (the anchor rule).
  struct GenerationReplay {
    std::string file;
    uint64_t commits_total = 0;
    uint64_t replayed = 0;
    uint64_t skipped = 0;
  };

  uint64_t checkpoints_loaded = 0;
  uint64_t checkpoints_rejected = 0;  ///< torn (crash-artifact) checkpoints
  uint64_t segments_loaded = 0;       ///< checkpoint files applied
  uint64_t entries_applied = 0;  ///< distinct keys the chain fold applied
  uint64_t txns_replayed = 0;
  int64_t load_micros = 0;    ///< checkpoint chain load + merge time
  int64_t validate_micros = 0;  ///< the validation share of load_micros
  int64_t replay_micros = 0;  ///< deterministic command replay time
  uint64_t replay_from_lsn = 0;
  uint64_t last_checkpoint_id = 0;  ///< id of the last applied checkpoint
  uint64_t log_generations_replayed = 0;

  // Parallel replay (ReplayScheduler). With replay_threads = 1 these
  // stay at their serial values: threads_used 1, no conflicts, no
  // fallbacks, empty per-worker breakdown.
  uint64_t replay_threads_used = 0;
  uint64_t replay_conflicts = 0;  ///< commands ordered behind an earlier
                                  ///< command's footprint (deterministic:
                                  ///< counted at dispatch, not at wait)
  uint64_t replay_serial_fallbacks = 0;  ///< undeclared-footprint commands
  std::vector<uint64_t> replayed_per_worker;
  std::vector<GenerationReplay> generations;
};

/// Recovery (paper §3): load the newest full checkpoint and every later
/// partial (each key at its newest version, tombstones delete), then
/// deterministically replay the command log's committed transactions from
/// the loaded checkpoint's point of consistency onward.
///
/// Replay correctness rests on two properties of this engine: strict 2PL
/// makes the commit-token order consistent with the serialization order
/// for every conflicting transaction pair, and stored procedures are
/// deterministic functions of (args, visible state) — so serial
/// re-execution in commit order reproduces the pre-crash state exactly.
class RecoveryManager {
 public:
  /// Loads the manifest's recovery chain into `store`. Sets
  /// `stats->replay_from_lsn` and `last_checkpoint_id` from the newest
  /// chain member (the replay LSN stays 0 with no checkpoints).
  ///
  /// Every file of every chain member is validated (footer, count, CRC)
  /// on one worker pool before anything is applied. A checkpoint with a
  /// torn file — a short read, the signature of a crash mid-write or
  /// mid-truncation — is rejected together with every later checkpoint,
  /// and the chain is recomputed from the surviving prefix; command-log
  /// replay from the older point of consistency re-covers the discarded
  /// window. A checkpoint whose bytes are present but wrong (CRC /
  /// entry-count mismatch) fails loudly with Corruption: that is damage,
  /// not a crash artifact.
  ///
  /// The chain is then applied once per key: walked newest-first, an
  /// entry applies only if no newer checkpoint claimed its key (a
  /// tombstone claims its key too), so `entries_applied` is the chain's
  /// distinct keys. The fold runs on the caller's thread. A store that is
  /// not empty keeps its keys the chain does not name.
  [[nodiscard]] static Status LoadCheckpoints(CheckpointStorage* storage,
                                              ShardedStore* store,
                                              RecoveryStats* stats);

  /// Workers the chain load uses: the cores this process may run on
  /// (sched_getaffinity). Nothing else runs during recovery.
  static int LoadThreads();

  /// Replays committed transactions with LSN > stats->replay_from_lsn.
  ///
  /// `replay_threads > 1` replays with the parallel deterministic
  /// scheduler (recovery/replay_scheduler.h): commands whose declared
  /// key footprints are disjoint execute concurrently, conflicting
  /// commands serialize in LSN order, and the final store state is
  /// byte-identical to serial replay. 1 is the legacy serial loop.
  [[nodiscard]] static Status ReplayLog(const CommitLog& log,
                                        const ProcedureRegistry& registry,
                                        ShardedStore* store, RecoveryStats* stats,
                                        int replay_threads = 1);

  /// Replays a sequence of streamed command-log generation files (oldest
  /// first, as CommandLogStreamer::ListLogFiles returns them) on top of a
  /// loaded checkpoint chain. LSNs restart at 0 in every generation, so
  /// `stats->replay_from_lsn` only applies within the *anchor*
  /// generation: the newest one containing the RESOLVE phase token of the
  /// last applied checkpoint (id `stats->last_checkpoint_id`) at exactly
  /// that LSN. The anchor replays commits after the token; every later
  /// generation replays in full; generations before the anchor are
  /// retired (fully covered by the checkpoint). If no generation holds
  /// the anchor token, the checkpoint postdates everything the log
  /// persisted — since log appends are sequential, nothing after the
  /// token persisted either, and there is nothing to replay. With no
  /// checkpoints loaded every generation replays in full. See
  /// docs/DURABILITY.md, "Composing recovery with streamed logs", and
  /// docs/RECOVERY.md for the full contract.
  ///
  /// `replay_threads` as in ReplayLog; the scheduler drains completely
  /// at every generation boundary, so the anchor rule composes with
  /// parallel replay unchanged. Fills stats->generations with the
  /// per-generation replayed/skipped breakdown.
  [[nodiscard]] static Status ReplayLogGenerations(
      const std::vector<std::string>& files,
      const ProcedureRegistry& registry, ShardedStore* store,
      RecoveryStats* stats, int replay_threads = 1);

  /// LoadCheckpoints + ReplayLog.
  [[nodiscard]] static Status Recover(CheckpointStorage* storage,
                                      const CommitLog& log,
                                      const ProcedureRegistry& registry,
                                      ShardedStore* store, RecoveryStats* stats,
                                      int replay_threads = 1);
};

}  // namespace calcdb

#endif  // CALCDB_RECOVERY_RECOVERY_MANAGER_H_
