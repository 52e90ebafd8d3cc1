#ifndef CALCDB_LOG_COMMAND_LOG_STREAMER_H_
#define CALCDB_LOG_COMMAND_LOG_STREAMER_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "log/commit_log.h"
#include "util/latch.h"
#include "util/status.h"
#include "util/throttled_file.h"

namespace calcdb {

/// What a streamer does with log entries once they are durable.
enum class LogRetention {
  kKeep,            ///< leave them in memory (the log stays complete)
  kReleaseFlushed,  ///< release their segments (CommitLog::ReleaseBelow)
};

/// Continuously persists the command log to stable storage.
///
/// CALC's durability story (paper §1, §3) pairs checkpoints with
/// "command logging" — logging transactional *input* in commit order. The
/// streamer tails the in-memory CommitLog from a background thread. Each
/// flush takes the log latch once to snapshot the already-encoded frame
/// bytes of every entry not yet persisted, appends them to a file and
/// fsyncs (group durability). After a crash, LoadFrom on the streamed
/// file yields every entry whose append hit the device; a torn final
/// entry is discarded by the loader.
///
/// Truncation. A kReleaseFlushed streamer releases the log's segments
/// once their entries are fsynced, so a streaming process holds only the
/// not-yet-durable tail in memory. Only the Database's long-running
/// streamer releases; a log may have at most one releasing streamer.
/// Start resumes at the log's release horizon (LSN 0 unless an earlier
/// releasing streamer persisted a prefix), so restarting a releasing
/// streamer writes each entry to exactly one generation, while a kKeep
/// streamer started before it re-flushes the log from LSN 0.
///
/// Log generations. Each process lifetime streams into its own
/// generation-numbered file, `<path>.NNNNNN`: Start scans for existing
/// generations and opens max+1 — with O_EXCL semantics, so an existing
/// file can never be truncated even if the scan were wrong. That closes
/// the restart-clobber hazard — a restart-after-recovery would otherwise
/// destroy the only log covering the pre-crash tail before any new
/// checkpoint exists. A log directory that exists but cannot be listed
/// fails Start/ListLogFiles outright (only ENOENT means "no
/// generations"), and numeric suffixes are bounded (< 10^12) so every
/// accepted generation round-trips through GenerationPath. Recovery
/// replays the generations in order
/// (RecoveryManager::ReplayLogGenerations; retirement rules in
/// docs/DURABILITY.md). A streamer is single-use in practice: one
/// Start/Stop per instance, one generation per process lifetime. Start
/// after Stop opens a further generation that resumes at the release
/// horizon; it cannot re-stream entries already released.
///
/// Checkpoint cycles use `persisted_lsn()` as a durability barrier: a
/// checkpoint may be registered in the manifest only after its RESOLVE
/// token's flush batch is fsynced (Checkpointer::WaitLogDurable).
///
/// Note on durability semantics: like VoltDB's asynchronous command
/// logging, a window of the most recent commits (up to one flush
/// interval) can be lost in a crash. Synchronous command logging would
/// reintroduce the per-transaction log-flush latency CALC exists to avoid;
/// the intended deployments bound the loss with K-safety replication or
/// accept it (paper §1's three application classes).
class CommandLogStreamer {
 public:
  explicit CommandLogStreamer(CommitLog* log,
                              LogRetention retention = LogRetention::kKeep)
      : log_(log), retention_(retention) {}
  ~CommandLogStreamer() {
    // calcdb-status-ignored: destructor has no error channel; Stop()
    // already folds final-drain failures into background_status, and
    // durability-sensitive callers invoke Stop() directly and check.
    (void)Stop();
  }

  CommandLogStreamer(const CommandLogStreamer&) = delete;
  CommandLogStreamer& operator=(const CommandLogStreamer&) = delete;

  /// Picks the next unused generation of `path`, opens it, and starts the
  /// streaming thread. Never touches earlier generations.
  [[nodiscard]] Status Start(const std::string& path,
                             int flush_interval_ms = 10);

  /// Drains every entry currently in the log, fsyncs, and stops. Returns
  /// the first background flush error if the streaming thread died.
  [[nodiscard]] Status Stop();

  /// LSNs [0, persisted_lsn) are durable: those from the release horizon
  /// at Start on in this streamer's generation, the rest in earlier ones.
  uint64_t persisted_lsn() const {
    return persisted_lsn_.load(std::memory_order_acquire);
  }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The generation file this streamer writes (empty before Start).
  std::string active_path() const;

  /// First error the background flush thread hit (OK while healthy).
  [[nodiscard]] Status background_status() const;

  /// `base` + ".NNNNNN" for generation `gen`.
  static std::string GenerationPath(const std::string& base, uint64_t gen);

  /// All existing generations of `base`, in replay order: a bare legacy
  /// `base` file first (generation 0, from before rotation existed), then
  /// `base.NNNNNN` ascending. Missing directory yields an empty list.
  [[nodiscard]] static Status ListLogFiles(const std::string& base,
                                           std::vector<std::string>* out);

 private:
  /// Writes and fsyncs every entry appended so far, then releases them
  /// under kReleaseFlushed.
  [[nodiscard]] Status Flush();
  void SetBackgroundStatus(const Status& st);

  CommitLog* const log_;
  const LogRetention retention_;
  std::vector<CommitLog::ByteRange> ranges_;  ///< reused by every Flush
  ThrottledFileWriter writer_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> persisted_lsn_{0};
  std::thread thread_;
  std::string active_path_;

  mutable SpinLatch status_latch_;
  Status background_status_ CALCDB_GUARDED_BY(status_latch_);
};

}  // namespace calcdb

#endif  // CALCDB_LOG_COMMAND_LOG_STREAMER_H_
