#ifndef CALCDB_LOG_COMMIT_LOG_H_
#define CALCDB_LOG_COMMIT_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/phase.h"
#include "util/latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace calcdb {

/// One entry of the commit log, decoded.
///
/// Commit entries double as *command log* records (VoltDB-style command
/// logging, paper §1): they carry the transaction's input — stored
/// procedure id plus serialized arguments — in commit order, which is all a
/// deterministic replayer needs. Phase-transition entries are the tokens
/// CALC appends at each phase boundary; the PREPARE -> RESOLVE token *is*
/// the virtual point of consistency.
struct LogEntry {
  enum class Type : uint8_t {
    kCommit = 0,
    kPhaseTransition = 1,
  };

  Type type = Type::kCommit;
  uint64_t txn_id = 0;     ///< commit entries
  uint32_t proc_id = 0;    ///< commit entries: stored procedure id
  std::string args;        ///< commit entries: serialized procedure input
  Phase phase = Phase::kRest;   ///< phase entries: the phase entered
  uint64_t checkpoint_id = 0;   ///< phase entries: checkpoint cycle id
};

/// The "simple log containing the order in which transactions commit"
/// (paper §2.2) plus command-log payloads for deterministic replay.
///
/// Appends are serialized by a latch, which makes the append of a commit
/// token atomic with respect to phase-transition tokens: a transaction's
/// position relative to the virtual point of consistency is unambiguous.
/// Each transaction appends its commit token *before releasing any locks*
/// (enforced by the executor).
///
/// Storage. Each entry is encoded once, at append, into its on-disk frame
/// (u32 payload length + u32 CRC + payload — the bytes EncodeEntry
/// writes), and the frames are packed into fixed-size byte segments
/// (kSegmentBytes; a frame larger than that gets a segment of its own).
/// The frame and its CRC are built on the appending thread before the
/// latch; under the latch an append only copies the frame into the tail
/// segment and records its offset. The command-log streamer snapshots the
/// byte ranges of its unflushed entries under one latch acquisition and
/// writes them as they are.
///
/// Truncation. ReleaseBelow drops every segment wholly below an LSN, and
/// only the Database's long-running streamer calls it, once the entries
/// are fsynced into a generation file. A log nobody releases keeps every
/// entry (a Database without a command_log_path, a test's log, a log
/// loaded for recovery); PersistTo and the readers below rely on that.
/// LSNs stay dense and absolute across truncation: Size() is always the
/// next LSN, and reading a released LSN is an error.
class CommitLog {
 public:
  /// Capacity of one log segment. 256 KiB had the lowest append p99 of
  /// 64 KiB-4 MiB in a streaming run, and a streaming log then peaks
  /// under 1 MiB (docs/INTERNALS.md has the measurement).
  static constexpr size_t kSegmentBytes = size_t{256} << 10;

  CommitLog();
  ~CommitLog();
  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Appends a commit token; returns its LSN (0-based, dense).
  ///
  /// If `pc` is non-null, `*commit_phase` receives the system phase at the
  /// instant the token entered the log. Because phase-transition tokens
  /// update the controller under the same latch (see
  /// AppendPhaseTransition), "the phase during which the transaction
  /// committed" is exact, never racy — the property CALC's post-commit
  /// fixup (paper §2.2.2-2.2.3) depends on.
  /// If `vpoc_count` is non-null it receives the number of RESOLVE tokens
  /// (virtual points of consistency) preceding this commit — pCALC uses
  /// its parity to route the transaction's dirty keys to the correct
  /// partial-checkpoint bit vector (paper §2.3).
  uint64_t AppendCommit(uint64_t txn_id, uint32_t proc_id,
                        std::string_view args,
                        const PhaseController* pc = nullptr,
                        Phase* commit_phase = nullptr,
                        uint64_t* vpoc_count = nullptr);

  /// Appends a phase-transition token; returns its LSN. If `pc` is
  /// non-null, the controller's phase is switched to `phase` atomically
  /// with the token append. If `under_latch` is non-null it runs inside
  /// the log latch *before* the phase switch — CALC uses it to publish
  /// the capture watermark and dirty-set parity so that no transaction
  /// can observe the new phase with stale cycle state.
  uint64_t AppendPhaseTransition(
      Phase phase, uint64_t checkpoint_id, PhaseController* pc = nullptr,
      const std::function<void()>& under_latch = nullptr);

  /// Number of virtual points of consistency (RESOLVE tokens) appended
  /// so far. LoadFrom does not rebuild it.
  uint64_t VpocCount() const;

  /// As VpocCount, but without taking the latch — only callable from an
  /// `under_latch` callback passed to AppendPhaseTransition. The callback
  /// runs with `latch_` held, but the holder is invisible to clang's
  /// static analysis, hence the annotation opt-out.
  uint64_t VpocCountLocked() const CALCDB_NO_THREAD_SAFETY_ANALYSIS {
    return vpoc_count_;
  }

  /// As Size, but without taking the latch — only callable from an
  /// `under_latch` callback. At that point the in-flight token has not
  /// been appended yet, so this equals the token's LSN.
  uint64_t SizeLocked() const CALCDB_NO_THREAD_SAFETY_ANALYSIS {
    return next_lsn_;
  }

  /// The next LSN: entries ever appended, released ones included.
  uint64_t Size() const;

  /// Number of commit entries ever appended or loaded (excludes
  /// phase-transition tokens) — the size of the full replay set. Recovery
  /// uses it for per-generation replayed/skipped accounting.
  uint64_t CommitCount() const;

  /// Copy of entry at `lsn`. Throws std::out_of_range if `lsn` was
  /// released or not yet appended.
  LogEntry Entry(uint64_t lsn) const;

  /// Collects the commit entries with LSN strictly greater than
  /// `after_lsn`, in order — the replay set for a checkpoint whose
  /// point-of-consistency token sits at `after_lsn`.
  std::vector<LogEntry> CommitsAfter(uint64_t after_lsn) const;

  /// Collects the commit entries with LSN >= `from_lsn`, in order — the
  /// replay set when no checkpoint exists (recover from the beginning).
  /// Throws std::out_of_range if `from_lsn` was released.
  std::vector<LogEntry> CommitsFrom(uint64_t from_lsn) const;

  /// Finds the LSN of the first phase-transition token entering `phase`
  /// for checkpoint `checkpoint_id` among the retained entries; returns
  /// false if absent. Reads a small token index, not the entries.
  bool FindPhaseToken(uint64_t checkpoint_id, Phase phase,
                      uint64_t* lsn) const;

  /// Serializes one entry into the on-disk framing (length + CRC +
  /// payload), appending to `*out` — byte-for-byte the frame an append
  /// stores.
  static void EncodeEntry(const LogEntry& entry, std::string* out);

  /// Serializes entries to a file (length-prefixed, CRC-protected) so
  /// recovery can replay across a process restart. Fails if a prefix of
  /// the log has been released: the file would silently miss it.
  [[nodiscard]] Status PersistTo(const std::string& path) const;

  /// Loads entries from a file previously written by PersistTo (or
  /// streamed by CommandLogStreamer), replacing current contents.
  /// Decode reads through SequentialFileReader's read-ahead buffer.
  [[nodiscard]] Status LoadFrom(const std::string& path);

  // ------------------------------------------------------------------
  // Streamer interface.
  // ------------------------------------------------------------------

  /// A run of contiguous frame bytes inside one segment.
  struct ByteRange {
    const char* data;
    size_t size;
  };

  /// Under one latch acquisition, collects the frame bytes of every entry
  /// in [from_lsn, Size()) into `*ranges` (cleared first) and returns
  /// Size(). The bytes stay valid until ReleaseBelow releases them, so
  /// the caller — the one streamer allowed to release — may write them
  /// without the latch.
  uint64_t SnapshotFrames(uint64_t from_lsn,
                          std::vector<ByteRange>* ranges) const;

  /// Releases every segment whose entries all lie below `lsn` (the tail
  /// segment always stays), keeping one as a spare for the next segment,
  /// and advances ReleaseHorizon() to `lsn`. The caller guarantees
  /// entries below `lsn` are durable elsewhere.
  void ReleaseBelow(uint64_t lsn);

  /// Entries below this LSN were made durable by a releasing streamer
  /// and may be gone from memory; a new streamer resumes here. 0 for a
  /// log nothing has released.
  uint64_t ReleaseHorizon() const;

  /// Bytes held by this log's segments (the spare included) and their
  /// offset tables.
  int64_t ResidentBytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  /// ResidentBytes summed over every live CommitLog in the process — the
  /// `calcdb.log.resident_bytes` gauge.
  static int64_t TotalResidentBytes();

 private:
  struct Segment;
  struct PhaseToken {
    uint64_t lsn;
    uint64_t checkpoint_id;
    Phase phase;
  };

  // Reserves room for an `n`-byte frame at the end of the log, opening a
  // segment if the tail lacks it, and returns where to write it.
  char* ReserveFrameLocked(size_t n) CALCDB_REQUIRES(latch_);
  // Records the frame just written at the reserved position; returns its
  // LSN.
  uint64_t CommitFrameLocked(size_t n, const char* payload)
      CALCDB_REQUIRES(latch_);
  // The segment holding `lsn`, or null if released / not yet appended.
  const Segment* FindSegmentLocked(uint64_t lsn) const
      CALCDB_REQUIRES(latch_);
  void AddResident(int64_t delta);

  mutable SpinLatch latch_;
  std::deque<std::unique_ptr<Segment>> segments_ CALCDB_GUARDED_BY(latch_);
  std::unique_ptr<Segment> spare_ CALCDB_GUARDED_BY(latch_);
  std::vector<PhaseToken> phase_tokens_ CALCDB_GUARDED_BY(latch_);
  uint64_t next_lsn_ CALCDB_GUARDED_BY(latch_) = 0;
  uint64_t commit_count_ CALCDB_GUARDED_BY(latch_) = 0;
  uint64_t vpoc_count_ CALCDB_GUARDED_BY(latch_) = 0;
  uint64_t release_horizon_ CALCDB_GUARDED_BY(latch_) = 0;
  std::atomic<int64_t> resident_bytes_{0};
};

}  // namespace calcdb

#endif  // CALCDB_LOG_COMMIT_LOG_H_
