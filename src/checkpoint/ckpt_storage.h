#ifndef CALCDB_CHECKPOINT_CKPT_STORAGE_H_
#define CALCDB_CHECKPOINT_CKPT_STORAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/ckpt_file.h"
#include "util/latch.h"
#include "util/status.h"
#include "util/throttled_file.h"

namespace calcdb {

/// Metadata for one durable checkpoint.
///
/// A checkpoint is either a single file (`path`, the legacy layout) or a
/// set of segment files written by a parallel capture (`segments`; `path`
/// then holds the base name the segments derive from and no file exists
/// at it). Use files() to enumerate the actual on-disk files either way.
struct CheckpointInfo {
  uint64_t id = 0;            ///< monotonically increasing
  CheckpointType type = CheckpointType::kFull;
  uint64_t vpoc_lsn = 0;      ///< commit-log LSN of the point of consistency
  uint64_t num_entries = 0;
  std::string path;
  std::vector<std::string> segments;  ///< empty for single-file checkpoints

  /// The on-disk files making up this checkpoint: the segment list for a
  /// segmented checkpoint, else the single legacy file.
  std::vector<std::string> files() const {
    return segments.empty() ? std::vector<std::string>{path} : segments;
  }
};

/// Directory of durable checkpoints plus the manifest tracking them.
///
/// The manifest orders checkpoints by id; recovery loads the newest full
/// checkpoint and every later partial (paper §3.2). The background merger
/// collapses [full, partial...] chains into a new full checkpoint and
/// retires the inputs — "old checkpoints are discarded only once they have
/// been collapsed" (§2.3.1), so a crash mid-collapse never loses data.
class CheckpointStorage {
 public:
  /// `dir` is created if missing. `disk_bytes_per_sec` caps checkpoint
  /// write bandwidth (0 = unthrottled); readers are never throttled.
  CheckpointStorage(std::string dir, uint64_t disk_bytes_per_sec);

  CheckpointStorage(const CheckpointStorage&) = delete;
  CheckpointStorage& operator=(const CheckpointStorage&) = delete;

  [[nodiscard]] Status Init();

  /// Allocates the next checkpoint id.
  uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// File path for a checkpoint id.
  std::string PathFor(uint64_t id, CheckpointType type) const;

  /// File path for segment `seg` of a parallel (segmented) checkpoint.
  std::string SegmentPathFor(uint64_t id, CheckpointType type,
                             size_t seg) const;

  /// Registers a completed (Finish()ed) checkpoint in the manifest.
  void Register(const CheckpointInfo& info);

  /// Snapshot of the manifest, ordered by id.
  std::vector<CheckpointInfo> List() const;

  /// The newest registered checkpoint chain needed for recovery: the
  /// latest full checkpoint plus all partials registered after it, in id
  /// order. If no full checkpoint exists, returns every partial (the
  /// chain from the empty initial database).
  std::vector<CheckpointInfo> RecoveryChain() const;

  /// Chain computation over an arbitrary id-ordered checkpoint list: the
  /// latest full checkpoint plus everything after it (every entry when no
  /// full exists). Recovery uses this to recompute the chain after
  /// rejecting a torn checkpoint.
  static std::vector<CheckpointInfo> ChainFrom(
      const std::vector<CheckpointInfo>& checkpoints);

  /// Replaces checkpoints `retired_ids` with `merged` in the manifest,
  /// persists it, and only then deletes the retired files. `merged` must
  /// already be durable. If the persist fails nothing is deleted: the
  /// on-disk manifest still names the inputs, and the merged files are
  /// orphans.
  [[nodiscard]] Status ReplaceCollapsed(
      const std::vector<uint64_t>& retired_ids,
      const CheckpointInfo& merged);

  /// Persists / reloads the manifest (for recovery across restarts).
  /// Persists from different threads (a checkpoint cycle and the
  /// background merger) run one at a time, each writing the list as of
  /// its turn, so the last rename holds the newest list.
  [[nodiscard]] Status PersistManifest() const;
  [[nodiscard]] Status LoadManifest();

  const std::string& dir() const { return dir_; }
  uint64_t disk_bytes_per_sec() const { return disk_bytes_per_sec_; }

  /// The shared write budget every checkpoint writer must draw from, so
  /// `disk_bytes_per_sec` caps the *aggregate* checkpoint I/O rate across
  /// parallel segment writers, the merger and base-checkpoint writes.
  /// Null when unthrottled.
  const std::shared_ptr<TokenBucket>& write_budget() const {
    return write_budget_;
  }

  /// The writer configuration every checkpoint written into this storage
  /// uses: write_budget() and format v1 (CRC-32). Pass straight to
  /// CheckpointFileWriter::Open.
  const CheckpointWriterOptions& writer_options() const {
    return writer_options_;
  }

 private:
  std::string ManifestPath() const { return dir_ + "/MANIFEST"; }

  std::string dir_;
  uint64_t disk_bytes_per_sec_;
  std::shared_ptr<TokenBucket> write_budget_;
  CheckpointWriterOptions writer_options_;
  std::atomic<uint64_t> next_id_{0};

  mutable std::mutex persist_mu_;  // serializes PersistManifest
  mutable SpinLatch latch_;
  std::vector<CheckpointInfo> checkpoints_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_CKPT_STORAGE_H_
