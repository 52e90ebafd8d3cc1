#ifndef CALCDB_CHECKPOINT_MERGER_H_
#define CALCDB_CHECKPOINT_MERGER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>

#include "checkpoint/ckpt_storage.h"
#include "util/status.h"

namespace calcdb {

/// Background collapser of partial checkpoints (paper §2.3.1 / §3.2).
///
/// Collapsing merges the newest full checkpoint with the partial
/// checkpoints that follow it — latest version wins per key, tombstones
/// delete — producing a new full checkpoint that is "accurate as of the
/// most recent partial checkpoint". The merged checkpoint takes over the
/// *last input partial's id and point-of-consistency LSN*, so the manifest
/// ordering (and hence the recovery chain) stays correct with respect to
/// partials taken while the merge was running. Inputs are retired only
/// after the merged checkpoint is durable: "old checkpoints are discarded
/// only once they have been collapsed. Thus a system failure during the
/// collapsing process ... has no effect on durability."
class CheckpointMerger {
 public:
  explicit CheckpointMerger(CheckpointStorage* storage)
      : storage_(storage) {}
  ~CheckpointMerger() { StopBackground(); }

  CheckpointMerger(const CheckpointMerger&) = delete;
  CheckpointMerger& operator=(const CheckpointMerger&) = delete;

  /// Collapses the newest full checkpoint with up to `max_partials`
  /// partials following it. `*did_merge` reports whether anything was
  /// merged (false when fewer than one partial exists).
  [[nodiscard]] Status CollapseOnce(size_t max_partials, bool* did_merge);

  /// Starts a low-priority thread that collapses whenever at least
  /// `trigger_batch` partials have accumulated after the newest full
  /// checkpoint (the paper's "runs after 4, 8, and 16 partial checkpoints
  /// have been taken" configurations).
  void StartBackground(size_t trigger_batch, int poll_ms = 200);

  /// Stops the background thread. Wakes it from its poll wait, so this
  /// returns as soon as any collapse in progress finishes.
  void StopBackground();

  /// Number of collapses performed (tests, stats).
  uint64_t merges_done() const {
    return merges_done_.load(std::memory_order_relaxed);
  }

 private:
  CheckpointStorage* storage_;
  std::atomic<bool> running_{false};
  std::mutex stop_mu_;  // pairs running_'s clearing with stop_cv_
  std::condition_variable stop_cv_;
  std::atomic<uint64_t> merges_done_{0};
  std::thread thread_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_MERGER_H_
