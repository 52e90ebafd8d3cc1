#include "checkpoint/merger.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "obs/obs.h"
#include "recovery/recovery_manager.h"
#include "storage/sharded_store.h"
#include "util/fault_injection.h"

namespace calcdb {

Status CheckpointMerger::CollapseOnce(size_t max_partials,
                                      bool* did_merge) {
  *did_merge = false;
  std::vector<CheckpointInfo> chain = storage_->RecoveryChain();
  // Need at least a (full, partial) pair — or two partials from an
  // empty-start chain — for collapsing to be worthwhile.
  if (chain.size() < 2) return Status::OK();
  CALCDB_TRACE_SPAN(merge_span, "merge", "ckpt", chain.size());
  chain.resize(std::min(chain.size() - 1, max_partials) + 1);

  // Recovery's fold, into a private store: one thread, a fixed order, so
  // the merged bytes are deterministic.
  ShardedStore merged(max_records_, num_shards_);
  ChainFoldStats fold;
  CALCDB_RETURN_NOT_OK(RecoveryManager::FoldChain(chain, &merged, &fold));

  // The merged full checkpoint adopts the last input's identity: it
  // represents the database exactly as of that partial's point of
  // consistency. No writer can race the private store, so the capture
  // takes each live version in place.
  EngineContext engine;
  engine.store = &merged;
  engine.ckpt_storage = storage_;
  CaptureScan scan;
  scan.id = chain.back().id;
  scan.poc_lsn = chain.back().vpoc_lsn;
  scan.limits = merged.SlotCounts();
  CheckpointInfo out;
  CheckpointCycleStats stats;
  CALCDB_RETURN_NOT_OK(Checkpointer::CaptureCheckpoint(
      engine, scan, /*version=*/nullptr, &out, &stats));

  std::vector<uint64_t> retired;
  for (const CheckpointInfo& info : chain) retired.push_back(info.id);
  // Crash before ReplaceCollapsed: the merged files exist but the
  // manifest still lists the inputs — recovery uses the old chain.
  CALCDB_FAULT_POINT("merge.replace");
  CALCDB_RETURN_NOT_OK(storage_->ReplaceCollapsed(retired, out));
  merges_done_.fetch_add(1, std::memory_order_relaxed);
  CALCDB_COUNTER_ADD("calcdb.ckpt.merges", 1);
  CALCDB_COUNTER_ADD("calcdb.ckpt.merge_entries_out", out.num_entries);
  *did_merge = true;
  return Status::OK();
}

void CheckpointMerger::StartBackground(size_t trigger_batch, int poll_ms) {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this, trigger_batch, poll_ms] {
    for (;;) {
      std::vector<CheckpointInfo> chain = storage_->RecoveryChain();
      if (chain.size() >= trigger_batch + 1) {
        bool did_merge = false;
        // A failed collapse leaves the inputs intact for the next try,
        // but the failure must not go unseen.
        Status st = CollapseOnce(trigger_batch, &did_merge);
        if (!st.ok()) {
          CALCDB_COUNTER_ADD("calcdb.ckpt.merge_failures", 1);
          CALCDB_WARN("merge.failed", "ckpt", st.ToString());
        }
      }
      // Wait out the poll interval, but wake at once for StopBackground.
      std::unique_lock<std::mutex> lock(stop_mu_);
      bool stopped = stop_cv_.wait_for(
          lock, std::chrono::milliseconds(poll_ms),
          [this] { return !running_.load(std::memory_order_acquire); });
      if (stopped) return;
    }
  });
}

void CheckpointMerger::StopBackground() {
  {
    // Under the mutex, so the store cannot fall between the loop's
    // predicate check and its wait.
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace calcdb
