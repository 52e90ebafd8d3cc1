#ifndef CALCDB_CHECKPOINT_ADMISSION_GATE_H_
#define CALCDB_CHECKPOINT_ADMISSION_GATE_H_

#include <atomic>
#include <condition_variable>
#include <mutex>

namespace calcdb {

/// Gate that quiesce-based checkpointers close to stop new transactions
/// from starting.
///
/// Naive snapshot closes it for the whole capture; fuzzy closes it while
/// the checkpoint record (dirty table) is written; IPP and Zigzag close it
/// until all active transactions drain — a *physical* point of consistency
/// (paper §4.1.3-4.1.4). CALC never touches it: that is the headline
/// difference the throughput-over-time figures show.
///
/// The open path is two atomic loads (WaitAdmitted, and the executor's
/// re-check after registering), so the gate costs nothing when no
/// checkpoint is being taken.
class AdmissionGate {
 public:
  AdmissionGate() = default;
  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Blocks while the gate is closed.
  void WaitAdmitted() {
    if (open_.load(std::memory_order_acquire)) return;  // fast path
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_.load(std::memory_order_acquire); });
  }

  /// True if a transaction would be admitted right now. Sequentially
  /// consistent: the executor re-reads the gate after registering, and
  /// QuiesceAndRun reads the active count after Close — only a single
  /// total order guarantees one of them sees the other's write.
  bool IsOpen() const { return open_.load(std::memory_order_seq_cst); }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_.store(false, std::memory_order_seq_cst);
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  std::atomic<bool> open_{true};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_ADMISSION_GATE_H_
