#ifndef CALCDB_CHECKPOINT_PHASE_H_
#define CALCDB_CHECKPOINT_PHASE_H_

#include <atomic>
#include <cstdint>

#include "obs/probes.h"

namespace calcdb {

/// The five phases of the CALC checkpointing cycle (paper §2.2).
///
/// Values are cyclically ordered: REST -> PREPARE -> RESOLVE -> CAPTURE ->
/// COMPLETE -> REST. The REST -> PREPARE... transitions are each marked by
/// a token atomically appended to the commit log, so it "can always be
/// unambiguously determined which phase the system was in when a particular
/// transaction committed".
enum class Phase : uint8_t {
  kRest = 0,
  kPrepare = 1,
  kResolve = 2,
  kCapture = 3,
  kComplete = 4,
};

inline const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kRest:
      return "REST";
    case Phase::kPrepare:
      return "PREPARE";
    case Phase::kResolve:
      return "RESOLVE";
    case Phase::kCapture:
      return "CAPTURE";
    case Phase::kComplete:
      return "COMPLETE";
  }
  return "?";
}

constexpr int kNumPhases = 5;

/// Tracks the global phase plus the number of currently-active transactions
/// that *started* in each phase. RunCheckpointer's barriers ("wait for all
/// active txns to have start_phase == X") become waits for the other
/// phases' active counts to drain.
class PhaseController {
 public:
  PhaseController() {
    for (auto& c : active_) c.store(0, std::memory_order_relaxed);
  }

  Phase current() const {
    return static_cast<Phase>(phase_.load(std::memory_order_acquire));
  }

  /// Writes the global phase. Within src/ this must only be called from
  /// CommitLog::AppendPhaseTransition while the commit-log latch is held —
  /// the atomicity of "token in log" and "phase visible" is what makes a
  /// transaction's position relative to the virtual point of consistency
  /// unambiguous (paper §2.2). tools/lint_concurrency.py enforces the
  /// call-site restriction.
  ///
  /// Sequentially consistent, like BeginTxn's increment and re-check and
  /// ActiveIn's read: the coordinator stores the phase then reads a
  /// count, a transaction increments a count then reads the phase, and
  /// only a single total order guarantees one of them sees the other's
  /// write. With release/acquire both could read the old values, and a
  /// transaction would start in a phase the coordinator already drained.
  void SetPhase(Phase p) {
    phase_.store(static_cast<uint8_t>(p), std::memory_order_seq_cst);
  }

  /// Registers a transaction as active; returns the phase it started in.
  /// The increment and the phase read must agree, so the increment is done
  /// optimistically and retried if the phase moved underneath us.
  Phase BeginTxn() {
    for (;;) {
      Phase p = current();
      active_[static_cast<int>(p)].fetch_add(1, std::memory_order_seq_cst);
      if (static_cast<Phase>(phase_.load(std::memory_order_seq_cst)) == p) {
        return p;
      }
      // Phase changed between read and increment: undo and retry, so that
      // a transaction is never counted under a stale phase after the
      // checkpointer has already inspected that counter.
      active_[static_cast<int>(p)].fetch_sub(1, std::memory_order_acq_rel);
      CALCDB_PROBE_PHASE_RESTART();
    }
  }

  /// Deregisters a transaction that started in `start_phase`.
  void EndTxn(Phase start_phase) {
    active_[static_cast<int>(start_phase)].fetch_sub(
        1, std::memory_order_acq_rel);
  }

  int64_t ActiveIn(Phase p) const {
    return active_[static_cast<int>(p)].load(std::memory_order_seq_cst);
  }

  /// Total currently-active transactions across all start phases. Used by
  /// the quiesce-based schemes (naive, fuzzy, IPP, Zigzag) to detect a
  /// physical point of consistency once admission is closed.
  int64_t TotalActive() const {
    int64_t n = 0;
    for (int i = 0; i < kNumPhases; ++i) {
      n += active_[i].load(std::memory_order_acquire);
    }
    return n;
  }

  /// Total active transactions whose start phase differs from `p`.
  int64_t ActiveNotIn(Phase p) const {
    int64_t n = 0;
    for (int i = 0; i < kNumPhases; ++i) {
      if (i != static_cast<int>(p)) {
        n += active_[i].load(std::memory_order_acquire);
      }
    }
    return n;
  }

 private:
  std::atomic<uint8_t> phase_{static_cast<uint8_t>(Phase::kRest)};
  std::atomic<int64_t> active_[kNumPhases];
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_PHASE_H_
