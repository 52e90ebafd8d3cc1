#ifndef CALCDB_OBS_HEALTH_H_
#define CALCDB_OBS_HEALTH_H_

#include <cstdint>
#include <functional>
#include <string>

#include "util/latch.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace calcdb {
namespace obs {

/// Point-in-time engine health. `healthy` folds the hard signals
/// (background failure, checkpoint stall); the rest are informational
/// gauges a dashboard can alert on with its own thresholds. Serialized
/// by ToJson() into StatsReporter's periodic JSONL (see
/// docs/OBSERVABILITY.md "Events & health" for the schema).
struct HealthReport {
  bool healthy = true;
  /// False once any background thread recorded a failure; the first
  /// error's message follows.
  bool background_ok = true;
  std::string background_error;
  /// True when periodic checkpoints are configured but no cycle has
  /// completed within stall_multiplier × the configured interval.
  bool checkpoint_stalled = false;
  uint64_t checkpoint_cycles = 0;
  /// Microseconds since the last observed cycle-count advance; -1 when
  /// no periodic checkpoint loop is configured.
  int64_t since_last_cycle_us = -1;
  /// Committed-but-not-yet-fsynced log entries (committed LSN minus
  /// persisted LSN); -1 when no command-log streamer is running.
  int64_t log_lag = -1;
  /// Observability self-accounting: data silently lost by the obs
  /// layer itself.
  uint64_t trace_dropped = 0;
  uint64_t events_dropped = 0;
  uint64_t events_suppressed = 0;

  /// One-line JSON object, stable key order.
  std::string ToJson() const;
};

/// Aggregates the engine's liveness signals into a HealthReport.
///
/// The monitor pulls everything through caller-supplied closures so it
/// has no dependency on Database: the database configures it once with
/// its background-status / cycle-count / LSN accessors and then calls
/// Check() (directly via Database::GetHealth(), and periodically via
/// StatsReporter's health supplier).
///
/// Stall detection is edge-based: Check() remembers the last observed
/// cycle count and the time it last advanced; if periodic checkpoints
/// are configured and the count has not moved within
/// `stall_multiplier × checkpoint_interval_us`, the engine is stalled.
/// The first Check() that sees a stall emits one WARN event
/// ("health.checkpoint_stall"); recovery back to progress re-arms it.
class HealthMonitor {
 public:
  struct Sources {
    /// First background failure (Database::BackgroundStatus shape);
    /// null means "always OK".
    std::function<Status()> background_status;
    /// Completed periodic checkpoint cycles; null with
    /// checkpoint_interval_us == 0 means "no periodic loop".
    std::function<uint64_t()> checkpoint_cycles;
    int64_t checkpoint_interval_us = 0;
    /// A cycle is stalled after stall_multiplier × interval without
    /// progress (Database uses the default, 3).
    double stall_multiplier = 3.0;
    /// Committed / durable log LSNs; both null means "no streamer".
    std::function<int64_t()> committed_lsn;
    std::function<int64_t()> persisted_lsn;
  };

  HealthMonitor() = default;
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Installs the signal sources and resets the stall tracker (the
  /// configured moment counts as progress).
  void Configure(Sources sources);

  /// Samples every source now and returns the report. Thread-safe.
  HealthReport Check();

 private:
  mutable SpinLatch latch_;
  Sources sources_ CALCDB_GUARDED_BY(latch_);
  uint64_t last_cycles_ CALCDB_GUARDED_BY(latch_) = 0;
  int64_t last_progress_us_ CALCDB_GUARDED_BY(latch_) = 0;
  bool stall_reported_ CALCDB_GUARDED_BY(latch_) = false;
  bool background_reported_ CALCDB_GUARDED_BY(latch_) = false;
};

}  // namespace obs
}  // namespace calcdb

#endif  // CALCDB_OBS_HEALTH_H_
