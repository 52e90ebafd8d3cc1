#ifndef CALCDB_OBS_EVENT_LOG_H_
#define CALCDB_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "obs/seqlock_ring.h"
#include "util/latch.h"
#include "util/thread_annotations.h"

namespace calcdb {
namespace obs {

/// Structured engine events: the third observability pillar next to
/// metrics (how much) and traces (how fast). An event is a discrete
/// "something notable happened" record — a background failure, a
/// rejected checkpoint, a leaked file — with a severity, a stable
/// dotted name, and a small key=value payload. Metrics aggregate these
/// away; traces drown them in hot-path spans; the event log keeps them
/// individually inspectable.
///
/// Severity policy (docs/OBSERVABILITY.md "Events & health"):
///   kInfo  — expected-but-notable state changes (throttle saturation,
///            recovery fallbacks that the contract absorbs).
///   kWarn  — degraded but running (leaked retired file, torn
///            checkpoint rejected, injected fault fired).
///   kError — a durability-bearing background path failed; the engine
///            keeps serving but BackgroundStatus()/GetHealth() is red.
enum class Severity : uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

/// Stable display name: "INFO", "WARN", "ERROR".
const char* SeverityName(Severity severity);

/// One key=value payload field. `key` must be a string literal (or
/// otherwise immortal): the ring stores the pointer, not a copy.
struct EventKv {
  const char* key;
  int64_t value;
};

/// One structured event. `name` and `cat` must be immortal literals;
/// `detail` is copied (truncated to kDetailBytes - 1) so it may carry
/// dynamic strings like file paths.
struct Event {
  static constexpr int kMaxFields = 3;
  static constexpr size_t kDetailBytes = 104;

  Severity severity = Severity::kInfo;
  const char* name = nullptr;  // dotted, e.g. "ckpt.gc_unlink_failed"
  const char* cat = nullptr;   // subsystem, e.g. "ckpt"
  int64_t ts_us = 0;
  uint32_t tid = 0;
  /// Rate-limited sibling events folded into this one since the site
  /// last admitted an event.
  uint64_t suppressed = 0;
  int n_fields = 0;
  EventKv fields[kMaxFields] = {};
  char detail[kDetailBytes] = {};  // always NUL-terminated
};

/// The bounded MPSC seqlock ring of events (obs/seqlock_ring.h). Events
/// are rare (rate-limited cold paths), so EventLog's ring is small.
using EventRing = SeqlockRing<Event>;

/// Per-site token bucket: at most `burst` events back to back, then
/// `refill_per_sec` per second sustained. The CALCDB_EVENT-family
/// macros keep one EventSite per call site in a function-local static,
/// so a chatty site throttles itself without silencing others; the
/// suppressed count is folded into the next admitted event so nothing
/// disappears without a trace.
class EventSite {
 public:
  EventSite(uint32_t burst, uint32_t refill_per_sec)
      : burst_(burst > 0 ? burst : 1), per_sec_(refill_per_sec) {}
  EventSite(const EventSite&) = delete;
  EventSite& operator=(const EventSite&) = delete;

  /// True iff this event may be emitted now. On admission, `*folded`
  /// receives the number of events this site suppressed since the
  /// previous admission (to be carried on the admitted event).
  bool Admit(int64_t now_us, uint64_t* folded);

  /// Total events this site has ever suppressed.
  uint64_t suppressed_total() const {
    return suppressed_total_.load(std::memory_order_relaxed);
  }

 private:
  const uint32_t burst_;
  const uint32_t per_sec_;
  SpinLatch latch_;
  // Milli-tokens; negative last_refill_us_ marks "never refilled".
  int64_t tokens_milli_ CALCDB_GUARDED_BY(latch_) = -1;
  int64_t last_refill_us_ CALCDB_GUARDED_BY(latch_) = -1;
  uint64_t folded_ CALCDB_GUARDED_BY(latch_) = 0;
  std::atomic<uint64_t> suppressed_total_{0};
};

/// Process-global event channel: one EventRing plus an optional JSONL
/// sink and a rate-limited stderr mirror for WARN+. All engine event
/// points go through this (via the CALCDB_EVENT/CALCDB_WARN/
/// CALCDB_ERROR macros in obs/obs.h).
class EventLog {
 public:
  static EventLog& Global();

  /// Default per-site token bucket used by the macros.
  static constexpr uint32_t kDefaultBurst = 16;
  static constexpr uint32_t kDefaultRefillPerSec = 4;

  /// Slots in the global event ring.
  static constexpr size_t kRingCapacity = 1 << 10;

  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Streams every admitted event as one JSON line appended to `path`
  /// (Options::events_path / --events_out). Empty disables streaming;
  /// the ring keeps recording either way.
  void SetSinkPath(const std::string& path);
  std::string sink_path() const;

  /// WARN+ events are mirrored to stderr (rate-limited globally) so a
  /// degraded engine is visible without any sink configured. Tests
  /// that inject failures on purpose may turn the mirror off.
  void SetStderrMirror(bool on) {
    mirror_.store(on, std::memory_order_relaxed);
  }

  /// Emits one event. `site` (nullable) applies token-bucket rate
  /// limiting; a suppressed emit only bumps the suppression counters.
  void Emit(Severity severity, const char* name, const char* cat,
            EventSite* site, std::string_view detail,
            std::initializer_list<EventKv> fields);

  EventRing& ring() { return ring_; }

  /// Events admitted into the ring / suppressed by rate limiting /
  /// lost to ring wraparound — the accounting HealthMonitor reports.
  uint64_t emitted() const { return ring_.emitted(); }
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return ring_.dropped(); }

  /// Writes the current ring contents as JSONL to `path` (one event
  /// object per line, oldest first). Returns false on I/O error.
  bool ExportJsonl(const std::string& path) const;

  /// Serializes one event as a single-line JSON object (the schema in
  /// tools/events_schema.json).
  static std::string EventToJson(const Event& ev);

  /// Clears the ring and counters, disables the sink (test affordance).
  void ResetForTest();

 private:
  EventLog();

  void AppendToSink(const Event& ev);
  void MirrorToStderr(const Event& ev);

  EventRing ring_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> mirror_{true};
  std::atomic<uint64_t> suppressed_{0};
  mutable SpinLatch sink_latch_;
  std::string sink_path_ CALCDB_GUARDED_BY(sink_latch_);
  EventSite stderr_site_;
};

}  // namespace obs
}  // namespace calcdb

#endif  // CALCDB_OBS_EVENT_LOG_H_
