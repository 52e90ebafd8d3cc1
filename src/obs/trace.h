#ifndef CALCDB_OBS_TRACE_H_
#define CALCDB_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/seqlock_ring.h"

namespace calcdb {
namespace obs {

/// One trace event in Chrome trace_event terms. `name` and `cat` must
/// be string literals (or otherwise immortal): the ring stores the
/// pointers, not copies.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  int64_t ts_us = 0;   // span start (or instant time)
  int64_t dur_us = 0;  // span duration; 0 for instants
  uint64_t arg = 0;    // one free-form numeric payload ("arg" in JSON)
  uint32_t tid = 0;
  char ph = 'X';  // 'X' complete span, 'i' instant
};

/// The bounded MPSC seqlock ring of trace events (obs/seqlock_ring.h).
class TraceBuffer : public SeqlockRing<TraceEvent> {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  /// `capacity` is rounded up to a power of two, min 2.
  explicit TraceBuffer(size_t capacity = kDefaultCapacity)
      : SeqlockRing<TraceEvent>(capacity) {}

  /// Serializes `events` as Chrome/Perfetto trace_event JSON.
  static std::string ToJson(const std::vector<TraceEvent>& events);
};

/// Process-global tracer: one TraceBuffer plus an enable flag checked
/// (relaxed) on every emit. All engine trace points go through this.
class Tracer {
 public:
  static Tracer& Global();

  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Emits a completed span [start_us, start_us + dur_us).
  void EmitComplete(const char* name, const char* cat, int64_t start_us,
                    int64_t dur_us, uint64_t arg = 0);

  /// Emits an instant event.
  void EmitInstant(const char* name, const char* cat, uint64_t arg = 0);

  TraceBuffer& buffer() { return buffer_; }

  /// Writes the current ring contents as trace_event JSON to `path`.
  /// Returns false on I/O error.
  bool ExportJson(const std::string& path) const;

  std::string ToJson() const {
    return TraceBuffer::ToJson(buffer_.Snapshot());
  }

 private:
  Tracer() = default;

  TraceBuffer buffer_;
  std::atomic<bool> enabled_{true};
};

/// RAII span: records start time at construction and emits one 'X'
/// event at destruction (if tracing is enabled).
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, uint64_t arg = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  uint64_t arg_;
  int64_t start_us_;
};

}  // namespace obs
}  // namespace calcdb

#endif  // CALCDB_OBS_TRACE_H_
