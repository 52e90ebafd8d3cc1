#ifndef CKPTBENCH_SPANS_H_
#define CKPTBENCH_SPANS_H_

// Benchmark-side spans: the traced run records one span around each call
// the benchmark makes into a calcdb layer (db, workload, txn, checkpoint,
// log, storage, recovery). Spans stay in per-thread memory buffers and
// are aggregated and written out after the run; nothing inside the
// library is instrumented by this file.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ckptbench {

enum SpanName : uint16_t {
  kBenchSetup = 0,   // one setup repetition (root)
  kDbOpen,           // Database::Open
  kDbPopulate,       // SetupMicrobench / SetupTpcc
  kDbBaseCkpt,       // Database::WriteBaseCheckpoint
  kDbStart,          // Database::Start
  kWorkloadGen,      // WorkloadGenerator::Next
  kTxnExecute,       // Executor::Execute
  kCkptCycle,        // Database::Checkpoint
  kStorageDigest,    // ForEachRecord + Read over the whole store
  kLogShutdown,      // Database::Shutdown (streamer drain + fsync)
  kBenchRecover,     // fresh Open + registration + recovery (root)
  kRecoveryRecover,  // Database::RecoverFromCommandLog
  kNumSpanNames,
};

const char* SpanNameString(uint16_t name);
/// The layer (Chrome trace "cat") a span name belongs to.
const char* SpanLayer(uint16_t name);

int64_t NowNs();

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  ///< time covered by direct children
  uint64_t txn = 0;      ///< per-transaction id; 0 outside transactions
  int32_t parent = -1;   ///< index in the same buffer; -1 for a root
  uint16_t name = 0;
};

/// One thread's spans. Nesting on the thread defines the parent.
class SpanBuffer {
 public:
  explicit SpanBuffer(int tid) : tid_(tid) { spans_.reserve(1 << 12); }

  int32_t Begin(uint16_t name, uint64_t txn, int64_t start_ns);
  void End(int32_t index, int64_t end_ns);

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Owns every thread's buffer of one traced pass.
class SpanRecorder {
 public:
  SpanBuffer* NewBuffer();

  /// All buffers; call only after every recording thread has joined.
  std::vector<const SpanBuffer*> Buffers() const;

  /// Per-name and per-layer table: count, busy time, self time.
  std::string LayerTable() const;

  /// Writes Chrome trace-event JSON ({"traceEvents": [...]}, complete
  /// 'X' events) in the shape tools/trace_summary.py reads. Every
  /// non-transaction span is written; transaction spans only for one
  /// transaction in `txn_sample`, to keep the file small.
  bool WriteChromeTrace(const std::string& path, uint64_t txn_sample) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Times one call. Always measures (the untraced run needs the same
/// durations for its metrics); records a span only with a buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, uint16_t name, uint64_t txn = 0)
      : buffer_(buffer), start_ns_(NowNs()) {
    if (buffer_ != nullptr) index_ = buffer_->Begin(name, txn, start_ns_);
  }
  ~ScopedSpan() { Finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (once) and returns its duration in nanoseconds.
  int64_t Finish() {
    if (end_ns_ == 0) {
      end_ns_ = NowNs();
      if (buffer_ != nullptr) buffer_->End(index_, end_ns_);
    }
    return end_ns_ - start_ns_;
  }
  int64_t start_ns() const { return start_ns_; }

 private:
  SpanBuffer* buffer_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
  int32_t index_ = -1;
};

}  // namespace ckptbench

#endif  // CKPTBENCH_SPANS_H_
