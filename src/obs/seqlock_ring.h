#ifndef CALCDB_OBS_SEQLOCK_RING_H_
#define CALCDB_OBS_SEQLOCK_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace calcdb {
namespace obs {

/// Small dense ids (1, 2, ...) assigned in first-call order, stable per
/// thread. Traces and events share the id space, so one thread's spans
/// and events carry the same tid.
inline uint32_t CurrentTid() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// A bounded MPSC ring of records, the one store behind the trace ring
/// (TraceBuffer) and the event ring (EventRing).
///
/// Writers claim a ticket with one relaxed fetch_add and publish the
/// slot with a per-slot seqlock (odd while writing, even when stable);
/// old records are overwritten once the ring wraps. Snapshot() is the
/// single-consumer side: it walks the ring and keeps slots whose
/// sequence is stable across the payload copy, so a reader racing a
/// wrapping writer drops that slot instead of returning torn data.
/// The record is stored as 64-bit words, each an atomic so the benign
/// read/write race is defined behavior. Payload stores are release and
/// payload loads acquire (H.-J. Boehm, "Can Seqlocks Get Along with
/// Programming Language Memory Models?", MSPC 2012); both are plain
/// moves on x86.
///
/// `T` must be trivially copyable and have an immortal `const char*
/// name` (null marks "no record") and an `int64_t ts_us` (snapshot
/// order).
template <typename T>
class SeqlockRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "SeqlockRing records are copied as raw words");

 public:
  /// `capacity` is rounded up to a power of two, min 2.
  explicit SeqlockRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    slots_ = new Slot[capacity_];
  }
  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;
  ~SeqlockRing() { delete[] slots_; }

  void Emit(const T& record) {
    uint64_t words[kWords] = {};
    std::memcpy(words, &record, sizeof(T));
    uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & (capacity_ - 1)];
    // Seqlock write: odd marks the slot in flux; the final even value
    // encodes the ticket generation so a reader can tell a stable slot
    // from one that wrapped underneath it. The payload stores are
    // release stores too: a reader that sees any new payload word then
    // also sees the odd sequence before it (relaxed stores could become
    // visible first on a weakly ordered CPU).
    slot.seq.store(2 * ticket + 1, std::memory_order_release);
    for (size_t i = 0; i < kWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_release);
    }
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
  }

  /// Stable records, oldest (`ts_us`) first. Records overwritten
  /// mid-copy are skipped.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(capacity_);
    for (size_t i = 0; i < capacity_; ++i) {
      const Slot& slot = slots_[i];
      uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write
      // Acquire payload loads: the second sequence load below cannot be
      // satisfied before them, so a torn copy always sees a new sequence.
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_acquire);
      }
      uint64_t s2 = slot.seq.load(std::memory_order_acquire);
      if (s1 != s2) continue;  // wrapped mid-copy
      T record;
      std::memcpy(&record, words, sizeof(T));
      if (record.name == nullptr) continue;
      out.push_back(record);
    }
    std::sort(out.begin(), out.end(), [](const T& a, const T& b) {
      return a.ts_us < b.ts_us;
    });
    return out;
  }

  /// Total records ever emitted.
  uint64_t emitted() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Records lost to ring wraparound.
  uint64_t dropped() const {
    uint64_t e = emitted();
    return e > capacity_ ? e - capacity_ : 0;
  }

  size_t capacity() const { return capacity_; }

  /// Forgets all records (test affordance; not linearizable against
  /// concurrent writers).
  void Reset() {
    for (size_t i = 0; i < capacity_; ++i) {
      slots_[i].seq.store(0, std::memory_order_release);
    }
    head_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;

  struct alignas(64) Slot {
    // Seqlock: 0 = never written, odd = write in progress,
    // even > 0 = stable generation.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kWords] = {};
  };

  size_t capacity_;  // power of two
  Slot* slots_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace obs
}  // namespace calcdb

#endif  // CALCDB_OBS_SEQLOCK_RING_H_
