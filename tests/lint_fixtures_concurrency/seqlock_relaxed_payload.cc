// expect-lint: seqlock-payload-order
//
// The seqlock ring's shape before its payload accesses were ordered:
// relaxed payload stores between the writer's two sequence stores, and
// relaxed payload loads between the reader's two sequence loads. On a
// weakly ordered CPU a payload store can become visible before the odd
// sequence, and the second sequence load can be satisfied before the
// payload loads, so the reader accepts a torn slot as stable.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace calcdb {

struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> words[4] = {};
};

void Emit(Slot& slot, uint64_t ticket, const uint64_t* words) {
  slot.seq.store(2 * ticket + 1, std::memory_order_release);
  for (size_t i = 0; i < 4; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

bool Read(const Slot& slot, uint64_t* words) {
  uint64_t s1 = slot.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1) != 0) return false;
  for (size_t w = 0; w < 4; ++w) {
    words[w] = slot.words[w].load(std::memory_order_relaxed);
  }
  uint64_t s2 = slot.seq.load(std::memory_order_acquire);
  return s1 == s2;
}

}  // namespace calcdb
