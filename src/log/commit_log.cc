#include "log/commit_log.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "obs/obs.h"
#include "util/crc32.h"
#include "util/throttled_file.h"

namespace calcdb {

namespace {

// Frame layout: u32 payload length | u32 CRC-32 of the payload | payload.
// Commit payload: u8 type | u64 txn_id | u32 proc_id | u32 args_len | args.
// Phase payload:  u8 type | u8 phase | u64 checkpoint_id.
constexpr size_t kHeaderBytes = 4 + 4;
constexpr size_t kCommitFixedBytes = 1 + 8 + 4 + 4;
constexpr size_t kPhasePayloadBytes = 1 + 1 + 8;
constexpr size_t kCommitHeadBytes = kHeaderBytes + kCommitFixedBytes;
constexpr size_t kPhaseFrameBytes = kHeaderBytes + kPhasePayloadBytes;

std::atomic<int64_t> g_total_resident_bytes{0};

template <typename T>
char* Put(char* p, T v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

template <typename T>
T Get(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Writes a commit frame's header and fixed payload fields (everything
// but the args bytes, which follow it) into `head`.
void WriteCommitHead(char* head, uint64_t txn_id, uint32_t proc_id,
                     std::string_view args) {
  char* fixed = head + kHeaderBytes;
  char* p = fixed;
  *p++ = static_cast<char>(LogEntry::Type::kCommit);
  p = Put(p, txn_id);
  p = Put(p, proc_id);
  Put(p, static_cast<uint32_t>(args.size()));
  uint32_t crc = Crc32(args.data(), args.size(),
                       Crc32(fixed, kCommitFixedBytes));
  p = Put(head, static_cast<uint32_t>(kCommitFixedBytes + args.size()));
  Put(p, crc);
}

void WritePhaseFrame(char* frame, Phase phase, uint64_t checkpoint_id) {
  char* payload = frame + kHeaderBytes;
  char* p = payload;
  *p++ = static_cast<char>(LogEntry::Type::kPhaseTransition);
  *p++ = static_cast<char>(phase);
  Put(p, checkpoint_id);
  p = Put(frame, static_cast<uint32_t>(kPhasePayloadBytes));
  Put(p, Crc32(payload, kPhasePayloadBytes));
}

// Checks that the `len`-byte payload at `p` is a well-formed entry.
Status ValidatePayload(const char* p, uint32_t len) {
  switch (static_cast<LogEntry::Type>(p[0])) {
    case LogEntry::Type::kCommit:
      if (len < kCommitFixedBytes ||
          kCommitFixedBytes + Get<uint32_t>(p + 13) != len) {
        return Status::Corruption("commit entry size mismatch");
      }
      return Status::OK();
    case LogEntry::Type::kPhaseTransition:
      if (len != kPhasePayloadBytes) {
        return Status::Corruption("phase entry size mismatch");
      }
      return Status::OK();
  }
  return Status::Corruption("unknown commit log entry type");
}

// Decodes the frame at `frame`, which was validated when it entered the
// log.
void DecodeFrame(const char* frame, LogEntry* e) {
  const char* p = frame + kHeaderBytes;
  e->type = static_cast<LogEntry::Type>(p[0]);
  if (e->type == LogEntry::Type::kCommit) {
    e->txn_id = Get<uint64_t>(p + 1);
    e->proc_id = Get<uint32_t>(p + 9);
    e->args.assign(p + kCommitFixedBytes, Get<uint32_t>(p + 13));
  } else {
    e->phase = static_cast<Phase>(p[1]);
    e->checkpoint_id = Get<uint64_t>(p + 2);
  }
}

}  // namespace

struct CommitLog::Segment {
  explicit Segment(size_t cap) : capacity(cap), bytes(new char[cap]) {}

  size_t Footprint() const {
    return capacity + offsets.capacity() * sizeof(uint32_t);
  }
  uint64_t EndLsn() const { return first_lsn + offsets.size(); }
  const char* Frame(uint64_t lsn) const {
    return bytes.get() + offsets[lsn - first_lsn];
  }

  uint64_t first_lsn = 0;
  size_t capacity;
  size_t used = 0;
  std::unique_ptr<char[]> bytes;
  std::vector<uint32_t> offsets;  ///< frame start of entry first_lsn + i
};

CommitLog::CommitLog() = default;

CommitLog::~CommitLog() {
  g_total_resident_bytes.fetch_sub(ResidentBytes(),
                                   std::memory_order_relaxed);
}

int64_t CommitLog::TotalResidentBytes() {
  return g_total_resident_bytes.load(std::memory_order_relaxed);
}

void CommitLog::AddResident(int64_t delta) {
  resident_bytes_.fetch_add(delta, std::memory_order_relaxed);
  g_total_resident_bytes.fetch_add(delta, std::memory_order_relaxed);
}

char* CommitLog::ReserveFrameLocked(size_t n) {
  Segment* tail = segments_.empty() ? nullptr : segments_.back().get();
  if (tail == nullptr || tail->capacity - tail->used < n) {
    std::unique_ptr<Segment> seg;
    if (spare_ != nullptr && n <= spare_->capacity) {
      seg = std::move(spare_);
      seg->used = 0;
      seg->offsets.clear();
    } else {
      seg = std::make_unique<Segment>(std::max(n, kSegmentBytes));
      AddResident(static_cast<int64_t>(seg->Footprint()));
    }
    seg->first_lsn = next_lsn_;
    tail = seg.get();
    segments_.push_back(std::move(seg));
  }
  return tail->bytes.get() + tail->used;
}

uint64_t CommitLog::CommitFrameLocked(size_t n, const char* payload) {
  Segment* tail = segments_.back().get();
  size_t cap_before = tail->offsets.capacity();
  tail->offsets.push_back(static_cast<uint32_t>(tail->used));
  if (tail->offsets.capacity() != cap_before) {
    AddResident(static_cast<int64_t>(
        (tail->offsets.capacity() - cap_before) * sizeof(uint32_t)));
  }
  tail->used += n;
  if (static_cast<LogEntry::Type>(payload[0]) == LogEntry::Type::kCommit) {
    ++commit_count_;
  } else {
    phase_tokens_.push_back(PhaseToken{next_lsn_, Get<uint64_t>(payload + 2),
                                       static_cast<Phase>(payload[1])});
  }
  return next_lsn_++;
}

const CommitLog::Segment* CommitLog::FindSegmentLocked(uint64_t lsn) const {
  if (segments_.empty() || lsn < segments_.front()->first_lsn ||
      lsn >= next_lsn_) {
    return nullptr;
  }
  // The last segment whose first LSN is <= lsn.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), lsn,
      [](uint64_t l, const std::unique_ptr<Segment>& s) {
        return l < s->first_lsn;
      });
  return std::prev(it)->get();
}

uint64_t CommitLog::AppendCommit(uint64_t txn_id, uint32_t proc_id,
                                 std::string_view args,
                                 const PhaseController* pc,
                                 Phase* commit_phase,
                                 uint64_t* vpoc_count) {
  // Frame and CRC are built here, outside the latch; the args bytes are
  // copied once, straight into the segment.
  char head[kCommitHeadBytes];
  WriteCommitHead(head, txn_id, proc_id, args);
  const size_t n = kCommitHeadBytes + args.size();
  CALCDB_COUNTER_ADD("calcdb.log.appends", 1);
  CALCDB_COUNTER_ADD("calcdb.log.bytes", n);
  SpinLatchGuard guard(latch_);
  if (pc != nullptr && commit_phase != nullptr) {
    *commit_phase = pc->current();
  }
  if (vpoc_count != nullptr) *vpoc_count = vpoc_count_;
  char* dst = ReserveFrameLocked(n);
  std::memcpy(dst, head, kCommitHeadBytes);
  if (!args.empty()) {
    std::memcpy(dst + kCommitHeadBytes, args.data(), args.size());
  }
  return CommitFrameLocked(n, dst + kHeaderBytes);
}

uint64_t CommitLog::AppendPhaseTransition(
    Phase phase, uint64_t checkpoint_id, PhaseController* pc,
    const std::function<void()>& under_latch) {
  char frame[kPhaseFrameBytes];
  WritePhaseFrame(frame, phase, checkpoint_id);
  CALCDB_COUNTER_ADD("calcdb.log.appends", 1);
  CALCDB_COUNTER_ADD("calcdb.log.bytes", kPhaseFrameBytes);
  if (phase == Phase::kResolve) {
    CALCDB_COUNTER_ADD("calcdb.log.vpoc_tokens", 1);
  }
  CALCDB_TRACE_INSTANT(PhaseName(phase), "phase_token", checkpoint_id);
  SpinLatchGuard guard(latch_);
  if (phase == Phase::kResolve) ++vpoc_count_;
  if (under_latch) under_latch();
  if (pc != nullptr) pc->SetPhase(phase);
  char* dst = ReserveFrameLocked(kPhaseFrameBytes);
  std::memcpy(dst, frame, kPhaseFrameBytes);
  return CommitFrameLocked(kPhaseFrameBytes, dst + kHeaderBytes);
}

uint64_t CommitLog::VpocCount() const {
  SpinLatchGuard guard(latch_);
  return vpoc_count_;
}

uint64_t CommitLog::Size() const {
  SpinLatchGuard guard(latch_);
  return next_lsn_;
}

uint64_t CommitLog::CommitCount() const {
  SpinLatchGuard guard(latch_);
  return commit_count_;
}

uint64_t CommitLog::ReleaseHorizon() const {
  SpinLatchGuard guard(latch_);
  return release_horizon_;
}

LogEntry CommitLog::Entry(uint64_t lsn) const {
  LogEntry e;
  SpinLatchGuard guard(latch_);
  const Segment* seg = FindSegmentLocked(lsn);
  if (seg == nullptr) {
    throw std::out_of_range("commit log LSN released or not yet appended");
  }
  DecodeFrame(seg->Frame(lsn), &e);
  return e;
}

std::vector<LogEntry> CommitLog::CommitsAfter(uint64_t after_lsn) const {
  return CommitsFrom(after_lsn + 1);
}

std::vector<LogEntry> CommitLog::CommitsFrom(uint64_t from_lsn) const {
  std::vector<LogEntry> out;
  SpinLatchGuard guard(latch_);
  if (from_lsn >= next_lsn_) return out;
  if (FindSegmentLocked(from_lsn) == nullptr) {
    throw std::out_of_range("commit log LSN released");
  }
  for (const std::unique_ptr<Segment>& seg : segments_) {
    for (uint64_t lsn = std::max(from_lsn, seg->first_lsn);
         lsn < seg->EndLsn(); ++lsn) {
      const char* frame = seg->Frame(lsn);
      if (static_cast<LogEntry::Type>(frame[kHeaderBytes]) ==
          LogEntry::Type::kCommit) {
        DecodeFrame(frame, &out.emplace_back());
      }
    }
  }
  return out;
}

bool CommitLog::FindPhaseToken(uint64_t checkpoint_id, Phase phase,
                               uint64_t* lsn) const {
  SpinLatchGuard guard(latch_);
  for (const PhaseToken& t : phase_tokens_) {
    if (t.checkpoint_id == checkpoint_id && t.phase == phase) {
      *lsn = t.lsn;
      return true;
    }
  }
  return false;
}

void CommitLog::EncodeEntry(const LogEntry& e, std::string* out) {
  size_t at = out->size();
  if (e.type == LogEntry::Type::kCommit) {
    out->resize(at + kCommitHeadBytes + e.args.size());
    char* dst = out->data() + at;
    WriteCommitHead(dst, e.txn_id, e.proc_id, e.args);
    if (!e.args.empty()) {
      std::memcpy(dst + kCommitHeadBytes, e.args.data(), e.args.size());
    }
  } else {
    out->resize(at + kPhaseFrameBytes);
    WritePhaseFrame(out->data() + at, e.phase, e.checkpoint_id);
  }
}

uint64_t CommitLog::SnapshotFrames(uint64_t from_lsn,
                                   std::vector<ByteRange>* ranges) const {
  ranges->clear();
  SpinLatchGuard guard(latch_);
  if (from_lsn >= next_lsn_) return next_lsn_;
  const Segment* first = FindSegmentLocked(from_lsn);
  if (first == nullptr) throw std::out_of_range("commit log LSN released");
  for (const std::unique_ptr<Segment>& seg : segments_) {
    if (seg->EndLsn() <= from_lsn) continue;
    const char* begin = seg.get() == first ? seg->Frame(from_lsn)
                                           : seg->bytes.get();
    const char* end = seg->bytes.get() + seg->used;
    ranges->push_back(ByteRange{begin, static_cast<size_t>(end - begin)});
  }
  return next_lsn_;
}

void CommitLog::ReleaseBelow(uint64_t lsn) {
  std::vector<std::unique_ptr<Segment>> freed;
  {
    SpinLatchGuard guard(latch_);
    release_horizon_ = std::max(release_horizon_, lsn);
    while (segments_.size() > 1 && segments_[1]->first_lsn <= lsn) {
      std::unique_ptr<Segment> seg = std::move(segments_.front());
      segments_.pop_front();
      if (spare_ == nullptr && seg->capacity == kSegmentBytes) {
        spare_ = std::move(seg);
      } else {
        freed.push_back(std::move(seg));
      }
    }
    uint64_t first = segments_.empty() ? next_lsn_
                                       : segments_.front()->first_lsn;
    auto kept = std::find_if(
        phase_tokens_.begin(), phase_tokens_.end(),
        [first](const PhaseToken& t) { return t.lsn >= first; });
    phase_tokens_.erase(phase_tokens_.begin(), kept);
  }
  // Segment memory goes back to the allocator outside the latch.
  for (const std::unique_ptr<Segment>& seg : freed) {
    AddResident(-static_cast<int64_t>(seg->Footprint()));
  }
}

Status CommitLog::PersistTo(const std::string& path) const {
  ThrottledFileWriter writer;
  CALCDB_RETURN_NOT_OK(writer.Open(path, /*max_bytes_per_sec=*/0));
  SpinLatchGuard guard(latch_);
  if (release_horizon_ > 0) {
    return Status::InvalidArgument(
        "commit log prefix released; the streamed generations hold it");
  }
  for (const std::unique_ptr<Segment>& seg : segments_) {
    CALCDB_RETURN_NOT_OK(writer.Append(seg->bytes.get(), seg->used));
  }
  return writer.Close();
}

Status CommitLog::LoadFrom(const std::string& path) {
  SequentialFileReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path));
  // Frames are read straight into a fresh log's segments and validated
  // in place; the result replaces this log's contents only on success.
  CommitLog loaded;
  SpinLatchGuard loaded_guard(loaded.latch_);
  while (!reader.AtEof()) {
    // A torn final entry (crash mid-append while streaming) manifests as
    // a short read: accept the complete prefix — exactly the set of
    // transactions whose commit made it to stable storage.
    char header[kHeaderBytes];
    size_t got = 0;
    CALCDB_RETURN_NOT_OK(reader.Read(header, kHeaderBytes, &got));
    if (got < kHeaderBytes) break;
    uint32_t len = Get<uint32_t>(header);
    if (len == 0 || len > (1u << 30)) {
      return Status::Corruption("commit log entry length");
    }
    char* dst = loaded.ReserveFrameLocked(kHeaderBytes + len);
    std::memcpy(dst, header, kHeaderBytes);
    char* payload = dst + kHeaderBytes;
    CALCDB_RETURN_NOT_OK(reader.Read(payload, len, &got));
    if (got < len) break;
    if (Crc32(payload, len) != Get<uint32_t>(header + 4)) {
      return Status::Corruption("commit log entry crc mismatch");
    }
    CALCDB_RETURN_NOT_OK(ValidatePayload(payload, len));
    loaded.CommitFrameLocked(kHeaderBytes + len, payload);
  }
  SpinLatchGuard guard(latch_);
  std::swap(segments_, loaded.segments_);
  std::swap(spare_, loaded.spare_);
  std::swap(phase_tokens_, loaded.phase_tokens_);
  std::swap(next_lsn_, loaded.next_lsn_);
  std::swap(commit_count_, loaded.commit_count_);
  std::swap(release_horizon_, loaded.release_horizon_);
  // Keep each instance's resident count matching what it now holds, so
  // `loaded`'s destructor returns the old contents' bytes.
  int64_t mine = resident_bytes_.load(std::memory_order_relaxed);
  resident_bytes_.store(loaded.resident_bytes_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  loaded.resident_bytes_.store(mine, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace calcdb
