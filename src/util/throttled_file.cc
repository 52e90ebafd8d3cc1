#include "util/throttled_file.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <unistd.h>

#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

namespace {

// Appends below this size are coalesced into the staging buffer; at or
// above it they flush the stage and go straight to the file (no copy).
constexpr size_t kCoalesceBytes = 4096;

// Staging capacity: one token charge + one stdio write per this many
// coalesced bytes. Matches the Consume() chunk size.
constexpr size_t kStageBytes = 64 * 1024;

// Read-ahead buffer every SequentialFileReader opens with: checkpoint
// and command-log scans issue one read(2) per this many bytes.
constexpr size_t kReadAheadBytes = 1 << 20;

// Token charges are chunked so one large drain cannot overdraw the
// bucket in a single step.
constexpr size_t kConsumeChunk = 64 * 1024;

}  // namespace

TokenBucket::TokenBucket(uint64_t rate_bytes_per_sec)
    : rate_(rate_bytes_per_sec),
      burst_(static_cast<double>(rate_bytes_per_sec) / 100.0) {
  tokens_ = burst_;  // ~10ms of initial credit
  last_refill_us_ = NowMicros();
}

void TokenBucket::Consume(size_t n) {
  consumed_.fetch_add(n, std::memory_order_relaxed);
  if (rate_ == 0) return;
  const double rate = static_cast<double>(rate_);
  // Debt model: charge the balance immediately under the latch, then sleep
  // outside it until the refill stream repays this caller's share. Each
  // concurrent consumer deepens the shared debt before sleeping, so the
  // wake times of all sharers stack up and the aggregate rate stays within
  // budget no matter how many writers draw from the bucket.
  int64_t wake_us;
  {
    SpinLatchGuard guard(latch_);
    int64_t now = NowMicros();
    tokens_ += rate * static_cast<double>(now - last_refill_us_) / 1e6;
    if (tokens_ > burst_) tokens_ = burst_;
    last_refill_us_ = now;
    tokens_ -= static_cast<double>(n);
    if (tokens_ >= 0) return;
    wake_us = now + static_cast<int64_t>(-tokens_ / rate * 1e6) + 1;
  }
  CALCDB_OBS_ONLY(int64_t stall_start_us = NowMicros();)
  for (;;) {
    int64_t now = NowMicros();
    if (now >= wake_us) break;
    int64_t sleep_us = wake_us - now;
    if (sleep_us > 20000) sleep_us = 20000;
    SleepMicros(sleep_us);
  }
#if CALCDB_OBS_ENABLED
  int64_t stall_us = NowMicros() - stall_start_us;
  CALCDB_COUNTER_ADD("calcdb.io.throttle_stalls", 1);
  CALCDB_COUNTER_ADD("calcdb.io.throttle_stall_us",
                     static_cast<uint64_t>(stall_us));
  // Saturation fires on every throttled write under a busy capture, so
  // this site leans on the macro's per-site token bucket: a handful of
  // INFO events with the rest folded into their suppressed counts.
  CALCDB_EVENT("io.throttle_saturated", "io", "",
               {"stall_us", stall_us},
               {"bytes", static_cast<int64_t>(n)});
#endif
}

ThrottledFileWriter::~ThrottledFileWriter() {
  // calcdb-status-ignored: destructor has no error channel; durability
  // paths must call Close()/Sync() explicitly and check (DURABILITY.md).
  (void)Close();
}

Status ThrottledFileWriter::Open(const std::string& path,
                                 uint64_t max_bytes_per_sec) {
  std::shared_ptr<TokenBucket> budget;
  if (max_bytes_per_sec != 0) {
    budget = std::make_shared<TokenBucket>(max_bytes_per_sec);
  }
  return Open(path, std::move(budget));
}

Status ThrottledFileWriter::Open(const std::string& path,
                                 std::shared_ptr<TokenBucket> budget,
                                 bool exclusive) {
  if (is_open()) return Status::InvalidArgument("already open");
  // "x" is C11's O_EXCL: create the file, failing if it already exists.
  file_ = std::fopen(path.c_str(), exclusive ? "wbx" : "wb");
  if (file_ == nullptr) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  stage_ = static_cast<uint8_t*>(std::malloc(kStageBytes));
  if (stage_ == nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::IOError("malloc stage for " + path);
  }
  stage_len_ = 0;
  path_ = path;
  bytes_written_ = 0;
  budget_ = std::move(budget);
  return Status::OK();
}

void ThrottledFileWriter::ConsumeChunked(size_t n) {
  if (budget_ == nullptr) return;
  while (n > 0) {
    size_t chunk = n < kConsumeChunk ? n : kConsumeChunk;
    budget_->Consume(chunk);
    n -= chunk;
  }
}

Status ThrottledFileWriter::DrainStage() {
  if (stage_len_ == 0) return Status::OK();
  size_t n = stage_len_;
  stage_len_ = 0;
  ConsumeChunked(n);
  if (std::fwrite(stage_, 1, n, file_) != n) {
    return Status::IOError("write " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status ThrottledFileWriter::Append(const void* data, size_t n) {
  if (!is_open()) return Status::InvalidArgument("not open");
  const auto* p = static_cast<const uint8_t*>(data);
  if (n < kCoalesceBytes) {
    // Coalesce through the stage.
    size_t remaining = n;
    while (remaining > 0) {
      size_t room = kStageBytes - stage_len_;
      size_t take = remaining < room ? remaining : room;
      std::memcpy(stage_ + stage_len_, p, take);
      stage_len_ += take;
      p += take;
      remaining -= take;
      if (stage_len_ == kStageBytes) CALCDB_RETURN_NOT_OK(DrainStage());
    }
    bytes_written_ += n;
    return Status::OK();
  }
  // Large append: drain the stage to preserve byte order, then
  // write straight from the caller's memory, throttling in chunks.
  CALCDB_RETURN_NOT_OK(DrainStage());
  size_t remaining = n;
  while (remaining > 0) {
    size_t chunk = remaining < kConsumeChunk ? remaining : kConsumeChunk;
    if (budget_ != nullptr) budget_->Consume(chunk);
    if (std::fwrite(p, 1, chunk, file_) != chunk) {
      return Status::IOError("write " + path_ + ": " +
                             std::strerror(errno));
    }
    p += chunk;
    remaining -= chunk;
  }
  bytes_written_ += n;
  return Status::OK();
}

Status ThrottledFileWriter::Flush() {
  if (!is_open()) return Status::InvalidArgument("not open");
  CALCDB_RETURN_NOT_OK(DrainStage());
  if (std::fflush(file_) != 0) {
    return Status::IOError("flush " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status ThrottledFileWriter::Sync() {
  CALCDB_RETURN_NOT_OK(Flush());
  if (::fsync(::fileno(file_)) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status ThrottledFileWriter::Close() {
  if (!is_open()) return Status::OK();
  Status st = DrainStage();
  if (st.ok() && std::fflush(file_) != 0) {
    st = Status::IOError("flush " + path_ + ": " + std::strerror(errno));
  }
  if (st.ok() && ::fsync(::fileno(file_)) != 0) {
    st = Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  std::fclose(file_);
  file_ = nullptr;
  std::free(stage_);
  stage_ = nullptr;
  stage_len_ = 0;
  return st;
}

SequentialFileReader::~SequentialFileReader() {
  // calcdb-status-ignored: destructor cleanup of a read-only stream;
  // Close() on a reader cannot lose data.
  (void)Close();
}

Status SequentialFileReader::OpenFile(const std::string& path) {
  if (file_ != nullptr) return Status::InvalidArgument("already open");
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  bytes_read_ = 0;
  return Status::OK();
}

Status SequentialFileReader::OpenUnbuffered(const std::string& path) {
  CALCDB_RETURN_NOT_OK(OpenFile(path));
  // Best-effort, like the read-ahead buffer below: a failed setvbuf only
  // costs the extra copy through the libc default buffer.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  return Status::OK();
}

Status SequentialFileReader::Open(const std::string& path) {
  CALCDB_RETURN_NOT_OK(OpenFile(path));
  // Best-effort: a failed setvbuf just leaves the libc default buffer.
  read_ahead_buf_ = static_cast<char*>(std::malloc(kReadAheadBytes));
  if (read_ahead_buf_ != nullptr &&
      std::setvbuf(file_, read_ahead_buf_, _IOFBF, kReadAheadBytes) != 0) {
    std::free(read_ahead_buf_);
    read_ahead_buf_ = nullptr;
  }
  return Status::OK();
}

Status SequentialFileReader::ReadExact(void* out, size_t n) {
  size_t got = 0;
  CALCDB_RETURN_NOT_OK(Read(out, n, &got));
  if (got != n) return Status::IOError("short read");
  return Status::OK();
}

Status SequentialFileReader::Read(void* out, size_t n, size_t* read_n) {
  if (file_ == nullptr) return Status::InvalidArgument("not open");
  *read_n = std::fread(out, 1, n, file_);
  bytes_read_ += *read_n;
  if (*read_n < n && std::ferror(file_)) {
    return Status::IOError(std::strerror(errno));
  }
  return Status::OK();
}

bool SequentialFileReader::AtEof() {
  if (file_ == nullptr) return true;
  int c = std::fgetc(file_);
  if (c == EOF) return true;
  std::ungetc(c, file_);
  return false;
}

Status SequentialFileReader::Close() {
  if (file_ == nullptr) return Status::OK();
  std::fclose(file_);
  file_ = nullptr;
  std::free(read_ahead_buf_);
  read_ahead_buf_ = nullptr;
  return Status::OK();
}

}  // namespace calcdb
