#include "checkpoint/ckpt_file.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/obs.h"
#include "util/fault_injection.h"

namespace calcdb {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'L', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kVersionCrc32 = 1;   ///< entry crc = CRC-32/ISO-HDLC
constexpr uint32_t kVersionCrc32c = 2;  ///< entry crc = CRC-32C
constexpr uint64_t kFooterKey = ~uint64_t{0};
constexpr uint8_t kFooterFlags = 0xFF;
constexpr uint8_t kTombstoneFlag = 0x01;

// Serialization block size: entries accumulate in an in-memory block
// until it reaches this size, then the whole block goes to the file as
// one append (one token charge + one write instead of four per record).
// Never changes the byte stream, only the append granularity.
constexpr size_t kBlockBytes = 256 * 1024;

// Read block size: the reader decodes entries in place from one block
// of this size (see CheckpointFileReader).
constexpr size_t kReadBlockBytes = 1 << 20;

constexpr size_t kHeaderBytes = 8 + 4 + 1 + 8 + 8;  // magic .. vpoc_lsn
constexpr size_t kEntryHeadBytes = 8 + 1;            // key, flags
constexpr size_t kFooterBytes = kEntryHeadBytes + 8 + 4;  // + count, crc
constexpr uint32_t kMaxValueBytes = 1u << 30;

// Entries per decoded batch: bounds the view vector (a 1 MiB block of
// 9-byte tombstones would otherwise need 116k views).
constexpr size_t kBatchEntries = 1024;

}  // namespace

Status CheckpointFileWriter::Open(const std::string& path,
                                  CheckpointType type, uint64_t id,
                                  uint64_t vpoc_lsn,
                                  uint64_t max_bytes_per_sec) {
  CheckpointWriterOptions options;
  if (max_bytes_per_sec != 0) {
    options.budget = std::make_shared<TokenBucket>(max_bytes_per_sec);
  }
  return Open(path, type, id, vpoc_lsn, std::move(options));
}

Status CheckpointFileWriter::Open(const std::string& path,
                                  CheckpointType type, uint64_t id,
                                  uint64_t vpoc_lsn,
                                  std::shared_ptr<TokenBucket> budget) {
  CheckpointWriterOptions options;
  options.budget = std::move(budget);
  return Open(path, type, id, vpoc_lsn, std::move(options));
}

Status CheckpointFileWriter::Open(const std::string& path,
                                  CheckpointType type, uint64_t id,
                                  uint64_t vpoc_lsn,
                                  CheckpointWriterOptions options) {
  CALCDB_RETURN_NOT_OK(writer_.Open(path, std::move(options.budget)));
  checksum_ = options.checksum;
  count_ = 0;
  crc_ = 0;
  bytes_out_ = 0;
  block_.clear();
  block_.reserve(kBlockBytes);
  // A crash here leaves an empty (headerless) file: recovery must reject
  // it as torn, not corrupt.
  CALCDB_FAULT_POINT("ckpt_file.header");
  block_.append(kMagic, sizeof(kMagic));
  uint32_t version = checksum_ == ChecksumKind::kCrc32c
                         ? kVersionCrc32c
                         : kVersionCrc32;
  block_.append(reinterpret_cast<const char*>(&version), sizeof(version));
  uint8_t t = static_cast<uint8_t>(type);
  block_.append(reinterpret_cast<const char*>(&t), sizeof(t));
  block_.append(reinterpret_cast<const char*>(&id), sizeof(id));
  block_.append(reinterpret_cast<const char*>(&vpoc_lsn),
                sizeof(vpoc_lsn));
  if (block_.size() >= kBlockBytes) return SealBlock();
  return Status::OK();
}

Status CheckpointFileWriter::SealBlock() {
  if (block_.empty()) return Status::OK();
  bytes_out_ += block_.size();
  Status st = CALCDB_FAULT_STATUS("ckpt_file.block");
  if (st.ok()) st = writer_.Append(block_.data(), block_.size());
  block_.clear();
  return st;
}

Status CheckpointFileWriter::BlockAppend(const void* data, size_t n) {
  block_.append(static_cast<const char*>(data), n);
  if (block_.size() >= kBlockBytes) return SealBlock();
  return Status::OK();
}

Status CheckpointFileWriter::Append(uint64_t key, std::string_view value) {
  CALCDB_FAULT_POINT("ckpt_file.body");
  // Serialize the whole entry contiguously into the block, then checksum
  // it with one bulk CRC call — the entry never splits across a seal, so
  // the hot loop is one table-driven (or hardware) pass per record.
  size_t entry_start = block_.size();
  block_.append(reinterpret_cast<const char*>(&key), sizeof(key));
  uint8_t flags = 0;
  block_.append(reinterpret_cast<const char*>(&flags), sizeof(flags));
  uint32_t len = static_cast<uint32_t>(value.size());
  block_.append(reinterpret_cast<const char*>(&len), sizeof(len));
  block_.append(value.data(), value.size());
  crc_ = ChecksumRun(checksum_, block_.data() + entry_start,
                     block_.size() - entry_start, crc_);
  ++count_;
  if (block_.size() >= kBlockBytes) return SealBlock();
  return Status::OK();
}

Status CheckpointFileWriter::AppendTombstone(uint64_t key) {
  CALCDB_FAULT_POINT("ckpt_file.body");
  size_t entry_start = block_.size();
  block_.append(reinterpret_cast<const char*>(&key), sizeof(key));
  uint8_t flags = kTombstoneFlag;
  block_.append(reinterpret_cast<const char*>(&flags), sizeof(flags));
  crc_ = ChecksumRun(checksum_, block_.data() + entry_start,
                     block_.size() - entry_start, crc_);
  ++count_;
  if (block_.size() >= kBlockBytes) return SealBlock();
  return Status::OK();
}

Status CheckpointFileWriter::Finish() {
  // Dying before the footer leaves a torn-but-headered file; dying after
  // the footer but before Close's fsync leaves a file whose bytes may or
  // may not have reached disk — either way recovery must fall back to
  // the previous chain, never report Corruption.
  CALCDB_FAULT_POINT("ckpt_file.footer");
  CALCDB_RETURN_NOT_OK(BlockAppend(&kFooterKey, sizeof(kFooterKey)));
  CALCDB_RETURN_NOT_OK(BlockAppend(&kFooterFlags, sizeof(kFooterFlags)));
  CALCDB_RETURN_NOT_OK(BlockAppend(&count_, sizeof(count_)));
  CALCDB_RETURN_NOT_OK(BlockAppend(&crc_, sizeof(crc_)));
  Status st = SealBlock();
  if (!st.ok()) {
    // calcdb-status-ignored: the first error wins; Close here is cleanup
    // of a checkpoint that will be discarded.
    (void)writer_.Close();
    return st;
  }
  CALCDB_FAULT_POINT("ckpt_file.fsync");
  return writer_.Close();
}

Status CheckpointFileReader::Open(const std::string& path) {
  CALCDB_RETURN_NOT_OK(file_.OpenUnbuffered(path));
  path_ = path;
  cap_ = kReadBlockBytes;
  buf_.reset(new char[cap_]);
  end_ = pos_ = crc_from_ = 0;
  buf_offset_ = 0;
  // Field by field, so a short file with a bad magic or version is
  // Corruption, not torn.
  CALCDB_RETURN_NOT_OK(Fill(sizeof(kMagic)));
  if (std::memcmp(buf_.get(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad checkpoint magic: " + path);
  }
  uint32_t version;
  CALCDB_RETURN_NOT_OK(Fill(sizeof(kMagic) + sizeof(version)));
  std::memcpy(&version, buf_.get() + sizeof(kMagic), sizeof(version));
  if (version == kVersionCrc32) {
    checksum_ = ChecksumKind::kCrc32;
  } else if (version == kVersionCrc32c) {
    checksum_ = ChecksumKind::kCrc32c;
  } else {
    return Status::Corruption("unsupported checkpoint version");
  }
  CALCDB_RETURN_NOT_OK(Fill(kHeaderBytes));
  const char* p = buf_.get() + sizeof(kMagic) + sizeof(version);
  type_ = static_cast<CheckpointType>(static_cast<uint8_t>(p[0]));
  std::memcpy(&id_, p + 1, sizeof(id_));
  std::memcpy(&vpoc_lsn_, p + 1 + sizeof(id_), sizeof(vpoc_lsn_));
  pos_ = crc_from_ = kHeaderBytes;  // the header is not checksummed
  count_seen_ = 0;
  crc_ = 0;
  return Status::OK();
}

Status CheckpointFileReader::Fill(size_t need) {
  if (end_ - pos_ >= need) return Status::OK();
  char* buf = buf_.get();
  crc_ = ChecksumRun(checksum_, buf + crc_from_, pos_ - crc_from_, crc_);
  size_t carry = end_ - pos_;
  // One block, unless a single entry is larger; back to one block after.
  size_t cap = std::max(kReadBlockBytes, need);
  if (cap != cap_) {
    std::unique_ptr<char[]> grown(new char[cap]);
    std::memcpy(grown.get(), buf + pos_, carry);
    buf_ = std::move(grown);
    cap_ = cap;
  } else if (pos_ != 0) {
    std::memmove(buf, buf + pos_, carry);
  }
  buf_offset_ += pos_;
  pos_ = crc_from_ = 0;
  end_ = carry;
  while (end_ < need) {
    size_t got = 0;
    CALCDB_RETURN_NOT_OK(file_.Read(buf_.get() + end_, cap_ - end_, &got));
    if (got == 0) return Status::IOError("short read: " + path_);
    end_ += got;
  }
  return Status::OK();
}

Status CheckpointFileReader::NextBatch(
    std::vector<CheckpointEntryView>* batch, bool* eof) {
  batch->clear();
  *eof = false;
  for (;;) {
    // Decode every entry that is whole in the block; `need` is the size
    // of the first one that is not (or of the footer).
    size_t need = 0;
    bool footer = false;
    while (batch->size() < kBatchEntries) {
      const char* p = buf_.get() + pos_;
      size_t avail = end_ - pos_;
      if (avail < kEntryHeadBytes) {
        need = kEntryHeadBytes;
        break;
      }
      CheckpointEntryView entry;
      std::memcpy(&entry.key, p, sizeof(entry.key));
      uint8_t flags = static_cast<uint8_t>(p[8]);
      if (entry.key == kFooterKey && flags == kFooterFlags) {
        need = kFooterBytes;
        footer = true;
        break;
      }
      entry.tombstone = (flags & kTombstoneFlag) != 0;
      size_t size = kEntryHeadBytes;
      if (!entry.tombstone) {
        uint32_t len;
        if (avail < kEntryHeadBytes + sizeof(len)) {
          need = kEntryHeadBytes + sizeof(len);
          break;
        }
        std::memcpy(&len, p + kEntryHeadBytes, sizeof(len));
        if (len > kMaxValueBytes) {
          return Status::Corruption("entry too large");
        }
        size += sizeof(len) + len;
        if (avail < size) {
          need = size;
          break;
        }
        entry.value = std::string_view(p + size - len, len);
      }
      batch->push_back(entry);
      pos_ += size;
    }
    count_seen_ += batch->size();
    if (!batch->empty()) return Status::OK();
    // Nothing whole is left in the block, so no view points into it.
    CALCDB_RETURN_NOT_OK(Fill(need));
    if (footer) break;
  }

  // The footer ends the last run of entry bytes.
  const char* p = buf_.get() + pos_;
  crc_ =
      ChecksumRun(checksum_, buf_.get() + crc_from_, pos_ - crc_from_, crc_);
  uint64_t count;
  uint32_t crc;
  std::memcpy(&count, p + kEntryHeadBytes, sizeof(count));
  std::memcpy(&crc, p + kEntryHeadBytes + sizeof(count), sizeof(crc));
  pos_ += kFooterBytes;
  crc_from_ = pos_;
  if (count != count_seen_ || crc != crc_) {
    CALCDB_ERROR("ckpt.crc_mismatch", "ckpt", path_,
                 {"offset", static_cast<int64_t>(buf_offset_ + pos_)},
                 {"entries", static_cast<int64_t>(count_seen_)});
    return Status::Corruption(count != count_seen_
                                  ? "checkpoint entry count mismatch"
                                  : "checkpoint crc mismatch");
  }
  *eof = true;
  return Status::OK();
}

Status CheckpointFileReader::ReadAll(
    const std::function<Status(const CheckpointEntry&)>& fn) {
  CheckpointEntry entry;
  return Scan([&](const CheckpointEntryView& view) -> Status {
    entry.key = view.key;
    entry.tombstone = view.tombstone;
    entry.value.assign(view.value);
    return fn(entry);
  });
}

}  // namespace calcdb
