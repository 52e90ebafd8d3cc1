#ifndef CALCDB_CHECKPOINT_CKPT_FILE_H_
#define CALCDB_CHECKPOINT_CKPT_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.h"
#include "util/status.h"
#include "util/throttled_file.h"

namespace calcdb {

/// Whether a checkpoint contains the complete database or only records
/// changed since the previous checkpoint (paper §2.3).
enum class CheckpointType : uint8_t {
  kFull = 0,
  kPartial = 1,
};

/// On-disk checkpoint file layout:
///
///   header : magic(8) version(u32) type(u8) id(u64) vpoc_lsn(u64)
///   entry* : key(u64) flags(u8) [len(u32) bytes]      (flags bit0 = tombstone)
///   footer : sentinel key(0xFFFFFFFFFFFFFFFF) flags(0xFF)
///            count(u64) crc32(u32)   (crc over all entry bytes)
///
/// version 1 checksums entry bytes with CRC-32/ISO-HDLC; version 2 is the
/// same byte layout with CRC-32C (hardware-accelerated where the CPU has
/// the instruction). The reader dispatches on the header version, so both
/// generations of files verify.
///
/// Tombstone entries appear only in partial checkpoints; they record
/// deletions so that merging partials does not resurrect dead keys.
///
/// These constants are shared by the writer, the reader and the fork
/// child's allocation-free writer (fork_snapshot.cc).
namespace ckpt_format {
inline constexpr char kMagic[8] = {'C', 'A', 'L', 'C', 'K', 'P', 'T', '1'};
inline constexpr uint32_t kVersionCrc32 = 1;   ///< entry crc = CRC-32
inline constexpr uint32_t kVersionCrc32c = 2;  ///< entry crc = CRC-32C
inline constexpr uint64_t kFooterKey = ~uint64_t{0};
inline constexpr uint8_t kFooterFlags = 0xFF;
inline constexpr uint8_t kTombstoneFlag = 0x01;
}  // namespace ckpt_format

/// One checkpoint entry, owning its value.
struct CheckpointEntry {
  uint64_t key = 0;
  bool tombstone = false;
  std::string value;
};

/// How a CheckpointFileWriter ships and checksums its blocks. The
/// default writes format v1 (CRC-32), the engine's on-disk format.
struct CheckpointWriterOptions {
  /// Shared bandwidth budget; null means unthrottled.
  std::shared_ptr<TokenBucket> budget;

  /// kCrc32 writes format v1 (seed-compatible); kCrc32c writes v2.
  ChecksumKind checksum = ChecksumKind::kCrc32;
};

/// Sequential checkpoint writer. Entries are serialized into 256 KiB
/// in-memory blocks and checksummed with one bulk CRC per entry; each
/// full block goes to a bandwidth-throttled file (see
/// ThrottledFileWriter) as one append, on the caller's thread, so
/// checkpoint capture is disk-bandwidth-bound, as in the paper's testbed
/// ("the recording of a checkpoint is limited by disk bandwidth").
class CheckpointFileWriter {
 public:
  CheckpointFileWriter() = default;
  CheckpointFileWriter(const CheckpointFileWriter&) = delete;
  CheckpointFileWriter& operator=(const CheckpointFileWriter&) = delete;

  /// Creates `path` and writes the header; see CheckpointWriterOptions.
  /// The engine opens every writer with CheckpointStorage::
  /// writer_options(), so all checkpoint writers share one budget.
  [[nodiscard]] Status Open(const std::string& path, CheckpointType type,
                            uint64_t id, uint64_t vpoc_lsn,
                            CheckpointWriterOptions options);

  [[nodiscard]] Status Append(uint64_t key, std::string_view value);
  [[nodiscard]] Status AppendTombstone(uint64_t key);

  /// Writes the footer and the last block, fsyncs and closes. The
  /// checkpoint is durable and loadable only after Finish succeeds — a
  /// crash mid-write leaves a file the reader rejects.
  [[nodiscard]] Status Finish();

  uint64_t entries_written() const { return count_; }

  /// Bytes serialized so far (equals the file size once Finish
  /// returns).
  uint64_t bytes_written() const { return bytes_out_ + block_.size(); }

 private:
  // Fires the ckpt_file.block probe, writes the filled block_ to the
  // file and leaves block_ empty with capacity.
  [[nodiscard]] Status SealBlock();
  // Serializer: appends raw bytes to block_, sealing when it fills.
  [[nodiscard]] Status BlockAppend(const void* data, size_t n);

  ThrottledFileWriter writer_;
  ChecksumKind checksum_ = ChecksumKind::kCrc32;
  uint64_t count_ = 0;
  uint32_t crc_ = 0;
  std::string block_;       // block being filled
  uint64_t bytes_out_ = 0;  // bytes sealed out of block_
};

/// One decoded entry, viewing the reader's block buffer: `value` is
/// valid only until the reader's next call.
struct CheckpointEntryView {
  uint64_t key = 0;
  bool tombstone = false;
  std::string_view value;
};

/// Sequential checkpoint reader; validates the footer count and checksum
/// with the checksum kind the file's header version names.
///
/// The file is read in fixed 1 MiB blocks and entries are decoded in
/// place, with length and bounds checks. The checksum covers each
/// contiguous run of entry bytes in a block with one call. An entry that
/// straddles a block boundary is carried into the next block; an entry
/// larger than a block grows the buffer for that entry only. So an open
/// reader holds one block, never the whole file.
///
/// Errors: a short read (torn or missing file) is IOError; a count or
/// checksum mismatch at the footer, a bad magic or version, or an
/// impossible entry length is Corruption.
class CheckpointFileReader {
 public:
  CheckpointFileReader() = default;
  CheckpointFileReader(const CheckpointFileReader&) = delete;
  CheckpointFileReader& operator=(const CheckpointFileReader&) = delete;

  /// Opens `path` and decodes its header.
  [[nodiscard]] Status Open(const std::string& path);

  CheckpointType type() const { return type_; }
  uint64_t id() const { return id_; }
  uint64_t vpoc_lsn() const { return vpoc_lsn_; }

  /// Calls `fn(const CheckpointEntryView&) -> Status` on every entry and
  /// validates the footer. `fn` returning non-OK aborts the scan.
  template <typename Fn>
  [[nodiscard]] Status Scan(Fn&& fn) {
    std::vector<CheckpointEntryView> batch;
    bool eof = false;
    for (;;) {
      CALCDB_RETURN_NOT_OK(NextBatch(&batch, &eof));
      if (eof) return Status::OK();
      for (const CheckpointEntryView& entry : batch) {
        CALCDB_RETURN_NOT_OK(fn(entry));
      }
    }
  }

  /// Convenience: Scan with owning entries.
  [[nodiscard]] Status ReadAll(
      const std::function<Status(const CheckpointEntry&)>& fn);

 private:
  // The one decoder every scan goes through: decodes, in place, the
  // entries that are complete in the current block (at most a fixed
  // number), reading the next block first when none is. Sets `*eof`,
  // with an empty batch, when the (validated) footer is reached. The
  // views stay valid until the next call.
  [[nodiscard]] Status NextBatch(std::vector<CheckpointEntryView>* batch,
                                 bool* eof);

  // Makes at least `need` bytes available from pos_ (the start of the
  // entry being decoded): checksums the finished run before pos_, moves
  // the partial entry to the front of the block and reads behind it.
  // IOError on a short read.
  [[nodiscard]] Status Fill(size_t need);

  SequentialFileReader file_;
  std::string path_;
  CheckpointType type_ = CheckpointType::kFull;
  ChecksumKind checksum_ = ChecksumKind::kCrc32;
  uint64_t id_ = 0;
  uint64_t vpoc_lsn_ = 0;
  uint64_t count_seen_ = 0;
  uint32_t crc_ = 0;

  std::unique_ptr<char[]> buf_;
  size_t cap_ = 0;        // bytes allocated at buf_
  size_t end_ = 0;        // bytes of the file held in buf_
  size_t pos_ = 0;        // decode position in buf_
  size_t crc_from_ = 0;   // start of the run not yet checksummed
  uint64_t buf_offset_ = 0;  // file offset of buf_[0]
};

}  // namespace calcdb

#endif  // CALCDB_CHECKPOINT_CKPT_FILE_H_
