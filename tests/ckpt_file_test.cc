// Tests for the checkpoint file format, the checkpoint storage/manifest,
// the dirty-key trackers, and the partial-checkpoint merger.

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "checkpoint/ckpt_file.h"
#include "checkpoint/ckpt_storage.h"
#include "checkpoint/dirty_tracker.h"
#include "checkpoint/merger.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/clock.h"
#include "util/rng.h"

namespace calcdb {
namespace {

using testing_util::TempDir;

TEST(CheckpointFileTest, WriteReadRoundtrip) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(
      writer.Open(path, CheckpointType::kFull, 3, 77, 0).ok());
  ASSERT_TRUE(writer.Append(1, "one").ok());
  ASSERT_TRUE(writer.Append(2, std::string(1000, 'x')).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.entries_written(), 2u);

  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.type(), CheckpointType::kFull);
  EXPECT_EQ(reader.id(), 3u);
  EXPECT_EQ(reader.vpoc_lsn(), 77u);
  std::vector<CheckpointEntry> entries;
  ASSERT_TRUE(reader
                  .ReadAll([&](const CheckpointEntry& e) -> Status {
                    entries.push_back(e);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, 1u);
  EXPECT_EQ(entries[0].value, "one");
  EXPECT_EQ(entries[1].value.size(), 1000u);
}

TEST(CheckpointFileTest, Tombstones) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(
      writer.Open(path, CheckpointType::kPartial, 1, 0, 0).ok());
  ASSERT_TRUE(writer.Append(5, "alive").ok());
  ASSERT_TRUE(writer.AppendTombstone(6).ok());
  ASSERT_TRUE(writer.Finish().ok());

  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  int values = 0, tombstones = 0;
  ASSERT_TRUE(reader
                  .ReadAll([&](const CheckpointEntry& e) -> Status {
                    if (e.tombstone) {
                      ++tombstones;
                      EXPECT_EQ(e.key, 6u);
                    } else {
                      ++values;
                    }
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(values, 1);
  EXPECT_EQ(tombstones, 1);
}

TEST(CheckpointFileTest, TruncatedFileRejected) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kFull, 1, 0, 0).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.Append(static_cast<uint64_t>(i), "vvvv").ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  // Truncate: simulate a crash mid-checkpoint.
  ASSERT_EQ(truncate(path.c_str(), 200), 0);
  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Status st = reader.ReadAll(
      [](const CheckpointEntry&) -> Status { return Status::OK(); });
  EXPECT_FALSE(st.ok());
}

TEST(CheckpointFileTest, CorruptedPayloadRejected) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kFull, 1, 0, 0).ok());
  ASSERT_TRUE(writer.Append(1, "payload-payload").ok());
  ASSERT_TRUE(writer.Finish().ok());
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 45, SEEK_SET);  // inside the entry payload
  int c = fgetc(f);
  fseek(f, 45, SEEK_SET);
  fputc(c ^ 0x5a, f);
  fclose(f);
  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Status st = reader.ReadAll(
      [](const CheckpointEntry&) -> Status { return Status::OK(); });
  EXPECT_TRUE(st.IsCorruption());
}

TEST(CheckpointFileTest, BadMagicRejected) {
  TempDir dir;
  std::string path = dir.path() + "/notackpt";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("garbage garbage garbage garbage", f);
  fclose(f);
  CheckpointFileReader reader;
  EXPECT_TRUE(reader.Open(path).IsCorruption());
}

std::string ReadFileBytes(const std::string& path) {
  std::string out;
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  fclose(f);
  return out;
}

void WriteFixture(const std::string& path,
                  const CheckpointWriterOptions& options) {
  CheckpointFileWriter writer;
  ASSERT_TRUE(
      writer.Open(path, CheckpointType::kFull, 9, 42, options).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(writer
                    .Append(static_cast<uint64_t>(i),
                            std::string(static_cast<size_t>(i % 97), 'v'))
                    .ok());
  }
  ASSERT_TRUE(writer.AppendTombstone(1000).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.entries_written(), 501u);
}

TEST(CheckpointFileTest, EntriesSpanManyBlockSeals) {
  // The writer seals a block once it reaches 256 KiB. Write more than
  // three blocks' worth of entries with uneven sizes, so entries land on
  // both sides of several seals, then read every one back through the
  // footer's CRC check.
  constexpr uint64_t kBlock = 256 * 1024;
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  auto value_for = [](uint64_t key) {
    return std::string(static_cast<size_t>(key * 37 % 3001),
                       static_cast<char>('a' + key % 26));
  };
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kPartial, 5, 99, 0).ok());
  uint64_t key = 0;
  while (writer.bytes_written() < 3 * kBlock + kBlock / 2) {
    if (key % 11 == 10) {
      ASSERT_TRUE(writer.AppendTombstone(key).ok());
    } else {
      ASSERT_TRUE(writer.Append(key, value_for(key)).ok());
    }
    ++key;
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.entries_written(), key);
  EXPECT_EQ(ReadFileBytes(path).size(), writer.bytes_written());

  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.type(), CheckpointType::kPartial);
  EXPECT_EQ(reader.id(), 5u);
  EXPECT_EQ(reader.vpoc_lsn(), 99u);
  uint64_t expected = 0;
  ASSERT_TRUE(reader
                  .ReadAll([&](const CheckpointEntry& entry) -> Status {
                    EXPECT_EQ(entry.key, expected);
                    EXPECT_EQ(entry.tombstone, expected % 11 == 10);
                    if (!entry.tombstone) {
                      EXPECT_EQ(entry.value, value_for(expected));
                    }
                    ++expected;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(expected, key);
}

TEST(CheckpointFileTest, Crc32cRoundtripAndCorruptionDetection) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt_v2";
  CheckpointWriterOptions options;
  options.checksum = ChecksumKind::kCrc32c;
  WriteFixture(path, options);

  CheckpointFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint64_t entries = 0;
  ASSERT_TRUE(reader
                  .ReadAll([&](const CheckpointEntry&) -> Status {
                    ++entries;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(entries, 501u);

  // Flip one payload byte: the v2 (CRC32C) footer must catch it.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 200, SEEK_SET);
  int c = fgetc(f);
  fseek(f, 200, SEEK_SET);
  fputc(c ^ 0x5a, f);
  fclose(f);
  CheckpointFileReader corrupt_reader;
  ASSERT_TRUE(corrupt_reader.Open(path).ok());
  Status st = corrupt_reader.ReadAll(
      [](const CheckpointEntry&) -> Status { return Status::OK(); });
  EXPECT_TRUE(st.IsCorruption());
}

TEST(CheckpointFileTest, UnsupportedVersionRejected) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kFull, 1, 0, 0).ok());
  ASSERT_TRUE(writer.Append(1, "v").ok());
  ASSERT_TRUE(writer.Finish().ok());
  // Bump the version field (right after the 8-byte magic) past anything
  // this build understands.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 8, SEEK_SET);
  fputc(0x7f, f);
  fclose(f);
  CheckpointFileReader reader;
  EXPECT_TRUE(reader.Open(path).IsCorruption());
}

// Reads every entry of `path` and returns the status the scan ended with
// (OK only when the footer validated).
Status ScanFile(const std::string& path) {
  CheckpointFileReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path));
  return reader.Scan(
      [](const CheckpointEntryView&) -> Status { return Status::OK(); });
}

void TruncateTo(const std::string& path, uint64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size)), 0);
}

// The reader decodes 1 MiB blocks in place. Entries of every size land
// across block boundaries, and one value is larger than a whole block;
// Scan and ReadAll must both return exactly what was written.
TEST(CheckpointFileTest, BlockDecoderStraddlesBlocksAndLargeValues) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  constexpr size_t kBlock = 1 << 20;
  std::vector<CheckpointEntry> written;
  Rng rng(5);
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kPartial, 4, 8, 0).ok());
  for (uint64_t key = 0; writer.bytes_written() < 3 * kBlock; ++key) {
    CheckpointEntry e;
    e.key = key;
    e.tombstone = rng.Uniform(9) == 0;
    if (!e.tombstone) {
      size_t len = key == 2000 ? kBlock + kBlock / 3  // larger than a block
                               : static_cast<size_t>(rng.Uniform(700));
      e.value = std::string(len, static_cast<char>('a' + key % 26));
      if (len > 0) e.value[len / 2] = static_cast<char>(key);
    }
    ASSERT_TRUE((e.tombstone ? writer.AppendTombstone(e.key)
                             : writer.Append(e.key, e.value))
                    .ok());
    written.push_back(std::move(e));
  }
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_GT(written.size(), 2000u);

  auto same = [&](size_t i, uint64_t key, bool tombstone,
                  std::string_view value) {
    ASSERT_LT(i, written.size());
    EXPECT_EQ(key, written[i].key);
    EXPECT_EQ(tombstone, written[i].tombstone);
    EXPECT_TRUE(value == written[i].value) << "entry " << i;
  };
  {
    CheckpointFileReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    size_t i = 0;
    ASSERT_TRUE(reader
                    .Scan([&](const CheckpointEntryView& e) -> Status {
                      same(i++, e.key, e.tombstone, e.value);
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(i, written.size());
  }
  {
    CheckpointFileReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    size_t i = 0;
    ASSERT_TRUE(reader
                    .ReadAll([&](const CheckpointEntry& e) -> Status {
                      same(i++, e.key, e.tombstone, e.value);
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(i, written.size());
  }

  // Cut inside the large value and around the block boundaries: torn.
  uint64_t size = testing_util::FileSize(path);
  for (uint64_t cut : {uint64_t{kBlock - 1}, uint64_t{kBlock},
                       uint64_t{kBlock + 1}, uint64_t{2 * kBlock + 3},
                       size - 1}) {
    std::string copy = dir.path() + "/cut";
    std::string bytes = ReadFileBytes(path);
    FILE* f = fopen(copy.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite(bytes.data(), 1, cut, f), cut);
    fclose(f);
    EXPECT_TRUE(ScanFile(copy).IsIOError()) << "cut at " << cut;
  }
}

// A file cut anywhere in its last 64 KiB is torn (IOError), never
// Corruption, never a crash. Every offset of the last 2 KiB (the last
// entries and the footer) is cut; the rest of the 64 KiB at a stride
// that lands in every part of an entry.
TEST(CheckpointFileTest, BlockDecoderTruncationIsTorn) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  CheckpointFileWriter writer;
  ASSERT_TRUE(writer.Open(path, CheckpointType::kPartial, 1, 0, 0).ok());
  for (uint64_t key = 0; writer.bytes_written() < 72 * 1024; ++key) {
    ASSERT_TRUE((key % 7 == 3 ? writer.AppendTombstone(key)
                              : writer.Append(key, std::string(key % 61, 'x')))
                    .ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  uint64_t size = testing_util::FileSize(path);
  ASSERT_TRUE(ScanFile(path).ok());
  // Shrinking one file in place visits the cuts from the end down.
  for (uint64_t cut = size - 1; cut + 64 * 1024 >= size;
       cut -= cut + 2 * 1024 >= size ? 1 : 37) {
    TruncateTo(path, cut);
    Status st = ScanFile(path);
    ASSERT_TRUE(st.IsIOError()) << "cut at " << cut << ": " << st.ToString();
  }
}

// Any flipped byte after the header fails the scan without a crash, and
// a flipped key or value byte is Corruption (the CRC covers them).
TEST(CheckpointFileTest, BlockDecoderFlippedByteIsCorruption) {
  TempDir dir;
  std::string path = dir.path() + "/ckpt";
  constexpr uint64_t kHeader = 29;
  std::vector<bool> crc_covered;  // by file offset: key or value byte
  {
    CheckpointFileWriter writer;
    ASSERT_TRUE(writer.Open(path, CheckpointType::kPartial, 1, 0, 0).ok());
    crc_covered.assign(kHeader, false);
    for (uint64_t key = 0; key < 60; ++key) {
      if (key % 5 == 4) {
        ASSERT_TRUE(writer.AppendTombstone(key).ok());
        crc_covered.insert(crc_covered.end(), 8, true);   // key
        crc_covered.push_back(false);                     // flags
      } else {
        std::string value(key % 23, static_cast<char>('A' + key % 26));
        ASSERT_TRUE(writer.Append(key, value).ok());
        crc_covered.insert(crc_covered.end(), 8, true);   // key
        crc_covered.insert(crc_covered.end(), 5, false);  // flags, len
        crc_covered.insert(crc_covered.end(), value.size(), true);
      }
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  const std::string good = ReadFileBytes(path);
  ASSERT_EQ(good.size(), crc_covered.size() + 21);  // + footer
  std::string flipped = dir.path() + "/flipped";
  for (uint64_t off = kHeader; off < good.size(); ++off) {
    std::string bytes = good;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x5a);
    FILE* f = fopen(flipped.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);
    Status st = ScanFile(flipped);
    EXPECT_FALSE(st.ok()) << "flip at " << off;
    bool covered = off < crc_covered.size() ? crc_covered[off]
                                            : off >= good.size() - 12;
    if (covered) {  // a key/value byte, or the footer's count or crc
      EXPECT_TRUE(st.IsCorruption()) << "flip at " << off << ": "
                                     << st.ToString();
    }
  }
}

TEST(CheckpointStorageTest, RegisterListAndChain) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  EXPECT_EQ(storage.NextId(), 1u);
  EXPECT_EQ(storage.NextId(), 2u);

  auto reg = [&](uint64_t id, CheckpointType type) {
    CheckpointInfo info;
    info.id = id;
    info.type = type;
    info.vpoc_lsn = id * 10;
    info.path = storage.PathFor(id, type);
    storage.Register(info);
  };
  reg(1, CheckpointType::kFull);
  reg(2, CheckpointType::kPartial);
  reg(3, CheckpointType::kPartial);
  reg(4, CheckpointType::kFull);
  reg(5, CheckpointType::kPartial);

  std::vector<CheckpointInfo> chain = storage.RecoveryChain();
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].id, 4u);
  EXPECT_EQ(chain[1].id, 5u);
}

TEST(CheckpointStorageTest, ChainWithoutFullReturnsAllPartials) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  CheckpointInfo info;
  info.id = 1;
  info.type = CheckpointType::kPartial;
  info.path = storage.PathFor(1, info.type);
  storage.Register(info);
  info.id = 2;
  storage.Register(info);
  EXPECT_EQ(storage.RecoveryChain().size(), 2u);
}

TEST(CheckpointStorageTest, ManifestPersistsAcrossInstances) {
  TempDir dir;
  {
    CheckpointStorage storage(dir.path(), 0);
    ASSERT_TRUE(storage.Init().ok());
    CheckpointInfo info;
    info.id = 9;
    info.type = CheckpointType::kFull;
    info.vpoc_lsn = 1234;
    info.num_entries = 42;
    info.path = storage.PathFor(9, info.type);
    storage.Register(info);
    ASSERT_TRUE(storage.PersistManifest().ok());
  }
  CheckpointStorage reloaded(dir.path(), 0);
  ASSERT_TRUE(reloaded.Init().ok());
  ASSERT_TRUE(reloaded.LoadManifest().ok());
  std::vector<CheckpointInfo> list = reloaded.List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].id, 9u);
  EXPECT_EQ(list[0].vpoc_lsn, 1234u);
  EXPECT_EQ(list[0].num_entries, 42u);
  // Ids continue after the reloaded maximum.
  EXPECT_EQ(reloaded.NextId(), 10u);
}

TEST(DirtyTrackerTest, MarkTestClearAllKinds) {
  for (DirtyTrackerKind kind :
       {DirtyTrackerKind::kBitVector, DirtyTrackerKind::kHashSet,
        DirtyTrackerKind::kBloom}) {
    DirtyKeyTracker tracker(kind, 10000);
    tracker.Mark(17);
    tracker.Mark(9000);
    EXPECT_TRUE(tracker.Test(17));
    EXPECT_TRUE(tracker.Test(9000));
    if (kind != DirtyTrackerKind::kBloom) {
      EXPECT_FALSE(tracker.Test(18));
      EXPECT_EQ(tracker.Count(), 2u);
    }
    tracker.Clear();
    EXPECT_FALSE(tracker.Test(17));
  }
}

TEST(DirtyTrackerTest, ForEachAscendingAndComplete) {
  for (DirtyTrackerKind kind :
       {DirtyTrackerKind::kBitVector, DirtyTrackerKind::kHashSet}) {
    DirtyKeyTracker tracker(kind, 1000);
    std::set<uint32_t> expect = {3, 70, 500, 999};
    for (uint32_t idx : expect) tracker.Mark(idx);
    std::vector<uint32_t> seen;
    tracker.ForEach(1000, [&](uint32_t idx) { seen.push_back(idx); });
    ASSERT_EQ(seen.size(), expect.size());
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    for (uint32_t idx : seen) EXPECT_TRUE(expect.count(idx));
  }
}

TEST(DirtyTrackerTest, ForEachHonorsLimit) {
  DirtyKeyTracker tracker(DirtyTrackerKind::kBitVector, 1000);
  tracker.Mark(5);
  tracker.Mark(900);
  int count = 0;
  tracker.ForEach(100, [&](uint32_t idx) {
    EXPECT_LT(idx, 100u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(DirtyTrackerTest, BloomSupersetSemantics) {
  DirtyKeyTracker tracker(DirtyTrackerKind::kBloom, 100000);
  std::set<uint32_t> marked;
  for (uint32_t i = 0; i < 500; ++i) {
    marked.insert(i * 97);
    tracker.Mark(i * 97);
  }
  // ForEach must visit a superset of the marked indexes.
  std::set<uint32_t> seen;
  tracker.ForEach(100000, [&](uint32_t idx) { seen.insert(idx); });
  for (uint32_t idx : marked) EXPECT_TRUE(seen.count(idx));
}

TEST(DirtyTrackerTest, MemoryBytesRanking) {
  // The paper's §2.3 sizing argument: the Bloom filter is smaller than
  // the bit vector, which is ~0.25% of a 50-byte-record database.
  DirtyKeyTracker bits(DirtyTrackerKind::kBitVector, 1 << 20);
  DirtyKeyTracker bloom(DirtyTrackerKind::kBloom, 1 << 20);
  EXPECT_EQ(bits.MemoryBytes(), (1u << 20) / 8);
  EXPECT_LT(bloom.MemoryBytes(), bits.MemoryBytes());
}

TEST(MergerTest, CollapseMergesLatestWins) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());

  auto write_ckpt = [&](uint64_t id, CheckpointType type,
                        std::vector<CheckpointEntry> entries,
                        uint64_t vpoc) {
    CheckpointInfo info;
    info.id = id;
    info.type = type;
    info.vpoc_lsn = vpoc;
    info.path = storage.PathFor(id, type);
    CheckpointFileWriter writer;
    ASSERT_TRUE(
        writer.Open(info.path, type, id, vpoc, 0).ok());
    for (const CheckpointEntry& e : entries) {
      if (e.tombstone) {
        ASSERT_TRUE(writer.AppendTombstone(e.key).ok());
      } else {
        ASSERT_TRUE(writer.Append(e.key, e.value).ok());
      }
    }
    ASSERT_TRUE(writer.Finish().ok());
    info.num_entries = writer.entries_written();
    storage.Register(info);
  };

  write_ckpt(1, CheckpointType::kFull,
             {{1, false, "a1"}, {2, false, "b1"}, {3, false, "c1"}}, 10);
  write_ckpt(2, CheckpointType::kPartial,
             {{2, false, "b2"}, {4, false, "d2"}}, 20);
  write_ckpt(3, CheckpointType::kPartial,
             {{3, true, ""}, {4, false, "d3"}}, 30);

  CheckpointMerger merger(&storage);
  bool did_merge = false;
  ASSERT_TRUE(merger.CollapseOnce(10, &did_merge).ok());
  EXPECT_TRUE(did_merge);
  EXPECT_EQ(merger.merges_done(), 1u);

  std::vector<CheckpointInfo> chain = storage.RecoveryChain();
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].type, CheckpointType::kFull);
  EXPECT_EQ(chain[0].id, 3u);        // adopts the last input's id
  EXPECT_EQ(chain[0].vpoc_lsn, 30u);  // and its point of consistency

  testing_util::StateMap merged;
  ASSERT_TRUE(testing_util::ChainToMap(chain, &merged).ok());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[1], "a1");
  EXPECT_EQ(merged[2], "b2");
  EXPECT_EQ(merged[4], "d3");
  EXPECT_EQ(merged.count(3), 0u);  // tombstoned
}

TEST(MergerTest, CollapseRespectsBatchLimit) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  auto write_simple = [&](uint64_t id, CheckpointType type) {
    CheckpointInfo info;
    info.id = id;
    info.type = type;
    info.vpoc_lsn = id;
    info.path = storage.PathFor(id, type);
    CheckpointFileWriter writer;
    ASSERT_TRUE(writer.Open(info.path, type, id, id, 0).ok());
    ASSERT_TRUE(writer.Append(id, "v" + std::to_string(id)).ok());
    ASSERT_TRUE(writer.Finish().ok());
    info.num_entries = 1;
    storage.Register(info);
  };
  write_simple(1, CheckpointType::kFull);
  for (uint64_t id = 2; id <= 6; ++id) {
    write_simple(id, CheckpointType::kPartial);
  }
  CheckpointMerger merger(&storage);
  bool did_merge = false;
  ASSERT_TRUE(merger.CollapseOnce(2, &did_merge).ok());
  EXPECT_TRUE(did_merge);
  // 1+2+3 collapsed into full@3; partials 4,5,6 remain.
  std::vector<CheckpointInfo> chain = storage.RecoveryChain();
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0].id, 3u);
  EXPECT_EQ(chain[0].type, CheckpointType::kFull);
  testing_util::StateMap merged;
  ASSERT_TRUE(testing_util::ChainToMap(chain, &merged).ok());
  EXPECT_EQ(merged.size(), 6u);
}

// StopBackground wakes the poll wait instead of sleeping it out.
TEST(MergerTest, StopBackgroundDoesNotWaitOutThePoll) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  CheckpointMerger merger(&storage);
  merger.StartBackground(/*trigger_batch=*/1, /*poll_ms=*/1000);
  SleepMicros(50 * 1000);  // let the thread reach its wait
  Stopwatch sw;
  merger.StopBackground();
  EXPECT_LT(sw.ElapsedMicros(), 100 * 1000);
}

TEST(MergerTest, NothingToMerge) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  CheckpointMerger merger(&storage);
  bool did_merge = true;
  ASSERT_TRUE(merger.CollapseOnce(4, &did_merge).ok());
  EXPECT_FALSE(did_merge);
}

}  // namespace
}  // namespace calcdb
