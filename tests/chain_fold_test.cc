// The apply-once chain fold (RecoveryManager::LoadCheckpoints): random
// chains of a base plus 1-8 partials, with puts, tombstones and
// re-inserts, written in the segment K = shard K layout, as legacy single
// files and as slot-sliced segments, must recover to the state of the
// chain applied in forward order, applying each distinct key once. Keys a
// store holds before recovery keep the forward-order outcome.
//
// The merger is the same fold plus the capture pipeline: a collapsed
// chain recovers to the unmerged chain's state, is laid out segment K =
// shard K, is byte-identical across runs, and leaves recovery's counters
// alone.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/ckpt_file.h"
#include "checkpoint/ckpt_storage.h"
#include "checkpoint/merger.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "recovery/recovery_manager.h"
#include "storage/sharded_store.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace calcdb {
namespace {

using testing_util::StateMap;
using testing_util::TempDir;

constexpr uint64_t kKeySpace = 300;
constexpr uint64_t kMaxRecords = 4096;

// One checkpoint's entries in write order; nullopt is a tombstone.
using Entries = std::vector<std::pair<uint64_t, std::optional<std::string>>>;

enum class Layout {
  kShardSegments,  // segment K = shard K of a `shards`-shard store
  kSingleFile,     // the legacy one-file checkpoint
  kSlotSliced,     // `shards` segments cut by position, not by shard
};

// Writes `entries` as checkpoint `id` in `layout` and registers it.
void WriteCheckpoint(CheckpointStorage* storage, uint64_t id,
                     CheckpointType type, const Entries& entries,
                     Layout layout, uint32_t shards) {
  CheckpointInfo info;
  info.id = id;
  info.type = type;
  info.vpoc_lsn = id * 10;
  info.path = storage->PathFor(id, type);
  size_t files = layout == Layout::kSingleFile ? 1 : shards;
  std::vector<Entries> parts(files);
  for (size_t i = 0; i < entries.size(); ++i) {
    size_t part = 0;
    if (layout == Layout::kShardSegments) {
      part = ShardedStore::ShardOfKey(entries[i].first, shards);
    } else if (layout == Layout::kSlotSliced) {
      part = i * files / entries.size();
    }
    parts[part].push_back(entries[i]);
  }
  for (size_t f = 0; f < files; ++f) {
    std::string path = layout == Layout::kSingleFile
                           ? info.path
                           : storage->SegmentPathFor(id, type, f);
    CheckpointFileWriter writer;
    ASSERT_TRUE(writer
                    .Open(path, type, id, info.vpoc_lsn,
                          storage->writer_options())
                    .ok());
    for (const auto& [key, value] : parts[f]) {
      ASSERT_TRUE((value.has_value() ? writer.Append(key, *value)
                                     : writer.AppendTombstone(key))
                      .ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    info.num_entries += writer.entries_written();
    if (layout != Layout::kSingleFile) info.segments.push_back(path);
  }
  storage->Register(info);
}

// A base full checkpoint over part of the key space plus 1-8 partials of
// random puts (new and re-inserted keys) and tombstones.
std::vector<Entries> RandomChain(Rng& rng) {
  std::vector<Entries> chain;
  Entries base;
  for (uint64_t k = 0; k < kKeySpace; ++k) {
    if (rng.Uniform(3) != 0) {
      base.emplace_back(k, "base-" + std::to_string(k));
    }
  }
  chain.push_back(std::move(base));
  uint64_t partials = 1 + rng.Uniform(8);
  for (uint64_t p = 1; p <= partials; ++p) {
    std::map<uint64_t, std::optional<std::string>> dirty;
    uint64_t n = 1 + rng.Uniform(kKeySpace / 2);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t key = rng.Uniform(kKeySpace + 40);  // some never in base
      if (rng.Uniform(4) == 0) {
        dirty[key] = std::nullopt;
      } else {
        dirty[key] = "p" + std::to_string(p) + "-" + std::to_string(key) +
                     std::string(rng.Uniform(40), 'v');
      }
    }
    chain.emplace_back(dirty.begin(), dirty.end());
  }
  return chain;
}

// The forward-order oracle: every checkpoint applied in id order on top
// of `initial`, latest wins, tombstones delete.
StateMap ForwardOracle(StateMap initial, const std::vector<Entries>& chain) {
  for (const Entries& entries : chain) {
    for (const auto& [key, value] : entries) {
      if (value.has_value()) {
        initial[key] = *value;
      } else {
        initial.erase(key);
      }
    }
  }
  return initial;
}

uint64_t DistinctKeys(const std::vector<Entries>& chain) {
  std::set<uint64_t> keys;
  for (const Entries& entries : chain) {
    for (const auto& entry : entries) keys.insert(entry.first);
  }
  return keys.size();
}

StateMap StoreToMap(const ShardedStore& store) {
  StateMap out;
  store.ForEachRecord([&](Record* rec) {
    if (rec->key == ~uint64_t{0}) return;
    std::string value;
    if (store.Get(rec->key, &value).ok()) out[rec->key] = std::move(value);
  });
  return out;
}

// Writes `chain` into a fresh directory and loads it into a store of
// `store_shards` shards holding `initial`; checks state and counts.
void CheckFold(const std::vector<Entries>& chain, Layout layout,
               uint32_t layout_shards, uint32_t store_shards,
               const StateMap& initial) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  for (size_t i = 0; i < chain.size(); ++i) {
    WriteCheckpoint(&storage, i + 1,
                    i == 0 ? CheckpointType::kFull : CheckpointType::kPartial,
                    chain[i], layout, layout_shards);
  }
  ShardedStore store(kMaxRecords, store_shards);
  for (const auto& [key, value] : initial) {
    ASSERT_TRUE(store.Put(key, value).ok());
  }
  RecoveryStats stats;
  ASSERT_TRUE(RecoveryManager::LoadCheckpoints(&storage, &store, &stats).ok());
  EXPECT_EQ(StoreToMap(store), ForwardOracle(initial, chain));
  EXPECT_EQ(stats.entries_applied, DistinctKeys(chain));
  EXPECT_EQ(stats.checkpoints_loaded, chain.size());
  EXPECT_EQ(stats.last_checkpoint_id, chain.size());
  EXPECT_EQ(stats.replay_from_lsn, chain.size() * 10);
}

TEST(ChainFoldTest, RandomChainsMatchForwardOracle) {
  for (uint32_t shards : {1u, 4u}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      std::vector<Entries> chain = RandomChain(rng);
      CheckFold(chain, Layout::kShardSegments, shards, shards, {});
    }
  }
}

// Legacy one-file checkpoints fold into any shard count.
TEST(ChainFoldTest, LegacySingleFileChainMatchesForwardOracle) {
  for (uint32_t shards : {1u, 4u}) {
    for (uint64_t seed = 100; seed < 104; ++seed) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      CheckFold(RandomChain(rng), Layout::kSingleFile, 1, shards, {});
    }
  }
}

// Slot-sliced segments whose count equals the store's shard count: each
// segment holds keys of every shard, and each entry must still reach its
// own shard's claims.
TEST(ChainFoldTest, SlotSlicedChainWithMatchingSegmentCount) {
  for (uint64_t seed = 200; seed < 204; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    CheckFold(RandomChain(rng), Layout::kSlotSliced, 4, 4, {});
  }
}

// Keys in the store before recovery: the chain's newest entry wins for
// every key it names (a tombstone deletes), and other keys stay.
TEST(ChainFoldTest, NonEmptyStoreKeepsForwardOrderOutcome) {
  for (uint32_t shards : {1u, 4u}) {
    for (uint64_t seed = 300; seed < 306; ++seed) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      std::vector<Entries> chain = RandomChain(rng);
      StateMap initial;
      for (uint64_t k = 0; k < kKeySpace + 80; k += 1 + rng.Uniform(3)) {
        initial[k] = "pre-" + std::to_string(k);
      }
      CheckFold(chain, Layout::kShardSegments, shards, shards, initial);
    }
  }
}

// The same through the public API: Database::Load, then Recover.
TEST(ChainFoldTest, DatabaseLoadBeforeRecover) {
  TempDir dir;
  Rng rng(400);
  std::vector<Entries> chain = RandomChain(rng);
  {
    CheckpointStorage storage(dir.path(), 0);
    ASSERT_TRUE(storage.Init().ok());
    for (size_t i = 0; i < chain.size(); ++i) {
      WriteCheckpoint(
          &storage, i + 1,
          i == 0 ? CheckpointType::kFull : CheckpointType::kPartial,
          chain[i], Layout::kSingleFile, 1);
    }
    ASSERT_TRUE(storage.PersistManifest().ok());
  }
  Options options;
  options.max_records = kMaxRecords;
  options.algorithm = CheckpointAlgorithm::kNone;
  options.checkpoint_dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  StateMap initial;
  for (uint64_t k = 0; k < kKeySpace + 40; k += 7) {
    initial[k] = "loaded-" + std::to_string(k);
    ASSERT_TRUE(db->Load(k, initial[k]).ok());
  }
  RecoveryStats stats;
  ASSERT_TRUE(db->Recover(nullptr, &stats).ok());
  EXPECT_EQ(stats.entries_applied, DistinctKeys(chain));
  ASSERT_TRUE(db->Start().ok());
  EXPECT_EQ(testing_util::DbToMap(db.get()), ForwardOracle(initial, chain));
}

// Writes `chain` into `dir` (segment K = shard K of `shards`), so
// storage.RecoveryChain() is the whole chain.
void WriteChain(CheckpointStorage* storage, const std::vector<Entries>& chain,
                uint32_t shards) {
  ASSERT_TRUE(storage->Init().ok());
  for (size_t i = 0; i < chain.size(); ++i) {
    WriteCheckpoint(storage, i + 1,
                    i == 0 ? CheckpointType::kFull : CheckpointType::kPartial,
                    chain[i], Layout::kShardSegments, shards);
  }
}

StateMap RecoverToMap(CheckpointStorage* storage, uint32_t shards) {
  ShardedStore store(kMaxRecords, shards);
  RecoveryStats stats;
  EXPECT_TRUE(RecoveryManager::LoadCheckpoints(storage, &store, &stats).ok());
  EXPECT_EQ(stats.checkpoints_rejected, 0u);
  return StoreToMap(store);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// A collapse of the whole chain, or of a prefix of it, recovers to the
// unmerged chain's state.
TEST(MergerTest, MergedChainRecoversLikeUnmergedChain) {
  for (uint32_t shards : {1u, 4u}) {
    for (uint64_t seed = 500; seed < 508; ++seed) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      std::vector<Entries> chain = RandomChain(rng);
      TempDir dir;
      CheckpointStorage storage(dir.path(), 0);
      WriteChain(&storage, chain, shards);
      StateMap unmerged;
      ASSERT_TRUE(
          testing_util::ChainToMap(storage.RecoveryChain(), &unmerged).ok());
      ASSERT_EQ(unmerged, ForwardOracle({}, chain));

      size_t max_partials = 1 + seed % 3;
      CheckpointMerger merger(&storage, kMaxRecords, shards);
      bool did_merge = false;
      ASSERT_TRUE(merger.CollapseOnce(max_partials, &did_merge).ok());
      ASSERT_TRUE(did_merge);
      std::vector<CheckpointInfo> merged = storage.RecoveryChain();
      size_t taken = std::min(chain.size() - 1, max_partials);
      ASSERT_EQ(merged.size(), chain.size() - taken);
      EXPECT_EQ(merged[0].type, CheckpointType::kFull);
      EXPECT_EQ(merged[0].id, taken + 1);
      EXPECT_EQ(merged[0].vpoc_lsn, (taken + 1) * 10);
      EXPECT_EQ(RecoverToMap(&storage, shards), unmerged);
      StateMap via_files;
      ASSERT_TRUE(testing_util::ChainToMap(merged, &via_files).ok());
      EXPECT_EQ(via_files, unmerged);
    }
  }
}

// At 4 shards the merged checkpoint is 4 segments, and segment K holds
// exactly shard K's live keys: the layout every capture writes.
TEST(MergerTest, MergedSegmentKHoldsShardK) {
  constexpr uint32_t kShards = 4;
  Rng rng(600);
  std::vector<Entries> chain = RandomChain(rng);
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  WriteChain(&storage, chain, kShards);
  CheckpointMerger merger(&storage, kMaxRecords, kShards);
  bool did_merge = false;
  ASSERT_TRUE(merger.CollapseOnce(100, &did_merge).ok());
  std::vector<CheckpointInfo> merged = storage.RecoveryChain();
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(merged[0].segments.size(), kShards);
  uint64_t entries = 0;
  for (uint32_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(merged[0].segments[k],
              storage.SegmentPathFor(merged[0].id, CheckpointType::kFull, k));
    CheckpointFileReader reader;
    ASSERT_TRUE(reader.Open(merged[0].segments[k]).ok());
    EXPECT_EQ(reader.type(), CheckpointType::kFull);
    ASSERT_TRUE(reader
                    .ReadAll([&](const CheckpointEntry& e) -> Status {
                      EXPECT_FALSE(e.tombstone);
                      EXPECT_EQ(ShardedStore::ShardOfKey(e.key, kShards), k)
                          << "key " << e.key << " in segment " << k;
                      ++entries;
                      return Status::OK();
                    })
                    .ok());
  }
  EXPECT_EQ(entries, ForwardOracle({}, chain).size());
  EXPECT_EQ(merged[0].num_entries, entries);
}

// The fold runs on one thread in a fixed order, so collapsing the same
// chain twice writes the same bytes.
TEST(MergerTest, MergedBytesAreDeterministic) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Rng rng(700 + shards);
    std::vector<Entries> chain = RandomChain(rng);
    std::vector<std::string> bytes[2];
    TempDir dirs[2];
    for (int run = 0; run < 2; ++run) {
      CheckpointStorage storage(dirs[run].path(), 0);
      WriteChain(&storage, chain, shards);
      CheckpointMerger merger(&storage, kMaxRecords, shards);
      bool did_merge = false;
      ASSERT_TRUE(merger.CollapseOnce(100, &did_merge).ok());
      std::vector<CheckpointInfo> merged = storage.RecoveryChain();
      ASSERT_EQ(merged.size(), 1u);
      for (const std::string& file : merged[0].files()) {
        bytes[run].push_back(ReadFile(file));
      }
    }
    ASSERT_EQ(bytes[0].size(), shards);
    EXPECT_EQ(bytes[0], bytes[1]);
  }
}

// A merge folds with recovery's code but is not a recovery: the
// calcdb.recovery.* counters stay where they were.
TEST(MergerTest, MergeLeavesRecoveryCountersUnchanged) {
#if CALCDB_OBS_ENABLED
  const char* kCounters[] = {
      "calcdb.recovery.entries_applied",
      "calcdb.recovery.entries_skipped",
      "calcdb.recovery.checkpoint_read_bytes",
      "calcdb.recovery.segments_loaded",
      "calcdb.recovery.validate_us",
      "calcdb.recovery.checkpoints_rejected",
  };
  auto sums = [&] {
    std::vector<uint64_t> out;
    for (const char* name : kCounters) {
      out.push_back(obs::MetricsRegistry::Global().GetCounter(name)->Sum());
    }
    return out;
  };
  Rng rng(800);
  std::vector<Entries> chain = RandomChain(rng);
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  WriteChain(&storage, chain, 4);
  std::vector<uint64_t> before = sums();
  CheckpointMerger merger(&storage, kMaxRecords, 4);
  bool did_merge = false;
  ASSERT_TRUE(merger.CollapseOnce(100, &did_merge).ok());
  ASSERT_TRUE(did_merge);
  EXPECT_EQ(sums(), before);
#else
  GTEST_SKIP() << "built with -DCALCDB_OBS=OFF; no counters to compare";
#endif
}

}  // namespace
}  // namespace calcdb
