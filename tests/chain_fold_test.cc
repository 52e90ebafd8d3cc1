// The apply-once chain fold (RecoveryManager::LoadCheckpoints): random
// chains of a base plus 1-8 partials, with puts, tombstones and
// re-inserts, written in the segment K = shard K layout, as legacy single
// files and as slot-sliced segments, must recover to the state of the
// chain applied in forward order, applying each distinct key once. Keys a
// store holds before recovery keep the forward-order outcome.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/ckpt_file.h"
#include "checkpoint/ckpt_storage.h"
#include "db/database.h"
#include "gtest/gtest.h"
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

}  // namespace
}  // namespace calcdb
