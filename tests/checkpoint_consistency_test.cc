// The central correctness property of this repository, tested for every
// transaction-consistent checkpointing algorithm:
//
//   A checkpoint must equal the database state produced by applying
//   exactly the transactions that committed before its point of
//   consistency — no earlier, no later, regardless of what ran
//   concurrently with the capture.
//
// The ground truth is computed by deterministically replaying the commit
// log up to the checkpoint's point-of-consistency LSN into a fresh store
// (paper §3's recovery argument), then compared byte-for-byte against the
// checkpoint contents. Runs are multi-threaded with inserts, updates and
// deletes in flight while the checkpoint is captured — for CALC that means
// transactions spanning every phase of the cycle.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "txn/txn_context.h"
#include "util/clock.h"
#include "util/rng.h"

namespace calcdb {
namespace {

using testing_util::ChainToMap;
using testing_util::DbToMap;
using testing_util::StateMap;
using testing_util::TempDir;

// Workload procedure: per key either upsert (value derived from args) or
// delete. args: [u64 key][u8 op][u64 payload]; op 0=upsert, 1=delete
// (delete of an absent key degrades to an upsert so aborts stay rare).
constexpr uint32_t kMutateProcId = 200;

class MutateProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kMutateProcId; }
  const char* name() const override { return "mutate"; }
  void GetKeys(std::string_view args, KeySets* sets) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    sets->write_keys.push_back(key);
  }
  Status Run(TxnContext& ctx, std::string_view args) const override {
    uint64_t key, payload;
    memcpy(&key, args.data(), 8);
    uint8_t op = static_cast<uint8_t>(args[8]);
    memcpy(&payload, args.data() + 9, 8);
    if (op == 1 && ctx.Exists(key)) {
      return ctx.Delete(key);
    }
    std::string value = "v" + std::to_string(key) + ":" +
                        std::to_string(payload);
    return ctx.Write(key, value);
  }
};

std::string MutateArgs(uint64_t key, uint8_t op, uint64_t payload) {
  std::string args(reinterpret_cast<const char*>(&key), 8);
  args.push_back(static_cast<char>(op));
  args.append(reinterpret_cast<const char*>(&payload), 8);
  return args;
}

struct ConsistencyCase {
  CheckpointAlgorithm algorithm;
  int checkpoints;       // how many cycles to run back-to-back
  bool with_deletes;
  bool with_inserts;     // keys beyond the initially loaded range
  uint8_t storage_shards = 0;  // 0: auto (CALCDB_STORAGE_SHARDS, else 1)
};

class CheckpointConsistencyTest
    : public ::testing::TestWithParam<ConsistencyCase> {};

constexpr uint64_t kInitialKeys = 400;

void SeedDb(Database* db) {
  db->registry()->Register(std::make_unique<MutateProcedure>());
  for (uint64_t k = 0; k < kInitialKeys; ++k) {
    ASSERT_TRUE(db->Load(k, "init" + std::to_string(k)).ok());
  }
}

TEST_P(CheckpointConsistencyTest, CheckpointEqualsStateAtPoC) {
  const ConsistencyCase& param = GetParam();
  CALCDB_SKIP_FORK_UNDER_TSAN(param.algorithm);
  TempDir dir;
  Options options;
  options.max_records = 4096;
  options.algorithm = param.algorithm;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;  // fast captures; stress via threads
  options.storage_shards = param.storage_shards;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  SeedDb(db.get());
  ASSERT_TRUE(db->Start().ok());

  // Mutator threads run throughout all checkpoint cycles.
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 3; ++t) {
    mutators.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 31 + 7);
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t key_range =
            param.with_inserts ? kInitialKeys * 2 : kInitialKeys;
        uint64_t key = rng.Uniform(key_range);
        uint8_t op =
            (param.with_deletes && rng.Bernoulli(0.15)) ? 1 : 0;
        db->executor()
            ->Execute(kMutateProcId, MutateArgs(key, op, rng.Next()), 0)
            .ok();
      }
    });
  }

  // Let some transactions land, then take checkpoints with mutators live.
  SleepMicros(20000);
  for (int c = 0; c < param.checkpoints; ++c) {
    ASSERT_TRUE(db->Checkpoint().ok()) << "cycle " << c;
    SleepMicros(20000);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : mutators) t.join();

  // Validate every checkpoint against ground truth. A full checkpoint is
  // a complete state on its own; partial checkpoints are validated as a
  // merged chain from the beginning (the database started empty... of
  // uncommitted data — the initial Load is the implicit base, replayed
  // into the ground truth too).
  std::vector<CheckpointInfo> all = db->checkpoint_storage()->List();
  ASSERT_EQ(all.size(), static_cast<size_t>(param.checkpoints));
  // Every algorithm shares one layout: one file at one shard, else one
  // segment per shard. Fork's snapshot child writes one file regardless.
  uint32_t shards = Database::ResolvedStorageShards(options);
  size_t want_segments =
      (shards > 1 && param.algorithm != CheckpointAlgorithm::kFork) ? shards
                                                                    : 0;
  for (const CheckpointInfo& info : all) {
    EXPECT_EQ(info.segments.size(), want_segments)
        << "checkpoint " << info.id;
  }
  const bool partial = db->checkpointer()->is_partial();
  for (size_t upto = 1; upto <= all.size(); ++upto) {
    std::vector<CheckpointInfo> chain;
    StateMap from_checkpoint;
    if (partial) {
      // Partial checkpoints merge onto the initially loaded state (the
      // implicit base the recovery path gets from WriteBaseCheckpoint).
      for (uint64_t k = 0; k < kInitialKeys; ++k) {
        from_checkpoint[k] = "init" + std::to_string(k);
      }
      chain.assign(all.begin(), all.begin() + upto);
    } else {
      // A full checkpoint is a complete state on its own.
      chain.assign(all.begin() + (upto - 1), all.begin() + upto);
    }
    ASSERT_TRUE(ChainToMap(chain, &from_checkpoint).ok());
    StateMap ground_truth = testing_util::ReplayGroundTruth(
        *db->commit_log(), chain.back().vpoc_lsn, options, SeedDb);
    EXPECT_EQ(from_checkpoint, ground_truth)
        << AlgorithmName(param.algorithm) << " checkpoint " << upto
        << " diverges from the committed-before-PoC state";
  }

  // The live database must also match a full replay of the log.
  StateMap live = DbToMap(db.get());
  StateMap full_replay = testing_util::ReplayGroundTruth(
      *db->commit_log(), db->commit_log()->Size(), options, SeedDb);
  EXPECT_EQ(live, full_replay);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CheckpointConsistencyTest,
    ::testing::Values(
        ConsistencyCase{CheckpointAlgorithm::kCalc, 2, false, false},
        ConsistencyCase{CheckpointAlgorithm::kCalc, 3, true, true},
        ConsistencyCase{CheckpointAlgorithm::kPCalc, 2, false, false},
        ConsistencyCase{CheckpointAlgorithm::kPCalc, 4, true, true},
        ConsistencyCase{CheckpointAlgorithm::kNaive, 2, true, true},
        ConsistencyCase{CheckpointAlgorithm::kPNaive, 3, true, true},
        ConsistencyCase{CheckpointAlgorithm::kIpp, 2, false, false},
        ConsistencyCase{CheckpointAlgorithm::kIpp, 3, true, true},
        ConsistencyCase{CheckpointAlgorithm::kPIpp, 3, true, true},
        ConsistencyCase{CheckpointAlgorithm::kZigzag, 2, false, false},
        ConsistencyCase{CheckpointAlgorithm::kZigzag, 3, true, true},
        ConsistencyCase{CheckpointAlgorithm::kPZigzag, 3, true, true},
        ConsistencyCase{CheckpointAlgorithm::kMvcc, 2, false, false},
        ConsistencyCase{CheckpointAlgorithm::kMvcc, 3, true, true},
        ConsistencyCase{CheckpointAlgorithm::kFork, 2, false, false},
        ConsistencyCase{CheckpointAlgorithm::kFork, 3, true, true},
        // The same inserts + deletes stress on a 4-shard store, where
        // every algorithm but fork captures one segment per shard.
        ConsistencyCase{CheckpointAlgorithm::kCalc, 3, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kPCalc, 4, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kNaive, 2, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kPNaive, 3, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kIpp, 3, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kPIpp, 3, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kZigzag, 3, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kPZigzag, 3, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kMvcc, 3, true, true, 4},
        ConsistencyCase{CheckpointAlgorithm::kFork, 3, true, true, 4}),
    [](const ::testing::TestParamInfo<ConsistencyCase>& info) {
      std::string name = AlgorithmName(info.param.algorithm);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      name += "_c" + std::to_string(info.param.checkpoints);
      if (info.param.with_deletes) name += "_del";
      if (info.param.with_inserts) name += "_ins";
      if (info.param.storage_shards > 1) {
        name += "_s" + std::to_string(info.param.storage_shards);
      }
      return name;
    });

// Fuzzy checkpoints are not transaction-consistent (paper §2.1); verify
// the file is well-formed and flags itself correctly instead.
TEST(FuzzyCheckpointTest, ProducesValidButNonTcCheckpoint) {
  TempDir dir;
  Options options;
  options.max_records = 4096;
  options.algorithm = CheckpointAlgorithm::kPFuzzy;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  SeedDb(db.get());
  ASSERT_TRUE(db->Start().ok());
  EXPECT_FALSE(db->checkpointer()->transaction_consistent());

  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->executor()
                    ->Execute(kMutateProcId,
                              MutateArgs(rng.Uniform(kInitialKeys), 0,
                                         rng.Next()),
                              0)
                    .ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  std::vector<CheckpointInfo> list = db->checkpoint_storage()->List();
  ASSERT_EQ(list.size(), 1u);
  StateMap contents;
  ASSERT_TRUE(ChainToMap(list, &contents).ok());
  // Exactly the dirtied records are present in the partial checkpoint.
  EXPECT_GT(contents.size(), 0u);
  EXPECT_LE(contents.size(), 200u);
}

// CALC-specific white-box checks.
TEST(CalcTest, NoResidualStableVersionsAfterCycle) {
  TempDir dir;
  Options options;
  options.max_records = 2048;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  SeedDb(db.get());
  ASSERT_TRUE(db->Start().ok());

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    Rng rng(5);
    while (!stop.load()) {
      db->executor()
          ->Execute(kMutateProcId,
                    MutateArgs(rng.Uniform(kInitialKeys), 0, rng.Next()),
                    0)
          .ok();
    }
  });
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  stop = true;
  mutator.join();

  // After the cycle returns to rest, every stable slot must be empty:
  // CALC "requires no extra space most of the time" (Figure 6).
  db->store()->ForEachRecord([&](Record* rec) {
    EXPECT_EQ(rec->stable, nullptr) << rec->key;
  });
}

TEST(CalcTest, GateNeverClosedDuringCheckpoint) {
  TempDir dir;
  Options options;
  options.max_records = 2048;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  SeedDb(db.get());
  ASSERT_TRUE(db->Start().ok());

  // Sample the gate continuously while a checkpoint runs: CALC must never
  // close it (no quiesce, the paper's headline property).
  std::atomic<bool> closed_seen{false};
  std::atomic<bool> stop{false};
  std::thread watcher([&] {
    while (!stop.load()) {
      if (!db->gate()->IsOpen()) closed_seen = true;
      SleepMicros(50);
    }
  });
  ASSERT_TRUE(db->Checkpoint().ok());
  stop = true;
  watcher.join();
  EXPECT_FALSE(closed_seen.load());
  EXPECT_EQ(db->checkpointer()->last_cycle().quiesce_micros, 0);
}

}  // namespace
}  // namespace calcdb
