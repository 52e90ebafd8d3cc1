// End-to-end recovery tests: run a workload with checkpointing, simulate a
// crash (new process-equivalent: fresh Database against the same
// checkpoint directory and a persisted command log), recover, and verify
// the state matches exactly.

#include <memory>
#include <thread>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/microbench.h"

namespace calcdb {
namespace {

using testing_util::DbToMap;
using testing_util::StateMap;
using testing_util::TempDir;

MicrobenchConfig SmallConfig() {
  MicrobenchConfig config;
  config.num_records = 500;
  config.value_size = 64;
  config.ops_per_txn = 5;
  config.hot_fraction = 1.0;
  return config;
}

Options SmallOptions(const std::string& dir,
                     CheckpointAlgorithm algorithm) {
  Options options;
  options.max_records = 2048;
  options.algorithm = algorithm;
  options.checkpoint_dir = dir;
  options.disk_bytes_per_sec = 0;
  return options;
}

void RunSomeTransactions(Database* db, int count, uint64_t seed) {
  MicrobenchConfig config = SmallConfig();
  MicrobenchWorkload workload(config);
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    TxnRequest req = workload.Next(rng);
    ASSERT_TRUE(
        db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
  }
}

class RecoveryTest
    : public ::testing::TestWithParam<CheckpointAlgorithm> {};

TEST_P(RecoveryTest, CheckpointPlusReplayRestoresExactState) {
  CALCDB_SKIP_FORK_UNDER_TSAN(GetParam());
  TempDir dir;
  MicrobenchConfig config = SmallConfig();
  Options options = SmallOptions(dir.path() + "/ckpt", GetParam());

  StateMap pre_crash;
  std::string log_path = dir.path() + "/commandlog";
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());

    RunSomeTransactions(db.get(), 300, 1);
    ASSERT_TRUE(db->Checkpoint().ok());
    RunSomeTransactions(db.get(), 200, 2);  // post-checkpoint commits
    pre_crash = DbToMap(db.get());
    // Command logging: persist the input log (in a real deployment this
    // streams continuously; the content is identical).
    ASSERT_TRUE(db->commit_log()->PersistTo(log_path).ok());
  }  // <- crash: all volatile state (store, stable versions, bits) gone

  // Recover into a fresh engine.
  std::unique_ptr<Database> db2;
  ASSERT_TRUE(Database::Open(options, &db2).ok());
  db2->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  db2->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  CommitLog replay_log;
  ASSERT_TRUE(replay_log.LoadFrom(log_path).ok());
  RecoveryStats stats;
  ASSERT_TRUE(db2->Recover(&replay_log, &stats).ok());
  ASSERT_TRUE(db2->Start().ok());

  EXPECT_GE(stats.checkpoints_loaded, 1u);
  EXPECT_GT(stats.txns_replayed, 0u);
  EXPECT_EQ(DbToMap(db2.get()), pre_crash);
}

TEST_P(RecoveryTest, CheckpointOnlyRecoveryLosesOnlyTail) {
  // The NoSQL / K-safety use case (paper §1): recovery without replay
  // restores exactly the state as of the last checkpoint's point of
  // consistency.
  CALCDB_SKIP_FORK_UNDER_TSAN(GetParam());
  TempDir dir;
  MicrobenchConfig config = SmallConfig();
  Options options = SmallOptions(dir.path() + "/ckpt", GetParam());

  StateMap at_poc;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    RunSomeTransactions(db.get(), 250, 3);
    ASSERT_TRUE(db->Checkpoint().ok());
    uint64_t vpoc = db->checkpoint_storage()->List().back().vpoc_lsn;
    RunSomeTransactions(db.get(), 100, 4);  // will be lost
    at_poc = testing_util::ReplayGroundTruth(
        *db->commit_log(), vpoc, options, [&](Database* fresh) {
          ASSERT_TRUE(SetupMicrobench(fresh, config).ok());
        });
    ASSERT_TRUE(db->checkpoint_storage()->PersistManifest().ok());
  }

  std::unique_ptr<Database> db2;
  ASSERT_TRUE(Database::Open(options, &db2).ok());
  db2->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  db2->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  RecoveryStats stats;
  ASSERT_TRUE(db2->Recover(nullptr, &stats).ok());
  ASSERT_TRUE(db2->Start().ok());
  EXPECT_EQ(DbToMap(db2.get()), at_poc);
}

INSTANTIATE_TEST_SUITE_P(
    TcAlgorithms, RecoveryTest,
    ::testing::Values(CheckpointAlgorithm::kCalc,
                      CheckpointAlgorithm::kNaive,
                      CheckpointAlgorithm::kIpp,
                      CheckpointAlgorithm::kZigzag,
                      CheckpointAlgorithm::kMvcc,
                      CheckpointAlgorithm::kFork),
    [](const ::testing::TestParamInfo<CheckpointAlgorithm>& info) {
      return std::string(AlgorithmName(info.param));
    });

TEST(PartialRecoveryTest, ChainOfPartialsRecovers) {
  TempDir dir;
  MicrobenchConfig config = SmallConfig();
  Options options =
      SmallOptions(dir.path() + "/ckpt", CheckpointAlgorithm::kPCalc);

  StateMap pre_crash;
  std::string log_path = dir.path() + "/commandlog";
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    // Base full checkpoint of the loaded state: partials merge onto it.
    ASSERT_TRUE(db->WriteBaseCheckpoint().ok());
    ASSERT_TRUE(db->Start().ok());
    for (int round = 0; round < 4; ++round) {
      RunSomeTransactions(db.get(), 120, 10 + round);
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    RunSomeTransactions(db.get(), 60, 99);
    pre_crash = DbToMap(db.get());
    ASSERT_TRUE(db->commit_log()->PersistTo(log_path).ok());
  }

  std::unique_ptr<Database> db2;
  ASSERT_TRUE(Database::Open(options, &db2).ok());
  db2->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  db2->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  CommitLog replay_log;
  ASSERT_TRUE(replay_log.LoadFrom(log_path).ok());
  RecoveryStats stats;
  ASSERT_TRUE(db2->Recover(&replay_log, &stats).ok());
  ASSERT_TRUE(db2->Start().ok());
  EXPECT_EQ(stats.checkpoints_loaded, 5u);  // base full + 4 partials
  EXPECT_EQ(DbToMap(db2.get()), pre_crash);
}

TEST(PartialRecoveryTest, RecoveryAfterBackgroundCollapse) {
  TempDir dir;
  MicrobenchConfig config = SmallConfig();
  Options options =
      SmallOptions(dir.path() + "/ckpt", CheckpointAlgorithm::kPCalc);

  StateMap pre_crash;
  std::string log_path = dir.path() + "/commandlog";
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->WriteBaseCheckpoint().ok());
    ASSERT_TRUE(db->Start().ok());
    for (int round = 0; round < 5; ++round) {
      RunSomeTransactions(db.get(), 100, 20 + round);
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    // Foreground collapse of the first 3 partials.
    CheckpointMerger merger(db->checkpoint_storage(),
                            db->store()->max_records(),
                            db->store()->num_shards());
    bool did_merge = false;
    ASSERT_TRUE(merger.CollapseOnce(3, &did_merge).ok());
    ASSERT_TRUE(did_merge);
    RunSomeTransactions(db.get(), 50, 77);
    pre_crash = DbToMap(db.get());
    ASSERT_TRUE(db->commit_log()->PersistTo(log_path).ok());
  }

  std::unique_ptr<Database> db2;
  ASSERT_TRUE(Database::Open(options, &db2).ok());
  db2->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  db2->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  CommitLog replay_log;
  ASSERT_TRUE(replay_log.LoadFrom(log_path).ok());
  RecoveryStats stats;
  ASSERT_TRUE(db2->Recover(&replay_log, &stats).ok());
  ASSERT_TRUE(db2->Start().ok());
  // merged full (adopting partial #3's identity) + partials 4, 5.
  EXPECT_EQ(stats.checkpoints_loaded, 3u);
  EXPECT_EQ(DbToMap(db2.get()), pre_crash);
}

TEST(RecoveryEdgeTest, EmptyDirectoryRecoversToEmpty) {
  TempDir dir;
  Options options =
      SmallOptions(dir.path() + "/ckpt", CheckpointAlgorithm::kCalc);
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  RecoveryStats stats;
  ASSERT_TRUE(db->Recover(nullptr, &stats).ok());
  EXPECT_EQ(stats.checkpoints_loaded, 0u);
  ASSERT_TRUE(db->Start().ok());
  EXPECT_EQ(db->store()->CountPresent(), 0u);
}

}  // namespace
}  // namespace calcdb
