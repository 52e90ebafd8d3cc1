// Edge-path coverage: error propagation, driver latency semantics under
// overload, recovery with unknown procedures, checkpoint path naming,
// and commit-LSN plumbing.

#include <atomic>
#include <memory>
#include <thread>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "txn/txn_context.h"
#include "util/clock.h"
#include "workload/microbench.h"

namespace calcdb {
namespace {

using testing_util::TempDir;

TEST(CheckpointStorageTest, PathForNaming) {
  CheckpointStorage storage("/tmp/x", 0);
  EXPECT_EQ(storage.PathFor(7, CheckpointType::kFull),
            "/tmp/x/ckpt_00000007.full");
  EXPECT_EQ(storage.PathFor(123, CheckpointType::kPartial),
            "/tmp/x/ckpt_00000123.part");
}

// The background merger and a checkpoint cycle persist the manifest from
// two threads. Each persist must succeed, and the manifest left behind
// must be whole.
TEST(CheckpointStorageTest, ConcurrentPersistsStayConsistent) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  for (uint64_t id = 1; id <= 64; ++id) {
    CheckpointInfo info;
    info.id = id;
    info.type = id == 1 ? CheckpointType::kFull : CheckpointType::kPartial;
    info.path = storage.PathFor(id, info.type);
    storage.Register(info);
  }
  std::atomic<int> failures{0};
  auto persist = [&] {
    for (int i = 0; i < 50; ++i) {
      if (!storage.PersistManifest().ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread other(persist);
  persist();
  other.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  CheckpointStorage reloaded(dir.path(), 0);
  ASSERT_TRUE(reloaded.LoadManifest().ok());
  EXPECT_EQ(reloaded.List().size(), 64u);
}

TEST(CheckpointStorageTest, ReplaceCollapsedDeletesRetiredFiles) {
  TempDir dir;
  CheckpointStorage storage(dir.path(), 0);
  ASSERT_TRUE(storage.Init().ok());
  auto make = [&](uint64_t id, CheckpointType type) {
    CheckpointInfo info;
    info.id = id;
    info.type = type;
    info.path = storage.PathFor(id, type);
    CheckpointFileWriter writer;
    EXPECT_TRUE(writer.Open(info.path, type, id, 0, {}).ok());
    EXPECT_TRUE(writer.Append(id, "v").ok());
    EXPECT_TRUE(writer.Finish().ok());
    storage.Register(info);
    return info;
  };
  CheckpointInfo a = make(1, CheckpointType::kFull);
  CheckpointInfo b = make(2, CheckpointType::kPartial);
  CheckpointInfo merged;
  merged.id = 2;
  merged.type = CheckpointType::kFull;
  merged.path = storage.PathFor(2, CheckpointType::kFull);
  CheckpointFileWriter writer;
  ASSERT_TRUE(
      writer.Open(merged.path, CheckpointType::kFull, 2, 0, {}).ok());
  ASSERT_TRUE(writer.Append(1, "v").ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE(storage.ReplaceCollapsed({1, 2}, merged).ok());
  // Retired files are gone; the merged file remains.
  FILE* gone_a = fopen(a.path.c_str(), "rb");
  FILE* gone_b = fopen(b.path.c_str(), "rb");
  FILE* kept = fopen(merged.path.c_str(), "rb");
  EXPECT_EQ(gone_a, nullptr);
  EXPECT_EQ(gone_b, nullptr);
  ASSERT_NE(kept, nullptr);
  fclose(kept);
  ASSERT_EQ(storage.List().size(), 1u);
  EXPECT_EQ(storage.List()[0].type, CheckpointType::kFull);
}

TEST(ThrottledFileTest, AppendAfterCloseFails) {
  TempDir dir;
  ThrottledFileWriter writer;
  ASSERT_TRUE(writer.Open(dir.path() + "/f", 0).ok());
  ASSERT_TRUE(writer.Append("x", 1).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_FALSE(writer.Append("y", 1).ok());
  EXPECT_FALSE(writer.is_open());
  // Close twice is OK.
  EXPECT_TRUE(writer.Close().ok());
}

TEST(ThrottledFileTest, DoubleOpenRejected) {
  TempDir dir;
  ThrottledFileWriter writer;
  ASSERT_TRUE(writer.Open(dir.path() + "/f", 0).ok());
  EXPECT_TRUE(writer.Open(dir.path() + "/g", 0).IsInvalidArgument());
}

// Commit LSNs are dense and ordered with the log (MVCC stamps depend on
// this).
TEST(ExecutorTest, CommitLsnMatchesLogPosition) {
  TempDir dir;
  Options options;
  options.max_records = 256;
  options.algorithm = CheckpointAlgorithm::kNone;
  options.checkpoint_dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  MicrobenchConfig config;
  config.num_records = 100;
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());
  for (int i = 0; i < 5; ++i) {
    uint64_t keys[2] = {static_cast<uint64_t>(i),
                        static_cast<uint64_t>(i + 1)};
    Txn txn;
    ASSERT_TRUE(db->executor()
                    ->Execute(kRmwProcId, RmwProcedure::MakeArgs(keys, 2),
                              0, &txn)
                    .ok());
    EXPECT_EQ(txn.commit_lsn, static_cast<uint64_t>(i));
    LogEntry entry = db->commit_log()->Entry(txn.commit_lsn);
    EXPECT_EQ(entry.txn_id, txn.txn_id);
  }
}

// Open-loop latency includes queueing: at an offered rate far above
// capacity, measured latency must greatly exceed service time.
TEST(DriverTest, OpenLoopOverloadAccumulatesLatency) {
  TempDir dir;
  Options options;
  options.max_records = 2048;
  options.algorithm = CheckpointAlgorithm::kNone;
  options.checkpoint_dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  MicrobenchConfig config;
  config.num_records = 500;
  config.ops_per_txn = 8;
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());

  MicrobenchWorkload workload(config);
  RunMetrics metrics(30);
  // Absurd target rate: the backlog grows for the whole second.
  OpenLoopDriver driver(db->executor(), &workload, &metrics, 1,
                        /*target_rate=*/5e6);
  driver.Start();
  SleepMicros(500000);
  driver.Stop();
  ASSERT_GT(metrics.latency.count(), 0u);
  // p99 latency must reflect queueing (arrivals scheduled in the past),
  // i.e. be a large fraction of the run duration.
  EXPECT_GT(metrics.latency.PercentileUs(0.99), 100000);
}

TEST(ReplayEdgeTest, ReplayUnknownProcedureFails) {
  CommitLog log;
  log.AppendCommit(1, /*proc_id=*/424242, "args");
  ShardedStore store(64);
  ProcedureRegistry registry;  // empty
  RecoveryStats stats;
  Status st = RecoveryManager::ReplayLog(log, registry, &store, &stats);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(ThroughputRecorderTest, BinsBySecond) {
  ThroughputRecorder recorder(10);
  int64_t start = recorder.start_us();
  recorder.RecordCommit(start + 100);
  recorder.RecordCommit(start + 1500000);
  recorder.RecordCommit(start + 1600000);
  recorder.RecordCommit(start + 99 * 1000000);  // out of range: dropped
  std::vector<uint64_t> series = recorder.Series(3);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0], 1u);
  EXPECT_EQ(series[1], 2u);
  EXPECT_EQ(series[2], 0u);
  EXPECT_EQ(recorder.total(), 4u);
}

// Regression: commits past max_seconds used to vanish entirely — not
// binned, not counted. They now saturate into the last bin and are
// reported through dropped(), so a run that outlives its recorder is
// detectable instead of silently under-reported.
TEST(ThroughputRecorderTest, LateCommitsSaturateIntoLastBin) {
  ThroughputRecorder recorder(10);
  int64_t start = recorder.start_us();
  recorder.RecordCommit(start + 100);            // bin 0
  recorder.RecordCommit(start + 9 * 1000000);    // bin 9 (last)
  recorder.RecordCommit(start + 15 * 1000000);   // past the end: saturates
  recorder.RecordCommit(start + 99 * 1000000);   // far past: saturates
  std::vector<uint64_t> series = recorder.Series(10);
  ASSERT_EQ(series.size(), 10u);
  EXPECT_EQ(series[0], 1u);
  EXPECT_EQ(series[9], 3u);  // the in-range commit plus both saturated
  EXPECT_EQ(recorder.total(), 4u);
  EXPECT_EQ(recorder.dropped(), 2u);

  // Pre-start timestamps (cross-thread clock skew) count in total and
  // dropped but land in no bin.
  recorder.RecordCommit(start - 5 * 1000000);
  EXPECT_EQ(recorder.total(), 5u);
  EXPECT_EQ(recorder.dropped(), 3u);
  uint64_t binned = 0;
  for (uint64_t b : recorder.Series(10)) binned += b;
  EXPECT_EQ(binned, 4u);

  recorder.Restart();
  EXPECT_EQ(recorder.total(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(DatabaseTest, GetStatsStringCoversSections) {
  TempDir dir;
  Options options;
  options.max_records = 256;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  MicrobenchConfig config;
  config.num_records = 50;
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());
  uint64_t keys[2] = {1, 2};
  ASSERT_TRUE(db->executor()
                  ->Execute(kRmwProcId, RmwProcedure::MakeArgs(keys, 2), 0)
                  .ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  std::string stats = db->GetStatsString();
  EXPECT_NE(stats.find("calcdb.algorithm: CALC"), std::string::npos);
  EXPECT_NE(stats.find("calcdb.txn.committed: 1"), std::string::npos);
  EXPECT_NE(stats.find("calcdb.store.slots: 50"), std::string::npos);
  EXPECT_NE(stats.find("calcdb.checkpoint.count: 1"), std::string::npos);
  EXPECT_NE(stats.find("calcdb.checkpoint.last.records: 50"),
            std::string::npos);
  EXPECT_NE(stats.find("calcdb.memory.value_bytes"), std::string::npos);
}

TEST(DatabaseTest, ReadBeforeStartUsesStore) {
  TempDir dir;
  Options options;
  options.max_records = 64;
  options.checkpoint_dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(db->Load(1, "pre").ok());
  std::string value;
  ASSERT_TRUE(db->Read(1, &value).ok());
  EXPECT_EQ(value, "pre");
  EXPECT_TRUE(db->Read(2, &value).IsNotFound());
}

}  // namespace
}  // namespace calcdb
