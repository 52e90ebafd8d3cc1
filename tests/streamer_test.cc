// Tests for the command-log streamer: continuous persistence, torn-tail
// tolerance, and end-to-end streamed recovery through the Database facade.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "log/command_log_streamer.h"
#include "obs/obs.h"
#include "tests/test_util.h"
#include "util/throttled_file.h"
#include "workload/microbench.h"

namespace calcdb {
namespace {

using testing_util::DbToMap;
using testing_util::TempDir;

TEST(CommandLogStreamerTest, StreamsAndDrainsOnStop) {
  TempDir dir;
  std::string path = dir.path() + "/stream";
  CommitLog log;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(path, /*flush_interval_ms=*/1).ok());

  for (int i = 0; i < 500; ++i) {
    log.AppendCommit(static_cast<uint64_t>(i), 7,
                     "args" + std::to_string(i));
  }
  // Wait for the background flusher to catch up.
  for (int tries = 0; tries < 500 && streamer.persisted_lsn() < 500;
       ++tries) {
    SleepMicros(2000);
  }
  EXPECT_GE(streamer.persisted_lsn(), 1u);  // streamed while running
  log.AppendCommit(999, 7, "tail");
  ASSERT_TRUE(streamer.Stop().ok());
  EXPECT_EQ(streamer.persisted_lsn(), 501u);  // drained on stop

  // The streamer writes a generation file, never the bare base path.
  EXPECT_EQ(streamer.active_path(), path + ".000001");
  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(streamer.active_path()).ok());
  ASSERT_EQ(loaded.Size(), 501u);
  EXPECT_EQ(loaded.Entry(0).args, "args0");
  EXPECT_EQ(loaded.Entry(500).txn_id, 999u);
}

TEST(CommandLogStreamerTest, StreamsPhaseTokensToo) {
  TempDir dir;
  std::string path = dir.path() + "/stream";
  CommitLog log;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(path, 1).ok());
  log.AppendCommit(1, 2, "a");
  log.AppendPhaseTransition(Phase::kResolve, 5);
  log.AppendCommit(2, 2, "b");
  ASSERT_TRUE(streamer.Stop().ok());
  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(streamer.active_path()).ok());
  ASSERT_EQ(loaded.Size(), 3u);
  EXPECT_EQ(loaded.Entry(1).type, LogEntry::Type::kPhaseTransition);
  EXPECT_EQ(loaded.VpocCount(), 0u);  // count rebuilt only via appends
  uint64_t lsn;
  EXPECT_TRUE(loaded.FindPhaseToken(5, Phase::kResolve, &lsn));
  EXPECT_EQ(lsn, 1u);
}

TEST(CommandLogStreamerTest, TornTailDiscardedOnLoad) {
  TempDir dir;
  std::string path = dir.path() + "/stream";
  CommitLog log;
  log.AppendCommit(1, 2, "complete-entry");
  log.AppendCommit(2, 2, "will-be-torn");
  ASSERT_TRUE(log.PersistTo(path).ok());

  // Tear the final entry: crash mid-append.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 0, SEEK_END);
  long size = ftell(f);
  fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 5), 0);

  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(path).ok());
  ASSERT_EQ(loaded.Size(), 1u);
  EXPECT_EQ(loaded.Entry(0).args, "complete-entry");
}

TEST(CommandLogStreamerTest, LargeGenerationNumbersRoundTrip) {
  TempDir dir;
  std::string path = dir.path() + "/stream";
  // %06llu is a minimum width, not a cap: a 12-digit generation must
  // produce a path that round-trips through the scan untruncated.
  std::string big = CommandLogStreamer::GenerationPath(path, 123456789012ull);
  EXPECT_EQ(big, path + ".123456789012");
  { std::ofstream(big) << "keep"; }
  // Suffixes GenerationPath cannot produce are ignored, not half-parsed:
  // out-of-bound numbers, sign characters, trailing junk.
  { std::ofstream(path + ".99999999999999999999") << "x"; }
  { std::ofstream(path + ".+5") << "x"; }
  { std::ofstream(path + ".12junk") << "x"; }
  std::vector<std::string> files;
  ASSERT_TRUE(CommandLogStreamer::ListLogFiles(path, &files).ok());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], big);

  // Start picks max+1 of the accepted generations and never touches the
  // existing file.
  CommitLog log;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(path, 5).ok());
  EXPECT_EQ(streamer.active_path(), path + ".123456789013");
  ASSERT_TRUE(streamer.Stop().ok());
  std::ifstream in(big);
  std::string contents;
  in >> contents;
  EXPECT_EQ(contents, "keep");
}

TEST(CommandLogStreamerTest, ExclusiveCreateNeverTruncates) {
  TempDir dir;
  std::string path = dir.path() + "/f";
  { std::ofstream(path) << "precious"; }
  // The streamer opens its generation with O_EXCL semantics: even if the
  // generation scan chose an existing file, it cannot be clobbered.
  ThrottledFileWriter writer;
  Status st = writer.Open(path, /*budget=*/nullptr, /*exclusive=*/true);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  std::ifstream in(path);
  std::string contents;
  in >> contents;
  EXPECT_EQ(contents, "precious");
}

TEST(CommandLogStreamerTest, UnlistableLogDirFailsInsteadOfClobbering) {
  TempDir dir;
  // The base path's directory component is a regular file: opendir fails
  // with ENOTDIR (not ENOENT). Treating that as "no generations" could
  // reuse generation 1 and clobber an existing file, so both the scan
  // and Start must fail loudly instead.
  std::string notadir = dir.path() + "/notadir";
  { std::ofstream(notadir) << "file"; }
  std::string base = notadir + "/stream";
  std::vector<std::string> files;
  EXPECT_FALSE(CommandLogStreamer::ListLogFiles(base, &files).ok());
  CommitLog log;
  CommandLogStreamer streamer(&log);
  EXPECT_FALSE(streamer.Start(base, 5).ok());
  EXPECT_FALSE(streamer.running());
  EXPECT_TRUE(streamer.Stop().ok());  // failed Start leaves a clean stop
  // A missing directory stays a soft "no generations yet".
  ASSERT_TRUE(CommandLogStreamer::ListLogFiles(
                  dir.path() + "/nosuchdir/stream", &files)
                  .ok());
  EXPECT_TRUE(files.empty());
}

TEST(CommandLogStreamerTest, DoubleStartRejected) {
  TempDir dir;
  CommitLog log;
  CommandLogStreamer streamer(&log);
  ASSERT_TRUE(streamer.Start(dir.path() + "/s1", 5).ok());
  EXPECT_FALSE(streamer.Start(dir.path() + "/s2", 5).ok());
  EXPECT_TRUE(streamer.Stop().ok());
  EXPECT_TRUE(streamer.Stop().ok());  // idempotent
}

// A releasing streamer bounds the log. Two appenders and a coordinator
// run 1000 checkpoint-sized rounds (five phase tokens and 200 commits
// each); like a checkpoint cycle's durability barrier, each round waits
// until the streamer has fsynced it. The log's resident bytes stay under
// a few segments although many times that is appended, and the
// generation holds every commit exactly once, in append order.
TEST(CommandLogStreamerTest, ReleasingStreamerKeepsResidentBytesBounded) {
  TempDir dir;
  CommitLog log;
  PhaseController phases;
  CommandLogStreamer streamer(&log, LogRetention::kReleaseFlushed);
  ASSERT_TRUE(streamer.Start(dir.path() + "/stream", 1).ok());
  const int kRounds = 1000;
  const uint64_t kPerRound = 100;  // commits per appender per round
  std::atomic<int> round{0};
  std::atomic<int> appender_rounds_done{0};
  std::vector<std::thread> appenders;
  for (uint64_t t = 0; t < 2; ++t) {
    appenders.emplace_back([&, t] {
      for (int r = 1; r <= kRounds; ++r) {
        while (round.load(std::memory_order_acquire) < r) {
          std::this_thread::yield();
        }
        for (uint64_t i = 0; i < kPerRound; ++i) {
          Phase commit_phase;
          log.AppendCommit(t * 1000000 + (r - 1) * kPerRound + i, 1,
                           std::string(64, 'c'), &phases, &commit_phase);
        }
        appender_rounds_done.fetch_add(1, std::memory_order_release);
      }
    });
  }
  int64_t peak = 0;
  for (int r = 1; r <= kRounds; ++r) {
    round.store(r, std::memory_order_release);
    for (Phase p : {Phase::kPrepare, Phase::kResolve, Phase::kCapture,
                    Phase::kComplete, Phase::kRest}) {
      log.AppendPhaseTransition(p, static_cast<uint64_t>(r), &phases);
      peak = std::max(peak, log.ResidentBytes());
    }
    while (appender_rounds_done.load(std::memory_order_acquire) < 2 * r) {
      std::this_thread::yield();
    }
    const uint64_t end = log.Size();
    while (streamer.persisted_lsn() < end) {
      peak = std::max(peak, log.ResidentBytes());
      SleepMicros(100);
    }
  }
  for (std::thread& t : appenders) t.join();
  ASSERT_TRUE(streamer.Stop().ok());
  const int64_t bound = 4 * CommitLog::kSegmentBytes;
  EXPECT_LE(peak, bound);
  EXPECT_EQ(log.ReleaseHorizon(), log.Size());  // Stop drained it all
  EXPECT_GT(std::filesystem::file_size(streamer.active_path()),
            static_cast<uintmax_t>(8 * bound));

  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(streamer.active_path()).ok());
  ASSERT_EQ(loaded.Size(), log.Size());
  std::vector<LogEntry> commits = loaded.CommitsFrom(0);
  ASSERT_EQ(commits.size(), 2 * kRounds * kPerRound);
  std::set<uint64_t> seen;
  uint64_t next[2] = {0, 1000000};
  for (const LogEntry& e : commits) {
    EXPECT_TRUE(seen.insert(e.txn_id).second) << e.txn_id;
    uint64_t& want = next[e.txn_id >= 1000000 ? 1 : 0];
    EXPECT_EQ(e.txn_id, want);
    want = e.txn_id + 1;
  }
}

// Without a command_log_path the in-memory log is the only copy: nothing
// releases it, checkpoints included, so every entry stays readable.
TEST(StreamedRecoveryTest, DatabaseWithoutCommandLogKeepsWholeLog) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 100;
  config.value_size = 16;
  config.ops_per_txn = 2;
  Options options;
  options.max_records = 512;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());
  MicrobenchWorkload workload(config);
  Rng rng(11);
  Txn first;
  for (int i = 0; i < 10000; ++i) {
    TxnRequest req = workload.Next(rng);
    ASSERT_TRUE(db->executor()
                    ->Execute(req.proc_id, std::move(req.args), 0,
                              i == 0 ? &first : nullptr)
                    .ok());
    if (i == 5000) ASSERT_TRUE(db->Checkpoint().ok());
  }
  const CommitLog& log = *db->commit_log();
  EXPECT_EQ(log.ReleaseHorizon(), 0u);
  EXPECT_EQ(log.CommitCount(), 10000u);
  LogEntry e = log.Entry(0);
  EXPECT_EQ(e.type, LogEntry::Type::kCommit);
  EXPECT_EQ(e.txn_id, first.txn_id);
  EXPECT_EQ(log.CommitsFrom(0).size(), 10000u);
}

// With a command_log_path the Database's streamer releases what it has
// made durable; the log keeps counting LSNs across the release.
TEST(StreamedRecoveryTest, StreamingDatabaseReleasesDurablePrefix) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 100;
  config.value_size = 16;
  config.ops_per_txn = 10;
  Options options;
  options.max_records = 512;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.command_log_path = dir.path() + "/commandlog";
  options.command_log_flush_ms = 1;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());
  MicrobenchWorkload workload(config);
  Rng rng(12);
  // Past one segment, so the streamer has a whole segment to release.
  const int kTxns = 20000;
  for (int i = 0; i < kTxns; ++i) {
    TxnRequest req = workload.Next(rng);
    ASSERT_TRUE(
        db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
  }
  const CommitLog& log = *db->commit_log();
  const uint64_t end = log.Size();
  while (db->command_log_streamer()->persisted_lsn() < end) {
    SleepMicros(1000);
  }
  EXPECT_GT(log.ReleaseHorizon(), 0u);
  EXPECT_THROW(log.Entry(0), std::out_of_range);
  EXPECT_EQ(log.CommitCount(), static_cast<uint64_t>(kTxns));
  EXPECT_LE(log.ResidentBytes(),
            static_cast<int64_t>(3 * CommitLog::kSegmentBytes));
}

#if CALCDB_OBS_ENABLED
// The log's resident bytes reach the StatsReporter JSONL as a gauge.
TEST(StreamedRecoveryTest, StatsJsonlReportsLogResidentBytes) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 100;
  config.value_size = 16;
  config.ops_per_txn = 2;
  Options options;
  options.max_records = 512;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.command_log_path = dir.path() + "/commandlog";
  options.stats_dump_period_ms = 10;
  options.stats_dump_path = dir.path() + "/stats.jsonl";
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());
  MicrobenchWorkload workload(config);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    TxnRequest req = workload.Next(rng);
    ASSERT_TRUE(
        db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
  }
  SleepMicros(50000);
  ASSERT_TRUE(db->Shutdown().ok());
  std::ifstream in(options.stats_dump_path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"calcdb.log.resident_bytes\""), std::string::npos);
  }
  EXPECT_GE(lines, 1u);
}
#endif  // CALCDB_OBS_ENABLED

// The registration durability barrier: a checkpoint may enter the
// manifest only after its RESOLVE token's flush batch is fsynced.
// Without the barrier, Checkpoint() returns within a flush interval of
// appending the token, and a crash in that window leaves a registered
// checkpoint whose token is in no generation — recovery's anchor rule
// would then silently skip later lifetimes' durable commits.
TEST(StreamedRecoveryTest, CheckpointRegistrationWaitsForTokenDurability) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 100;
  config.value_size = 32;
  config.ops_per_txn = 3;

  Options options;
  options.max_records = 512;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.command_log_path = dir.path() + "/commandlog";
  // A flush interval far longer than a checkpoint cycle: when the cycle
  // reaches registration, nothing it logged is durable yet, so only the
  // barrier can make the postcondition below hold.
  options.command_log_flush_ms = 250;

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
  ASSERT_TRUE(db->Start().ok());
  MicrobenchWorkload workload(config);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    TxnRequest req = workload.Next(rng);
    ASSERT_TRUE(
        db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  std::vector<CheckpointInfo> chain =
      db->checkpoint_storage()->RecoveryChain();
  ASSERT_EQ(chain.size(), 1u);
  // The token at vpoc_lsn is durable before the cycle returned.
  EXPECT_GT(db->command_log_streamer()->persisted_lsn(),
            chain[0].vpoc_lsn);
}

TEST(StreamedRecoveryTest, DatabaseRecoversFromStreamedLog) {
  TempDir dir;
  MicrobenchConfig config;
  config.num_records = 300;
  config.value_size = 64;
  config.ops_per_txn = 5;

  Options options;
  options.max_records = 1024;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path() + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.command_log_path = dir.path() + "/commandlog";
  options.command_log_flush_ms = 1;

  testing_util::StateMap pre_crash;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    ASSERT_TRUE(SetupMicrobench(db.get(), config).ok());
    ASSERT_TRUE(db->Start().ok());
    ASSERT_NE(db->command_log_streamer(), nullptr);

    MicrobenchWorkload workload(config);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < 150; ++i) {
      TxnRequest req = workload.Next(rng);
      ASSERT_TRUE(
          db->executor()->Execute(req.proc_id, std::move(req.args), 0).ok());
    }
    pre_crash = DbToMap(db.get());
    // Graceful shutdown flushes the streamed log; the Database destructor
    // would do the same.
    ASSERT_TRUE(db->Shutdown().ok());
  }

  std::unique_ptr<Database> recovered;
  ASSERT_TRUE(Database::Open(options, &recovered).ok());
  recovered->registry()->Register(
      std::make_unique<RmwProcedure>(config.value_size));
  recovered->registry()->Register(
      std::make_unique<BatchWriteProcedure>(config.value_size));
  RecoveryStats stats;
  ASSERT_TRUE(recovered->RecoverFromCommandLog(&stats).ok());
  EXPECT_GT(stats.txns_replayed, 0u);
  EXPECT_EQ(stats.log_generations_replayed, 1u);
  // Start() opens the *next* generation instead of truncating the one
  // just replayed (the restart-clobber fix): the pre-crash tail stays on
  // disk until a post-restart checkpoint covers it.
  EXPECT_TRUE(recovered->Start().ok());
  std::vector<std::string> generations;
  ASSERT_TRUE(CommandLogStreamer::ListLogFiles(options.command_log_path,
                                               &generations)
                  .ok());
  ASSERT_EQ(generations.size(), 2u);
  EXPECT_EQ(recovered->command_log_streamer()->active_path(),
            generations[1]);
  EXPECT_EQ(DbToMap(recovered.get()), pre_crash);
}

}  // namespace
}  // namespace calcdb
