// Race-hunt stress suite: deliberately drives the paper's hairiest
// interleavings so that sanitizer builds (CALCDB_SANITIZE=thread, see
// CONTRIBUTING.md "Correctness tooling") exercise every hand-rolled
// synchronization path in anger:
//
//  R1. Mutator-vs-checkpointer on the *same* records across every
//      algorithm's phase transitions — a tiny, fully-hot keyspace and
//      back-to-back checkpoints maximize collisions on the per-record
//      micro-latch, the stable-status stamps, and the dirty trackers.
//  R2. DualSenseBitVector sense swap racing concurrent Set/Test.
//  R3. Value Ref/Unref storms over the pooled allocator: final readers
//      racing the freeing thread is exactly what the acq_rel decrement
//      ordering (value.h) must make safe.
//  R4. Command-log "rotation": streamer stop/start onto fresh files while
//      appenders and phase transitions keep hitting the commit log.
//  R5. PhaseController begin/end storm against phase transitions driven
//      through the commit log latch.
//  R7. Parallel replay worker pool (recovery/replay_scheduler.h): a
//      conflict-heavy transfer log replayed at 4 threads, so TSan watches
//      the ticket spins, the queue handoff, and concurrent Executor::Replay
//      on disjoint footprints. Balance conservation + serial equivalence
//      are the invariants a racing schedule would corrupt.
//
// Without a sanitizer these still assert end-state invariants (replay
// equivalence, exact refcount accounting, loadable log files), so the
// suite is meaningful — just far weaker — in plain builds.

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "log/command_log_streamer.h"
#include "log/commit_log.h"
#include "recovery/recovery_manager.h"
#include "storage/kv_store.h"
#include "storage/value.h"
#include "tests/test_util.h"
#include "txn/procedure.h"
#include "txn/txn_context.h"
#include "util/bitvec.h"
#include "util/clock.h"
#include "util/rng.h"
#include "workload/microbench.h"

namespace calcdb {
namespace {

using testing_util::DbToMap;
using testing_util::ScaledThreshold;
using testing_util::StateMap;
using testing_util::TempDir;

int ScaledIters(int n) {
  return static_cast<int>(
      ScaledThreshold(static_cast<uint64_t>(n), /*min=*/200));
}

// ---------------------------------------------------------------------------
// R1: mutators and the checkpointer racing on the same records, across all
// algorithms' phase transitions.
// ---------------------------------------------------------------------------

class RaceHuntCheckpointTest
    : public ::testing::TestWithParam<CheckpointAlgorithm> {};

TEST_P(RaceHuntCheckpointTest, MutatorVsCheckpointerSameRecords) {
  const CheckpointAlgorithm algorithm = GetParam();
#if CALCDB_TSAN
  if (algorithm == CheckpointAlgorithm::kFork) {
    GTEST_SKIP() << "TSan does not instrument the forked child, and "
                    "multi-threaded fork under TSan is unsupported";
  }
#endif
  TempDir dir;
  MicrobenchConfig workload_config;
  // Tiny, fully hot keyspace: every transaction collides with the capture
  // scan and with other mutators on the same records.
  workload_config.num_records = 48;
  workload_config.value_size = 40;
  workload_config.ops_per_txn = 6;
  workload_config.hot_fraction = 1.0;

  Options options;
  options.max_records = workload_config.num_records + 8;
  options.algorithm = algorithm;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), workload_config).ok());
  ASSERT_TRUE(db->WriteBaseCheckpoint().ok());
  ASSERT_TRUE(db->Start().ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 3; ++t) {
    mutators.emplace_back([&, t] {
      Rng rng(91u + static_cast<uint64_t>(t));
      uint64_t keys[6];
      while (!stop.load(std::memory_order_acquire)) {
        uint32_t n =
            2 + static_cast<uint32_t>(rng.Uniform(
                    static_cast<uint64_t>(workload_config.ops_per_txn - 1)));
        for (uint32_t i = 0; i < n; ++i) {
          keys[i] = rng.Uniform(workload_config.num_records);
        }
        db->executor()
            ->Execute(kRmwProcId, RmwProcedure::MakeArgs(keys, n), 0)
            .ok();
      }
    });
  }

  // Back-to-back checkpoints: each one walks REST -> PREPARE -> RESOLVE ->
  // CAPTURE -> COMPLETE (or this algorithm's equivalent) under mutator
  // fire, so every phase transition races live Set/Test/install traffic.
  const int kCheckpoints =
      static_cast<int>(ScaledThreshold(6, /*min=*/2));
  for (int c = 0; c < kCheckpoints; ++c) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : mutators) t.join();

  // End-state invariant: the live state equals a serial replay of the
  // commit log — the property every race would eventually corrupt.
  StateMap live = DbToMap(db.get());
  StateMap replayed = testing_util::ReplayGroundTruth(
      *db->commit_log(), db->commit_log()->Size(), options,
      [&](Database* fresh) {
        ASSERT_TRUE(SetupMicrobench(fresh, workload_config).ok());
      });
  EXPECT_EQ(live, replayed);
}

// R6: parallel segmented capture (4 shards, 4 capture threads) racing
// mutators. The capture workers take one shard each and run the CALC
// capture hook concurrently with each other *and* with post-VPoC writers
// installing stable versions — the exact interleaving pCALC's per-record
// latch and stable-status stamps must make safe. End-state replay
// equivalence plus a chain audit (every segment footer + CRC intact,
// chain state equals the ground truth at the last VPoC) catch torn or
// double-captured slots.
class RaceHuntParallelCaptureTest
    : public ::testing::TestWithParam<CheckpointAlgorithm> {};

void RunSegmentedCaptureRace(CheckpointAlgorithm algo, bool async_io) {
  TempDir dir;
  MicrobenchConfig workload_config;
  workload_config.num_records = 48;
  workload_config.value_size = 40;
  workload_config.ops_per_txn = 6;
  workload_config.hot_fraction = 1.0;

  Options options;
  options.max_records = workload_config.num_records + 8;
  options.algorithm = algo;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;
  options.storage_shards = 4;
  options.capture_threads = 4;
  if (async_io) {
    options.ckpt_async_io = 1;
    // Tiny blocks force many capture-thread <-> I/O-thread handoffs per
    // segment, so the double-buffer protocol itself is what gets raced.
    options.ckpt_block_bytes = 512;
  }

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  ASSERT_TRUE(SetupMicrobench(db.get(), workload_config).ok());
  ASSERT_TRUE(db->WriteBaseCheckpoint().ok());
  ASSERT_TRUE(db->Start().ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 3; ++t) {
    mutators.emplace_back([&, t] {
      Rng rng(73u + static_cast<uint64_t>(t));
      uint64_t keys[6];
      while (!stop.load(std::memory_order_acquire)) {
        uint32_t n =
            2 + static_cast<uint32_t>(rng.Uniform(
                    static_cast<uint64_t>(workload_config.ops_per_txn - 1)));
        for (uint32_t i = 0; i < n; ++i) {
          keys[i] = rng.Uniform(workload_config.num_records);
        }
        db->executor()
            ->Execute(kRmwProcId, RmwProcedure::MakeArgs(keys, n), 0)
            .ok();
      }
    });
  }

  const int kCheckpoints =
      static_cast<int>(ScaledThreshold(6, /*min=*/2));
  for (int c = 0; c < kCheckpoints; ++c) {
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : mutators) t.join();

  StateMap live = DbToMap(db.get());
  StateMap replayed = testing_util::ReplayGroundTruth(
      *db->commit_log(), db->commit_log()->Size(), options,
      [&](Database* fresh) {
        ASSERT_TRUE(SetupMicrobench(fresh, workload_config).ok());
      });
  EXPECT_EQ(live, replayed);

  // Chain audit: the segmented chain must materialize exactly the ground
  // truth at the final checkpoint's point of consistency.
  std::vector<CheckpointInfo> chain =
      db->checkpoint_storage()->RecoveryChain();
  ASSERT_FALSE(chain.empty());
  EXPECT_FALSE(chain.back().segments.empty());
  StateMap from_chain;
  ASSERT_TRUE(testing_util::ChainToMap(chain, &from_chain).ok());
  StateMap at_vpoc = testing_util::ReplayGroundTruth(
      *db->commit_log(), chain.back().vpoc_lsn, options,
      [&](Database* fresh) {
        ASSERT_TRUE(SetupMicrobench(fresh, workload_config).ok());
      });
  EXPECT_EQ(from_chain, at_vpoc);
}

TEST_P(RaceHuntParallelCaptureTest, SegmentedCaptureVsMutators) {
  RunSegmentedCaptureRace(GetParam(), /*async_io=*/false);
}

// Same 4-way segmented capture under mutator fire, but with the
// double-buffered async segment writer on: each capture thread hands
// sealed blocks to its dedicated I/O thread, so TSan gets to watch the
// handoff protocol (mutex/condvar swap, io_status_ propagation) under
// real contention.
TEST_P(RaceHuntParallelCaptureTest, SegmentedAsyncCaptureVsMutators) {
  RunSegmentedCaptureRace(GetParam(), /*async_io=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    CalcVariants, RaceHuntParallelCaptureTest,
    ::testing::Values(CheckpointAlgorithm::kCalc,
                      CheckpointAlgorithm::kPCalc),
    [](const ::testing::TestParamInfo<CheckpointAlgorithm>& info) {
      return AlgorithmName(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, RaceHuntCheckpointTest,
    ::testing::Values(
        CheckpointAlgorithm::kCalc, CheckpointAlgorithm::kPCalc,
        CheckpointAlgorithm::kNaive, CheckpointAlgorithm::kPNaive,
        CheckpointAlgorithm::kFuzzy, CheckpointAlgorithm::kPFuzzy,
        CheckpointAlgorithm::kIpp, CheckpointAlgorithm::kPIpp,
        CheckpointAlgorithm::kZigzag, CheckpointAlgorithm::kPZigzag,
        CheckpointAlgorithm::kMvcc, CheckpointAlgorithm::kFork),
    [](const ::testing::TestParamInfo<CheckpointAlgorithm>& info) {
      return AlgorithmName(info.param);
    });

// ---------------------------------------------------------------------------
// R2: dual-bitvec sense swap racing concurrent Set/Test.
// ---------------------------------------------------------------------------

TEST(RaceHuntTest, DualSenseSwapDuringSetAndTest) {
  constexpr size_t kBits = 256;
  DualSenseBitVector vec(kBits);
  std::atomic<bool> stop{false};
  const int kIters = ScaledIters(20000);

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(17u + static_cast<uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        size_t bit = rng.Uniform(kBits);
        switch (rng.Uniform(3)) {
          case 0:
            vec.SetAvailable(bit);
            break;
          case 1:
            vec.SetNotAvailable(bit);
            break;
          default:
            vec.TestAndSetAvailable(bit);
            break;
        }
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(23);
    while (!stop.load(std::memory_order_acquire)) {
      (void)vec.IsAvailable(rng.Uniform(kBits));
    }
  });
  threads.emplace_back([&] {
    // The paper's SwapAvailableAndNotAvailable, fired continuously. The
    // real system only swaps at a phase boundary; the storm checks the
    // *memory* safety of the raw operations, not phase discipline.
    while (!stop.load(std::memory_order_acquire)) {
      vec.SwapSense();
      std::this_thread::yield();
    }
  });
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();
  EXPECT_TRUE(vec.available_raw() == 0 || vec.available_raw() == 1);
}

// ---------------------------------------------------------------------------
// R3: stable-value Ref/Unref storms over the pool.
// ---------------------------------------------------------------------------

TEST(RaceHuntTest, ValueRefUnrefStormWithPool) {
  ValuePool pool;
  const int kThreads = 4;
  const int kRounds = ScaledIters(4000);
  const std::string payload(96, 'v');

  for (int round = 0; round < kRounds / 100; ++round) {
    std::vector<Value*> values;
    for (int i = 0; i < 100; ++i) {
      values.push_back(Value::Create(payload, &pool));
    }
    // Each thread shares every value (pre-refed on its behalf by the main
    // thread, so no thread ever refs through a pointer it doesn't own).
    for (Value* v : values) {
      for (int t = 0; t < kThreads; ++t) Value::Ref(v);
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(31u + static_cast<uint64_t>(t));
        for (Value* v : values) {
          // Read the buffer right up to the final release: the freeing
          // thread must synchronize with these reads via the acq_rel
          // refcount decrement.
          ASSERT_EQ(v->data().size(), payload.size());
          ASSERT_EQ(v->data()[rng.Uniform(payload.size())], 'v');
          // Copy/drop churn through the RAII handle as well.
          ValueRef ref = ValueRef::Share(v);
          ASSERT_TRUE(static_cast<bool>(ref));
          Value::Unref(v);  // drop the pre-provided reference
        }
      });
    }
    // Main thread races its own final unrefs against the workers.
    for (Value* v : values) Value::Unref(v);
    for (auto& t : threads) t.join();
  }
  // Every block must have been freed into the pool: refcount accounting
  // lost nothing, leaked nothing.
  EXPECT_GT(pool.FreeBlocks(), 0u);
}

// ---------------------------------------------------------------------------
// R4: command-log rotation (streamer stop/start onto fresh files) during
// concurrent appends and phase transitions.
// ---------------------------------------------------------------------------

TEST(RaceHuntTest, LogRotationDuringAppend) {
  TempDir dir;
  CommitLog log;
  PhaseController phases;
  std::atomic<bool> stop{false};
  const int kAppends = ScaledIters(4000);

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppends; ++i) {
        Phase commit_phase;
        log.AppendCommit(static_cast<uint64_t>(t) * 1000000 + i,
                         /*proc_id=*/1, std::string(32, 'a'), &phases,
                         &commit_phase);
      }
    });
  }
  threads.emplace_back([&] {
    uint64_t ckpt = 1;
    while (!stop.load(std::memory_order_acquire)) {
      for (Phase p : {Phase::kPrepare, Phase::kResolve, Phase::kCapture,
                      Phase::kComplete, Phase::kRest}) {
        log.AppendPhaseTransition(p, ckpt, &phases);
      }
      ++ckpt;
      SleepMicros(200);
    }
  });

  // Rotate the streamer across files while the log is being appended to.
  // Each Start opens a fresh generation of its base path; record the
  // actual generation file (active_path) so the load below reads what
  // was written.
  std::vector<std::string> files;
  CommandLogStreamer streamer(&log);
  const int kRotations = 5;
  for (int r = 0; r < kRotations; ++r) {
    const std::string base = dir.path() + "/commandlog." + std::to_string(r);
    ASSERT_TRUE(streamer.Start(base, /*flush_interval_ms=*/1).ok());
    files.push_back(streamer.active_path());
    SleepMicros(testing_util::ScaledMicros(20000));
    ASSERT_TRUE(streamer.Stop().ok());
  }

  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();

  // The final generation re-streamed the log from LSN 0 and was stopped
  // after the appenders finished their writes-so-far; every file must be
  // loadable (framing and CRCs intact) — a torn tail would mean rotation
  // raced the writer thread's buffer.
  for (const std::string& file : files) {
    CommitLog loaded;
    ASSERT_TRUE(loaded.LoadFrom(file).ok()) << file;
  }
  // No append was lost or duplicated by the rotation storm.
  EXPECT_EQ(log.CommitsFrom(0).size(), static_cast<size_t>(2 * kAppends));
}

// ---------------------------------------------------------------------------
// R5: PhaseController begin/end storm against latch-driven transitions.
// ---------------------------------------------------------------------------

TEST(RaceHuntTest, PhaseControllerBeginEndStorm) {
  CommitLog log;
  PhaseController phases;
  std::atomic<bool> stop{false};
  const int kIters = ScaledIters(20000);

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Phase start = phases.BeginTxn();
        // The phase may move underneath us; BeginTxn's retry loop
        // guarantees we were counted under `start`, so EndTxn(start) keeps
        // the books balanced no matter how the transition raced us.
        phases.EndTxn(start);
      }
    });
  }
  threads.emplace_back([&] {
    uint64_t ckpt = 1;
    while (!stop.load(std::memory_order_acquire)) {
      for (Phase p : {Phase::kPrepare, Phase::kResolve, Phase::kCapture,
                      Phase::kComplete, Phase::kRest}) {
        log.AppendPhaseTransition(p, ckpt, &phases);
      }
      ++ckpt;
    }
  });
  for (int t = 0; t < 3; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads[3].join();

  EXPECT_EQ(phases.TotalActive(), 0)
      << "begin/end storm leaked an active-txn count across a transition";
  for (int p = 0; p < kNumPhases; ++p) {
    EXPECT_EQ(phases.ActiveIn(static_cast<Phase>(p)), 0);
  }
}

// ---------------------------------------------------------------------------
// R7: parallel replay worker pool under a conflict-heavy transfer log.
// ---------------------------------------------------------------------------

/// Moves `amount` from `src` to `dst`; balances are 8-byte little-endian
/// counters, so the total is conserved modulo 2^64 under any serial order
/// — but NOT under a racing (non-serializable) interleaving of the two
/// read-modify-writes, which is exactly what the ticket rule must
/// prevent when src/dst pairs overlap across commands.
constexpr uint32_t kTransferProcId = 91;
class TransferProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kTransferProcId; }
  const char* name() const override { return "transfer"; }

  void GetKeys(std::string_view args, KeySets* sets) const override {
    uint64_t src, dst;
    std::memcpy(&src, args.data(), 8);
    std::memcpy(&dst, args.data() + 8, 8);
    sets->write_keys.push_back(src);
    sets->write_keys.push_back(dst);
  }

  Status Run(TxnContext& ctx, std::string_view args) const override {
    uint64_t src, dst, amount;
    std::memcpy(&src, args.data(), 8);
    std::memcpy(&dst, args.data() + 8, 8);
    std::memcpy(&amount, args.data() + 16, 8);
    if (src == dst) return Status::OK();  // self-transfer: no-op
    std::string src_value, dst_value;
    CALCDB_RETURN_NOT_OK(ctx.Read(src, &src_value));
    CALCDB_RETURN_NOT_OK(ctx.Read(dst, &dst_value));
    uint64_t src_balance, dst_balance;
    std::memcpy(&src_balance, src_value.data(), 8);
    std::memcpy(&dst_balance, dst_value.data(), 8);
    src_balance -= amount;
    dst_balance += amount;
    std::memcpy(src_value.data(), &src_balance, 8);
    std::memcpy(dst_value.data(), &dst_balance, 8);
    CALCDB_RETURN_NOT_OK(ctx.Write(src, src_value));
    return ctx.Write(dst, dst_value);
  }

  static std::string MakeArgs(uint64_t src, uint64_t dst, uint64_t amount) {
    std::string out(24, '\0');
    std::memcpy(out.data(), &src, 8);
    std::memcpy(out.data() + 8, &dst, 8);
    std::memcpy(out.data() + 16, &amount, 8);
    return out;
  }
};

TEST(RaceHuntTest, ParallelReplayTransfersConserveBalance) {
  const uint64_t kAccounts = 48;
  const uint64_t kInitialBalance = 1000000;
  const uint64_t kTransfers =
      ScaledThreshold(6000, /*min=*/500);

  ProcedureRegistry registry;
  registry.Register(std::make_unique<TransferProcedure>());

  CommitLog log;
  Rng rng(47);
  for (uint64_t t = 0; t < kTransfers; ++t) {
    uint64_t src = rng.Uniform(kAccounts);
    uint64_t dst = rng.Uniform(kAccounts);
    uint64_t amount = rng.Uniform(200);
    log.AppendCommit(t + 1, kTransferProcId,
                     TransferProcedure::MakeArgs(src, dst, amount));
  }

  auto replay = [&](int threads, RecoveryStats* stats) {
    auto store = std::make_unique<ShardedStore>(kAccounts + 8);
    std::string balance(8, '\0');
    for (uint64_t a = 0; a < kAccounts; ++a) {
      std::memcpy(balance.data(), &kInitialBalance, 8);
      EXPECT_TRUE(store->Put(a, balance).ok());
    }
    EXPECT_TRUE(
        RecoveryManager::ReplayLog(log, registry, store.get(), stats,
                                   threads)
            .ok());
    return store;
  };

  RecoveryStats serial_stats, parallel_stats;
  auto serial = replay(1, &serial_stats);
  auto parallel = replay(4, &parallel_stats);

  // Balance conservation: any lost or doubled update shifts the sum.
  uint64_t total = 0;
  std::string value;
  for (uint64_t a = 0; a < kAccounts; ++a) {
    ASSERT_TRUE(parallel->Get(a, &value).ok());
    uint64_t b;
    std::memcpy(&b, value.data(), 8);
    total += b;
  }
  EXPECT_EQ(total, kAccounts * kInitialBalance);

  // And per-account equality with the serial replay (stronger: the
  // schedules were equivalent, not merely sum-preserving).
  std::string serial_value;
  for (uint64_t a = 0; a < kAccounts; ++a) {
    ASSERT_TRUE(serial->Get(a, &serial_value).ok());
    ASSERT_TRUE(parallel->Get(a, &value).ok());
    EXPECT_EQ(serial_value, value) << "account " << a;
  }
  EXPECT_EQ(serial_stats.txns_replayed, kTransfers);
  EXPECT_EQ(parallel_stats.txns_replayed, kTransfers);
}

}  // namespace
}  // namespace calcdb
