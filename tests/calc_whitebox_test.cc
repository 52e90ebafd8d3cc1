// White-box tests of CALC's internals: phase-token sequencing in the
// commit log, stable-version lifecycle across controlled transaction
// interleavings, the prepare-phase commit fixup, insert/delete handling
// via the absent marker, and pCALC's dirty-set routing.
//
// These tests orchestrate transactions that deliberately *straddle* phase
// boundaries by running them on separate threads and gating their commits
// on the checkpoint cycle's progress.

#include <atomic>
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
using testing_util::StateMap;
using testing_util::TempDir;

// Procedure that writes one key and then *waits* until released — used to
// hold a transaction active across phase transitions.
// args: [u64 key][u64 pointer-to-atomic-release-flag][payload]. Passing a
// pointer through args is test-only plumbing (never replayed).
constexpr uint32_t kHoldProcId = 300;
constexpr uint32_t kPutProcId = 301;
constexpr uint32_t kDelProcId = 302;

class HoldProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kHoldProcId; }
  const char* name() const override { return "hold"; }
  void GetKeys(std::string_view args, KeySets* sets) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    sets->write_keys.push_back(key);
  }
  Status Run(TxnContext& ctx, std::string_view args) const override {
    uint64_t key;
    uintptr_t flag_bits;
    memcpy(&key, args.data(), 8);
    memcpy(&flag_bits, args.data() + 8, 8);
    CALCDB_RETURN_NOT_OK(ctx.Write(key, args.substr(16)));
    auto* release = reinterpret_cast<std::atomic<bool>*>(flag_bits);
    while (release != nullptr &&
           !release->load(std::memory_order_acquire)) {
      SleepMicros(200);
    }
    return Status::OK();
  }
};

class PutProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kPutProcId; }
  const char* name() const override { return "put"; }
  void GetKeys(std::string_view args, KeySets* sets) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    sets->write_keys.push_back(key);
  }
  Status Run(TxnContext& ctx, std::string_view args) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    return ctx.Write(key, args.substr(8));
  }
};

class DelProcedure : public StoredProcedure {
 public:
  uint32_t id() const override { return kDelProcId; }
  const char* name() const override { return "del"; }
  void GetKeys(std::string_view args, KeySets* sets) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    sets->write_keys.push_back(key);
  }
  Status Run(TxnContext& ctx, std::string_view args) const override {
    uint64_t key;
    memcpy(&key, args.data(), 8);
    return ctx.Delete(key);
  }
};

std::string KeyArgs(uint64_t key, std::string_view payload = "") {
  std::string args(reinterpret_cast<const char*>(&key), 8);
  args.append(payload);
  return args;
}

std::string HoldArgs(uint64_t key, std::atomic<bool>* release,
                     std::string_view payload) {
  std::string args(reinterpret_cast<const char*>(&key), 8);
  uintptr_t flag_bits = reinterpret_cast<uintptr_t>(release);
  args.append(reinterpret_cast<const char*>(&flag_bits), 8);
  args.append(payload);
  return args;
}

std::unique_ptr<Database> MakeDb(const std::string& dir,
                                 CheckpointAlgorithm algo,
                                 uint64_t initial_keys) {
  Options options;
  options.max_records = 4096;
  options.algorithm = algo;
  options.checkpoint_dir = dir;
  options.disk_bytes_per_sec = 0;
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(options, &db).ok());
  db->registry()->Register(std::make_unique<HoldProcedure>());
  db->registry()->Register(std::make_unique<PutProcedure>());
  db->registry()->Register(std::make_unique<DelProcedure>());
  for (uint64_t k = 0; k < initial_keys; ++k) {
    EXPECT_TRUE(db->Load(k, "v0_" + std::to_string(k)).ok());
  }
  EXPECT_TRUE(db->Start().ok());
  return db;
}

StateMap NewestCheckpoint(Database* db) {
  StateMap out;
  std::vector<CheckpointInfo> all = db->checkpoint_storage()->List();
  EXPECT_FALSE(all.empty());
  std::vector<CheckpointInfo> last(all.end() - 1, all.end());
  EXPECT_TRUE(ChainToMap(last, &out).ok());
  return out;
}

TEST(CalcWhiteboxTest, PhaseTokensAppearInOrder) {
  TempDir dir;
  auto db = MakeDb(dir.path(), CheckpointAlgorithm::kCalc, 10);
  ASSERT_TRUE(db->Checkpoint().ok());
  // Expect PREPARE, RESOLVE, CAPTURE, COMPLETE, REST tokens for ckpt 1.
  uint64_t ckpt_id = db->checkpoint_storage()->List()[0].id;
  uint64_t prev = 0;
  for (Phase phase : {Phase::kPrepare, Phase::kResolve, Phase::kCapture,
                      Phase::kComplete, Phase::kRest}) {
    uint64_t lsn = 0;
    ASSERT_TRUE(db->commit_log()->FindPhaseToken(ckpt_id, phase, &lsn))
        << PhaseName(phase);
    EXPECT_GE(lsn, prev);
    prev = lsn;
  }
  // The manifest's vpoc_lsn is the RESOLVE token.
  uint64_t resolve_lsn = 0;
  ASSERT_TRUE(db->commit_log()->FindPhaseToken(ckpt_id, Phase::kResolve,
                                               &resolve_lsn));
  EXPECT_EQ(db->checkpoint_storage()->List()[0].vpoc_lsn, resolve_lsn);
}

TEST(CalcWhiteboxTest, PhaseReturnsToRestAndSystemIsReusable) {
  TempDir dir;
  auto db = MakeDb(dir.path(), CheckpointAlgorithm::kCalc, 10);
  for (int c = 0; c < 5; ++c) {
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->phases()->current(), Phase::kRest);
  }
  EXPECT_EQ(db->checkpoint_storage()->List().size(), 5u);
}

// A transaction that starts in PREPARE and commits in RESOLVE must have
// its pre-write value captured; one committing in PREPARE must not.
TEST(CalcWhiteboxTest, PrepareStraddlerCapturedPreWriteValue) {
  TempDir dir;
  auto db = MakeDb(dir.path(), CheckpointAlgorithm::kCalc, 10);

  std::atomic<bool> release{false};

  // Holder txn: will start in REST (before the cycle), holding the
  // PREPARE phase open long enough for the straddler to start in PREPARE.
  std::thread holder([&] {
    db->executor()
        ->Execute(kHoldProcId, HoldArgs(5, &release, "hold_v"), 0)
        .ok();
  });
  SleepMicros(20000);  // holder is now active, in REST

  std::thread ckpt([&] { db->Checkpoint().ok(); });
  // The cycle enters PREPARE and waits for the holder (REST-start).
  while (db->phases()->current() != Phase::kPrepare) SleepMicros(500);

  // Straddler: starts in PREPARE, writes key 3, and because the holder
  // keeps PREPARE open, we can release the holder only after the
  // straddler has begun — it will commit in RESOLVE (the VPoC passes
  // while it runs).
  std::atomic<bool> straddler_started{false};
  std::thread straddler([&] {
    straddler_started = true;
    // Uses Put (commits as soon as it runs); the phase will have moved to
    // RESOLVE by the time it commits only if the holder drains first, so
    // instead run it as a second holder released after RESOLVE.
    db->executor()->Execute(kPutProcId, KeyArgs(3, "post_vpoc"), 0).ok();
  });
  // Let the straddler run to its commit while still in PREPARE? No: the
  // straddler commits quickly in PREPARE. That's the "committed during
  // PREPARE" case: its write must BE in the checkpoint.
  straddler.join();
  release = true;  // drain the holder -> VPoC happens after both commits
  holder.join();
  ckpt.join();

  StateMap checkpoint = NewestCheckpoint(db.get());
  EXPECT_EQ(checkpoint[3], "post_vpoc");  // committed before the VPoC
  EXPECT_EQ(checkpoint[5], "hold_v");     // holder committed pre-VPoC too
}

// Now the true straddle: a transaction starts in PREPARE and is still
// running when the VPoC passes, so it commits in RESOLVE. Its write must
// NOT appear in the checkpoint; the pre-write value must.
TEST(CalcWhiteboxTest, CommitInResolveExcludedFromCheckpoint) {
  TempDir dir;
  auto db = MakeDb(dir.path(), CheckpointAlgorithm::kCalc, 10);

  std::atomic<bool> release_a{false};
  std::atomic<bool> release_b{false};

  // Holder A keeps the REST->PREPARE barrier open.
  std::thread holder_a([&] {
    db->executor()
        ->Execute(kHoldProcId, HoldArgs(7, &release_a, "a_v"), 0)
        .ok();
  });
  SleepMicros(20000);

  std::thread ckpt([&] { db->Checkpoint().ok(); });
  while (db->phases()->current() != Phase::kPrepare) SleepMicros(500);

  // Holder B starts in PREPARE and writes key 4.
  std::thread holder_b([&] {
    db->executor()
        ->Execute(kHoldProcId, HoldArgs(4, &release_b, "b_resolve_write"),
                  0)
        .ok();
  });
  SleepMicros(30000);  // B is active in PREPARE

  // Drain A: the cycle advances to RESOLVE (the VPoC) while B still runs.
  release_a = true;
  holder_a.join();
  while (db->phases()->current() != Phase::kResolve) SleepMicros(500);

  // B commits in RESOLVE.
  release_b = true;
  holder_b.join();
  ckpt.join();

  StateMap checkpoint = NewestCheckpoint(db.get());
  EXPECT_EQ(checkpoint[4], "v0_4");  // pre-write value, not B's write
  EXPECT_EQ(checkpoint[7], "a_v");   // A committed before the VPoC
  // The live database has B's write.
  std::string value;
  ASSERT_TRUE(db->Read(4, &value).ok());
  EXPECT_EQ(value, "b_resolve_write");
  // And no stable versions linger.
  db->store()->ForEachRecord(
      [&](Record* rec) { EXPECT_EQ(rec->stable, nullptr); });
}

TEST(CalcWhiteboxTest, InsertAfterVpocExcludedDeleteCaptured) {
  TempDir dir;
  auto db = MakeDb(dir.path(), CheckpointAlgorithm::kCalc, 10);

  std::atomic<bool> release{false};
  std::thread holder([&] {
    db->executor()
        ->Execute(kHoldProcId, HoldArgs(1, &release, "h"), 0)
        .ok();
  });
  SleepMicros(20000);
  std::thread ckpt([&] { db->Checkpoint().ok(); });
  while (db->phases()->current() != Phase::kPrepare) SleepMicros(500);
  release = true;
  holder.join();
  // Wait until the capture phase: transactions now start post-VPoC. Poll
  // the log for the CAPTURE token (checkpoint 1 of a fresh database), not
  // the current phase: nothing holds the cycle in CAPTURE, so a phase
  // poll can sleep through the whole phase and then wait forever.
  uint64_t capture_lsn = 0;
  while (!db->commit_log()->FindPhaseToken(1, Phase::kCapture,
                                           &capture_lsn)) {
    SleepMicros(500);
  }

  // Post-VPoC: insert a brand-new key and delete an existing one. If the
  // capture scan is still running these must not corrupt the checkpoint.
  ASSERT_TRUE(
      db->executor()->Execute(kPutProcId, KeyArgs(100, "fresh"), 0).ok());
  ASSERT_TRUE(db->executor()->Execute(kDelProcId, KeyArgs(2), 0).ok());
  ckpt.join();

  StateMap checkpoint = NewestCheckpoint(db.get());
  EXPECT_EQ(checkpoint.count(100), 0u);  // inserted after the VPoC
  EXPECT_EQ(checkpoint[2], "v0_2");      // deleted after the VPoC
  EXPECT_EQ(checkpoint.size(), 10u);
  // Live state reflects both.
  std::string value;
  EXPECT_TRUE(db->Read(100, &value).ok());
  EXPECT_TRUE(db->Read(2, &value).IsNotFound());
}

TEST(CalcWhiteboxTest, StableVersionsFreedIntoPool) {
  TempDir dir;
  Options options;
  options.max_records = 4096;
  options.algorithm = CheckpointAlgorithm::kCalc;
  options.checkpoint_dir = dir.path();
  options.disk_bytes_per_sec = 0;
  options.use_value_pool = true;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  db->registry()->Register(std::make_unique<PutProcedure>());
  db->registry()->Register(std::make_unique<HoldProcedure>());
  db->registry()->Register(std::make_unique<DelProcedure>());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(db->Load(k, "value_" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(db->Start().ok());

  // Write during a checkpoint to force stable-version allocations.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(1);
    while (!stop.load()) {
      db->executor()
          ->Execute(kPutProcId,
                    KeyArgs(rng.Uniform(50), "w" + std::to_string(rng.Next())),
                    0)
          .ok();
    }
  });
  ASSERT_TRUE(db->Checkpoint().ok());
  stop = true;
  writer.join();

  // After the cycle, stable blocks were recycled into the pool.
  ASSERT_NE(db->store()->pool(), nullptr);
  EXPECT_GT(db->store()->pool()->FreeBlocks(), 0u);
}

TEST(PCalcWhiteboxTest, OnlyDirtyRecordsCaptured) {
  TempDir dir;
  auto db = MakeDb(dir.path(), CheckpointAlgorithm::kPCalc, 100);

  // Touch exactly keys 10..19, then checkpoint.
  for (uint64_t k = 10; k < 20; ++k) {
    ASSERT_TRUE(
        db->executor()->Execute(kPutProcId, KeyArgs(k, "dirty"), 0).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  StateMap first = NewestCheckpoint(db.get());
  EXPECT_EQ(first.size(), 10u);
  for (uint64_t k = 10; k < 20; ++k) {
    EXPECT_EQ(first[k], "dirty");
  }

  // Second interval: touch 15..24; its partial holds exactly those.
  for (uint64_t k = 15; k < 25; ++k) {
    ASSERT_TRUE(
        db->executor()->Execute(kPutProcId, KeyArgs(k, "dirty2"), 0).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  StateMap second = NewestCheckpoint(db.get());
  EXPECT_EQ(second.size(), 10u);
  for (uint64_t k = 15; k < 25; ++k) {
    EXPECT_EQ(second[k], "dirty2");
  }
}

TEST(PCalcWhiteboxTest, DeleteEmitsTombstoneInPartial) {
  TempDir dir;
  auto db = MakeDb(dir.path(), CheckpointAlgorithm::kPCalc, 20);
  ASSERT_TRUE(db->executor()->Execute(kDelProcId, KeyArgs(5), 0).ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  std::vector<CheckpointInfo> list = db->checkpoint_storage()->List();
  ASSERT_EQ(list.size(), 1u);
  int tombstones = 0;
  for (const std::string& file : list[0].files()) {
    CheckpointFileReader reader;
    ASSERT_TRUE(reader.Open(file).ok());
    ASSERT_TRUE(reader
                    .ReadAll([&](const CheckpointEntry& entry) -> Status {
                      if (entry.tombstone) {
                        EXPECT_EQ(entry.key, 5u);
                        ++tombstones;
                      }
                      return Status::OK();
                    })
                    .ok());
  }
  EXPECT_EQ(tombstones, 1);
}

TEST(PCalcWhiteboxTest, DirtyTrackerVariantsAllCorrect) {
  for (DirtyTrackerKind kind :
       {DirtyTrackerKind::kBitVector, DirtyTrackerKind::kHashSet,
        DirtyTrackerKind::kBloom}) {
    TempDir dir;
    Options options;
    options.max_records = 4096;
    options.algorithm = CheckpointAlgorithm::kPCalc;
    options.checkpoint_dir = dir.path();
    options.disk_bytes_per_sec = 0;
    options.dirty_tracker = kind;
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(options, &db).ok());
    db->registry()->Register(std::make_unique<PutProcedure>());
    db->registry()->Register(std::make_unique<HoldProcedure>());
    db->registry()->Register(std::make_unique<DelProcedure>());
    for (uint64_t k = 0; k < 64; ++k) {
      ASSERT_TRUE(db->Load(k, "init").ok());
    }
    ASSERT_TRUE(db->Start().ok());
    for (uint64_t k = 0; k < 8; ++k) {
      ASSERT_TRUE(
          db->executor()->Execute(kPutProcId, KeyArgs(k, "mut"), 0).ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    StateMap checkpoint = NewestCheckpoint(db.get());
    // Bloom may over-capture (false positives) but never under-capture,
    // and captured values must be correct.
    EXPECT_GE(checkpoint.size(), 8u);
    for (uint64_t k = 0; k < 8; ++k) {
      ASSERT_TRUE(checkpoint.count(k)) << static_cast<int>(kind);
      EXPECT_EQ(checkpoint[k], "mut");
    }
    for (const auto& [key, value] : checkpoint) {
      if (key >= 8) {
        EXPECT_EQ(value, "init");
      }
    }
  }
}

}  // namespace
}  // namespace calcdb
