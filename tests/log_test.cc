// Tests for the commit log (commit tokens, phase tokens, VPoC counting,
// persistence, segments and truncation) and the PhaseController.

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/phase.h"
#include "gtest/gtest.h"
#include "log/command_log_streamer.h"
#include "log/commit_log.h"
#include "tests/test_util.h"
#include "util/clock.h"
#include "util/rng.h"

namespace calcdb {
namespace {

TEST(CommitLogTest, AppendAndRead) {
  CommitLog log;
  uint64_t lsn0 = log.AppendCommit(1, 10, "argsA");
  uint64_t lsn1 = log.AppendCommit(2, 11, "argsB");
  EXPECT_EQ(lsn0, 0u);
  EXPECT_EQ(lsn1, 1u);
  EXPECT_EQ(log.Size(), 2u);
  LogEntry e = log.Entry(0);
  EXPECT_EQ(e.type, LogEntry::Type::kCommit);
  EXPECT_EQ(e.txn_id, 1u);
  EXPECT_EQ(e.proc_id, 10u);
  EXPECT_EQ(e.args, "argsA");
}

TEST(CommitLogTest, PhaseTokensAndVpocCount) {
  CommitLog log;
  PhaseController pc;
  EXPECT_EQ(log.VpocCount(), 0u);
  log.AppendPhaseTransition(Phase::kPrepare, 1, &pc);
  EXPECT_EQ(pc.current(), Phase::kPrepare);
  EXPECT_EQ(log.VpocCount(), 0u);
  uint64_t vpoc_lsn = log.AppendPhaseTransition(Phase::kResolve, 1, &pc);
  EXPECT_EQ(pc.current(), Phase::kResolve);
  EXPECT_EQ(log.VpocCount(), 1u);
  uint64_t found = 0;
  EXPECT_TRUE(log.FindPhaseToken(1, Phase::kResolve, &found));
  EXPECT_EQ(found, vpoc_lsn);
  EXPECT_FALSE(log.FindPhaseToken(2, Phase::kResolve, &found));
}

TEST(CommitLogTest, CommitCapturesPhaseAtomically) {
  CommitLog log;
  PhaseController pc;
  Phase commit_phase = Phase::kCapture;
  uint64_t vpoc_count = 99;
  log.AppendCommit(1, 1, "", &pc, &commit_phase, &vpoc_count);
  EXPECT_EQ(commit_phase, Phase::kRest);
  EXPECT_EQ(vpoc_count, 0u);
  log.AppendPhaseTransition(Phase::kPrepare, 1, &pc);
  log.AppendPhaseTransition(Phase::kResolve, 1, &pc);
  log.AppendCommit(2, 1, "", &pc, &commit_phase, &vpoc_count);
  EXPECT_EQ(commit_phase, Phase::kResolve);
  EXPECT_EQ(vpoc_count, 1u);
}

TEST(CommitLogTest, UnderLatchCallbackRunsBeforePhaseSwitch) {
  CommitLog log;
  PhaseController pc;
  Phase observed = Phase::kCapture;
  log.AppendPhaseTransition(Phase::kResolve, 1, &pc,
                            [&] { observed = pc.current(); });
  // The callback ran before SetPhase.
  EXPECT_EQ(observed, Phase::kRest);
  EXPECT_EQ(pc.current(), Phase::kResolve);
}

TEST(CommitLogTest, CommitsAfterFiltersPhaseTokens) {
  CommitLog log;
  log.AppendCommit(1, 1, "a");
  uint64_t vpoc = log.AppendPhaseTransition(Phase::kResolve, 1);
  log.AppendCommit(2, 1, "b");
  log.AppendPhaseTransition(Phase::kCapture, 1);
  log.AppendCommit(3, 1, "c");
  std::vector<LogEntry> commits = log.CommitsAfter(vpoc);
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits[0].args, "b");
  EXPECT_EQ(commits[1].args, "c");
}

TEST(CommitLogTest, PersistAndLoadRoundtrip) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/commitlog";
  CommitLog log;
  log.AppendCommit(1, 10, std::string("binary\0args", 11));
  log.AppendPhaseTransition(Phase::kResolve, 7);
  log.AppendCommit(2, 11, "");
  ASSERT_TRUE(log.PersistTo(path).ok());

  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(path).ok());
  ASSERT_EQ(loaded.Size(), 3u);
  EXPECT_EQ(loaded.Entry(0).args, std::string("binary\0args", 11));
  EXPECT_EQ(loaded.Entry(1).type, LogEntry::Type::kPhaseTransition);
  EXPECT_EQ(loaded.Entry(1).phase, Phase::kResolve);
  EXPECT_EQ(loaded.Entry(1).checkpoint_id, 7u);
  EXPECT_EQ(loaded.Entry(2).proc_id, 11u);
}

TEST(CommitLogTest, LoadDetectsCorruption) {
  testing_util::TempDir dir;
  std::string path = dir.path() + "/commitlog";
  CommitLog log;
  log.AppendCommit(1, 10, "payload-payload-payload");
  ASSERT_TRUE(log.PersistTo(path).ok());
  // Flip a byte in the middle of the file.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 12, SEEK_SET);
  int c = fgetc(f);
  fseek(f, 12, SEEK_SET);
  fputc(c ^ 0xff, f);
  fclose(f);
  CommitLog loaded;
  EXPECT_FALSE(loaded.LoadFrom(path).ok());
}

TEST(CommitLogTest, ConcurrentAppendsAllLand) {
  CommitLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < 1000; ++i) {
        log.AppendCommit(static_cast<uint64_t>(t) * 1000 + i, 1, "x");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.Size(), 4000u);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

uint64_t Append(CommitLog* log, const LogEntry& e) {
  return e.type == LogEntry::Type::kCommit
             ? log->AppendCommit(e.txn_id, e.proc_id, e.args)
             : log->AppendPhaseTransition(e.phase, e.checkpoint_id);
}

// A fixed mixed sequence: commits with args from empty to a few hundred
// bytes, one commit larger than a whole segment, and a phase token every
// 50 entries. About 4 segments' worth.
std::vector<LogEntry> MixedSequence() {
  std::vector<LogEntry> out;
  Rng rng(42);
  for (uint64_t i = 0; i < 24000; ++i) {
    LogEntry e;
    if (i % 50 == 49) {
      e.type = LogEntry::Type::kPhaseTransition;
      e.phase = static_cast<Phase>((i / 50) % kNumPhases);
      e.checkpoint_id = i / 250 + 1;
    } else {
      e.txn_id = i + 1;
      e.proc_id = static_cast<uint32_t>(rng.Uniform(8));
      size_t len = i == 7000 ? CommitLog::kSegmentBytes + 1000
                             : static_cast<size_t>(rng.Uniform(300));
      e.args.assign(len, static_cast<char>('a' + i % 26));
    }
    out.push_back(std::move(e));
  }
  return out;
}

// The on-disk format is the one EncodeEntry writes: a streamed generation
// (with its segments released as it goes) and PersistTo are both
// byte-identical to a golden built entry by entry.
TEST(CommitLogTest, StreamedAndPersistedBytesMatchEncodeEntryGolden) {
  std::vector<LogEntry> entries = MixedSequence();
  std::string golden;
  for (const LogEntry& e : entries) CommitLog::EncodeEntry(e, &golden);
  ASSERT_GT(golden.size(), 3 * CommitLog::kSegmentBytes);

  testing_util::TempDir dir;
  CommitLog streamed;
  CommandLogStreamer streamer(&streamed, LogRetention::kReleaseFlushed);
  ASSERT_TRUE(streamer.Start(dir.path() + "/stream", 1).ok());
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_EQ(Append(&streamed, entries[i]), i);
    if (i % 4000 == 0) SleepMicros(3000);  // let flushes interleave
  }
  ASSERT_TRUE(streamer.Stop().ok());
  EXPECT_EQ(ReadFile(streamer.active_path()), golden);
  EXPECT_EQ(streamed.ReleaseHorizon(), entries.size());

  CommitLog whole;
  for (const LogEntry& e : entries) Append(&whole, e);
  ASSERT_TRUE(whole.PersistTo(dir.path() + "/persisted").ok());
  EXPECT_EQ(ReadFile(dir.path() + "/persisted"), golden);

  // LoadFrom keeps the frames as they are: persisting the loaded log
  // reproduces the file, and every entry decodes back.
  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(streamer.active_path()).ok());
  ASSERT_EQ(loaded.Size(), entries.size());
  ASSERT_TRUE(loaded.PersistTo(dir.path() + "/reloaded").ok());
  EXPECT_EQ(ReadFile(dir.path() + "/reloaded"), golden);
  for (size_t i = 0; i < entries.size(); i += 997) {
    LogEntry e = loaded.Entry(i);
    EXPECT_EQ(e.type, entries[i].type) << i;
    EXPECT_EQ(e.txn_id, entries[i].txn_id) << i;
    EXPECT_EQ(e.args, entries[i].args) << i;
    EXPECT_EQ(e.checkpoint_id, entries[i].checkpoint_id) << i;
  }
  EXPECT_EQ(loaded.Entry(7000).args.size(), CommitLog::kSegmentBytes + 1000);
}

// FindPhaseToken and CommitCount read an index and a counter; they must
// agree with a linear scan of the entries, duplicates included.
TEST(CommitLogTest, PhaseIndexAndCommitCountMatchLinearScan) {
  std::vector<LogEntry> entries;
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    LogEntry e;
    if (rng.Bernoulli(0.2)) {
      e.type = LogEntry::Type::kPhaseTransition;
      e.phase = static_cast<Phase>(rng.Uniform(kNumPhases));
      e.checkpoint_id = rng.Uniform(20);
    } else {
      e.txn_id = static_cast<uint64_t>(i);
      e.args.assign(static_cast<size_t>(rng.Uniform(64)), 'x');
    }
    entries.push_back(std::move(e));
  }
  testing_util::TempDir dir;
  CommitLog log;
  for (const LogEntry& e : entries) Append(&log, e);
  ASSERT_TRUE(log.PersistTo(dir.path() + "/log").ok());
  CommitLog loaded;
  ASSERT_TRUE(loaded.LoadFrom(dir.path() + "/log").ok());

  uint64_t commits = 0;
  for (const LogEntry& e : entries) {
    if (e.type == LogEntry::Type::kCommit) ++commits;
  }
  for (const CommitLog* l : {&log, &loaded}) {
    EXPECT_EQ(l->CommitCount(), commits);
    for (uint64_t id = 0; id <= 21; ++id) {
      for (int p = 0; p < kNumPhases; ++p) {
        Phase phase = static_cast<Phase>(p);
        bool want_found = false;
        uint64_t want = 0;
        for (uint64_t lsn = 0; lsn < entries.size(); ++lsn) {
          const LogEntry& e = entries[lsn];
          if (e.type == LogEntry::Type::kPhaseTransition &&
              e.checkpoint_id == id && e.phase == phase) {
            want_found = true;
            want = lsn;
            break;
          }
        }
        uint64_t got = 0;
        ASSERT_EQ(l->FindPhaseToken(id, phase, &got), want_found)
            << id << " " << PhaseName(phase);
        if (want_found) EXPECT_EQ(got, want) << id << " " << PhaseName(phase);
      }
    }
  }
}

TEST(CommitLogTest, ReleaseDropsWholeSegmentsAndKeepsLsnsAbsolute) {
  CommitLog log;
  const std::string args(1000, 'r');
  const uint64_t n = 3 * CommitLog::kSegmentBytes / 1000;
  for (uint64_t i = 0; i < n; ++i) log.AppendCommit(i, 1, args);
  log.AppendPhaseTransition(Phase::kResolve, 1);
  int64_t before = log.ResidentBytes();
  EXPECT_GE(before, static_cast<int64_t>(3 * CommitLog::kSegmentBytes));

  log.ReleaseBelow(n);
  EXPECT_EQ(log.ReleaseHorizon(), n);
  EXPECT_LT(log.ResidentBytes(), before);
  EXPECT_EQ(log.Size(), n + 1);
  EXPECT_EQ(log.CommitCount(), n);  // a counter: released entries count
  uint64_t lsn = 0;
  EXPECT_TRUE(log.FindPhaseToken(1, Phase::kResolve, &lsn));
  EXPECT_EQ(lsn, n);
  EXPECT_THROW(log.Entry(0), std::out_of_range);
  EXPECT_THROW(log.CommitsFrom(0), std::out_of_range);
  EXPECT_EQ(log.Entry(n - 1).txn_id, n - 1);  // same segment as the tail
  testing_util::TempDir dir;
  EXPECT_FALSE(log.PersistTo(dir.path() + "/partial").ok());

  // The spare segment is reused: appending another segment's worth does
  // not grow the footprint past the pre-release peak.
  for (uint64_t i = 0; i < CommitLog::kSegmentBytes / 1000; ++i) {
    log.AppendCommit(n + i, 1, args);
  }
  EXPECT_LE(log.ResidentBytes(), before);
}

TEST(PhaseControllerTest, BeginEndCounts) {
  PhaseController pc;
  EXPECT_EQ(pc.current(), Phase::kRest);
  Phase p1 = pc.BeginTxn();
  EXPECT_EQ(p1, Phase::kRest);
  EXPECT_EQ(pc.ActiveIn(Phase::kRest), 1);
  EXPECT_EQ(pc.TotalActive(), 1);
  pc.SetPhase(Phase::kPrepare);
  Phase p2 = pc.BeginTxn();
  EXPECT_EQ(p2, Phase::kPrepare);
  EXPECT_EQ(pc.ActiveNotIn(Phase::kPrepare), 1);
  pc.EndTxn(p1);
  EXPECT_EQ(pc.ActiveNotIn(Phase::kPrepare), 0);
  pc.EndTxn(p2);
  EXPECT_EQ(pc.TotalActive(), 0);
}

TEST(PhaseControllerTest, ConcurrentBeginEndBalances) {
  PhaseController pc;
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    int i = 0;
    while (!stop.load()) {
      pc.SetPhase(static_cast<Phase>(i % kNumPhases));
      ++i;
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        Phase p = pc.BeginTxn();
        pc.EndTxn(p);
      }
    });
  }
  for (auto& t : workers) t.join();
  stop = true;
  flipper.join();
  EXPECT_EQ(pc.TotalActive(), 0);
  for (int i = 0; i < kNumPhases; ++i) {
    EXPECT_EQ(pc.ActiveIn(static_cast<Phase>(i)), 0) << i;
  }
}

}  // namespace
}  // namespace calcdb
