// End-to-end crash-recovery torture: spawn the crash_torture_worker
// binary with CALCDB_CRASH_POINT armed, let the injected fault
// _exit(42) it mid-IO, then recover in-process from whatever survived
// on disk and check the durability contract (docs/DURABILITY.md):
//
//   1. Recovery succeeds — and in particular never reports Corruption
//      when no bytes were damaged (crash artifacts are torn files, which
//      the chain-fallback rules absorb).
//   2. Balance conservation: the sum of all account balances equals
//      accounts * kInitialBalance after any crash.
//   3. Deterministic-replay equivalence: each persisted log generation's
//      commits are exactly a prefix of the worker's deterministic
//      transfer stream, byte for byte.
//   4. The recovered state equals an oracle built by applying some
//      per-lifetime prefix of that stream (at least every persisted
//      commit) to the initial state — i.e. recovery restores a
//      transactionally consistent prefix, never a partial transaction
//      and never a reordering.
//
// The enumerated matrix covers every registered crash point (a
// completeness test enforces this); randomized schedules
// (CALCDB_CRASH_RANDOM, seeded by CALCDB_CRASH_SEED, reproduction
// config printed on failure) probe hit counts the matrix doesn't pin.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "log/command_log_streamer.h"
#include "log/commit_log.h"
#include "tests/test_util.h"
#include "tests/torture/bank_workload.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace calcdb {
namespace {

using testing_util::StateMap;
using testing_util::TempDir;
using torture::DecodeTransfer;
using torture::kInitialBalance;
using torture::kTransferProcId;
using torture::SetupBank;
using torture::TransferProcedure;
using torture::TransferStream;

struct TortureConfig {
  uint64_t accounts = 32;
  uint64_t txns = 240;
  uint64_t ckpt_every = 40;
  uint64_t merge_every = 0;
  std::string algo = "calc";
  int storage_shards = 0;  // 0: auto (CALCDB_STORAGE_SHARDS, else 1)
  uint64_t seed = 101;

  std::string Describe() const {
    return "accounts=" + std::to_string(accounts) +
           " txns=" + std::to_string(txns) +
           " ckpt_every=" + std::to_string(ckpt_every) +
           " merge_every=" + std::to_string(merge_every) + " algo=" + algo +
           " storage_shards=" + std::to_string(storage_shards) +
           " seed=" + std::to_string(seed);
  }
};

/// The worker binary is built into the same directory as this test.
std::string WorkerPath() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n] = '\0';
  std::string self(buf);
  size_t slash = self.rfind('/');
  return self.substr(0, slash + 1) + "crash_torture_worker";
}

/// Runs one worker lifetime. `crash_spec` is "point[:hit]" (empty: no
/// fault armed); `child_exit_code` arms the fork-snapshot child's
/// env-driven fault channel (empty: disarmed). Returns the worker's
/// exit code, or -signal if killed.
int SpawnWorker(const std::string& dir, const TortureConfig& config,
                const std::string& crash_spec,
                const std::string& child_exit_code = "") {
  std::string worker = WorkerPath();
  std::vector<std::string> argv_strings = {
      worker,
      "--dir=" + dir,
      "--accounts=" + std::to_string(config.accounts),
      "--txns=" + std::to_string(config.txns),
      "--ckpt_every=" + std::to_string(config.ckpt_every),
      "--merge_every=" + std::to_string(config.merge_every),
      "--algo=" + config.algo,
      "--storage_shards=" + std::to_string(config.storage_shards),
      "--seed=" + std::to_string(config.seed),
  };
  pid_t pid = ::fork();
  if (pid == 0) {
    if (crash_spec.empty()) {
      ::unsetenv("CALCDB_CRASH_POINT");
    } else {
      ::setenv("CALCDB_CRASH_POINT", crash_spec.c_str(), 1);
    }
    ::unsetenv("CALCDB_FAULT_ERROR");
    if (child_exit_code.empty()) {
      ::unsetenv("CALCDB_CHILD_EXIT_CODE");
    } else {
      ::setenv("CALCDB_CHILD_EXIT_CODE", child_exit_code.c_str(), 1);
    }
    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (std::string& s : argv_strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    ::execv(worker.c_str(), argv.data());
    ::_exit(127);  // exec failed (worker binary missing?)
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

StateMap InitialState(uint64_t accounts) {
  StateMap state;
  for (uint64_t k = 0; k < accounts; ++k) {
    state[k] = std::to_string(kInitialBalance);
  }
  return state;
}

/// Applies one transfer to an oracle map, mirroring TransferProcedure.
void ApplyTransfer(StateMap* state, const std::string& args) {
  uint64_t from = 0, to = 0;
  int64_t amount = 0;
  ASSERT_TRUE(DecodeTransfer(args, &from, &to, &amount));
  int64_t from_bal = std::strtoll((*state)[from].c_str(), nullptr, 10);
  int64_t to_bal = std::strtoll((*state)[to].c_str(), nullptr, 10);
  int64_t moved = amount < from_bal ? amount : from_bal;
  if (moved < 0) moved = 0;
  (*state)[from] = std::to_string(from_bal - moved);
  (*state)[to] = std::to_string(to_bal + moved);
}

/// True iff applying, per lifetime g, some prefix of length
/// M_g ∈ [persisted_counts[g], txns] of the deterministic stream yields
/// `recovered`. The lower bound is the persisted commit count: recovery
/// must restore at least every durable commit; it may restore more (a
/// checkpoint can cover commits whose log entries never flushed).
bool SearchPrefix(const StateMap& recovered, const TortureConfig& config,
                  const std::vector<uint64_t>& persisted_counts, size_t g,
                  const StateMap& state) {
  if (g == persisted_counts.size()) return state == recovered;
  TransferStream stream(config.seed, config.accounts);
  StateMap s = state;
  uint64_t applied = 0;
  for (; applied < persisted_counts[g]; ++applied) {
    ApplyTransfer(&s, stream.NextArgs());
  }
  for (;;) {
    if (SearchPrefix(recovered, config, persisted_counts, g + 1, s)) {
      return true;
    }
    if (applied >= config.txns) return false;
    ApplyTransfer(&s, stream.NextArgs());
    ++applied;
  }
}

/// Recovers the crashed worker's directory in-process and checks every
/// durability invariant. `context` is printed on failure (reproduction
/// info for randomized schedules).
void VerifyRecovery(const std::string& dir, const TortureConfig& config,
                    const std::string& context) {
  SCOPED_TRACE(context);
  Options options;
  options.max_records = config.accounts + 64;
  options.algorithm = CheckpointAlgorithm::kNone;
  options.checkpoint_dir = dir + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.command_log_path = dir + "/commandlog";

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  db->registry()->Register(std::make_unique<TransferProcedure>());
  ASSERT_TRUE(SetupBank(db.get(), config.accounts).ok());
  RecoveryStats stats;
  Status st = db->RecoverFromCommandLog(&stats);
  // Invariant 1: crash artifacts are torn files, absorbed by chain
  // fallback — never Corruption (that would mean damaged bytes), never
  // any other failure.
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Read the recovered state straight off the store (the database is
  // never Start()ed: that would open a fresh log generation).
  StateMap recovered;
  db->store()->ForEachRecord([&](Record* rec) {
    if (rec->key == ~uint64_t{0}) return;
    std::string value;
    ASSERT_TRUE(db->store()->Get(rec->key, &value).ok());
    recovered[rec->key] = std::move(value);
  });

  // Invariant 2: balance conservation over the original key domain.
  int64_t sum = 0;
  for (const auto& [key, value] : recovered) {
    EXPECT_LT(key, config.accounts) << "unexpected key " << key;
    sum += std::strtoll(value.c_str(), nullptr, 10);
  }
  EXPECT_EQ(recovered.size(), config.accounts);
  EXPECT_EQ(sum, static_cast<int64_t>(config.accounts) * kInitialBalance);

  // Invariant 3: each generation's persisted commits are a byte-exact
  // prefix of the deterministic stream (one stream restart per lifetime).
  std::vector<std::string> generations;
  ASSERT_TRUE(
      CommandLogStreamer::ListLogFiles(options.command_log_path, &generations)
          .ok());
  std::vector<uint64_t> persisted_counts;
  for (const std::string& gen : generations) {
    CommitLog log;
    ASSERT_TRUE(log.LoadFrom(gen).ok()) << gen;
    TransferStream stream(config.seed, config.accounts);
    uint64_t count = 0;
    for (const LogEntry& entry : log.CommitsFrom(0)) {
      ASSERT_EQ(entry.proc_id, kTransferProcId);
      EXPECT_EQ(entry.args, stream.NextArgs())
          << gen << " diverges from the stream at commit " << count;
      ++count;
    }
    ASSERT_LE(count, config.txns);
    persisted_counts.push_back(count);
  }

  // Invariant 4: the state is some consistent per-lifetime prefix
  // composition — no partial transactions, no reordering, no commit
  // beyond what a lifetime could have executed.
  EXPECT_TRUE(SearchPrefix(recovered, config, persisted_counts, 0,
                           InitialState(config.accounts)))
      << "recovered state matches no prefix composition; generations="
      << generations.size();
}

#if !CALCDB_FAULTS_ENABLED
#define CALCDB_SKIP_WITHOUT_FAULTS() \
  GTEST_SKIP() << "built with -DCALCDB_FAULTS=OFF; crash probes compiled out"
#else
#define CALCDB_SKIP_WITHOUT_FAULTS() \
  do {                               \
  } while (0)
#endif

struct MatrixEntry {
  const char* point;
  int hit;
  const char* algo;
  int storage_shards;  // 0: auto
  uint64_t merge_every;
};

// Hit counts are chosen against the worker's deterministic schedule
// (base full checkpoint first, then a checkpoint every ckpt_every txns):
// hit 1 of the ckpt_file points lands in the base checkpoint, hit 2 in
// the first runtime checkpoint; segment points exist only with
// storage_shards > 1 (hit 1 in the base checkpoint's first segment, hit 3
// in the first runtime checkpoint's); merge points only fire with
// partials (pcalc).
const MatrixEntry kMatrix[] = {
    {"ckpt_file.header", 1, "calc", 0, 0},
    {"ckpt_file.body", 1, "calc", 0, 0},
    {"ckpt_file.body", 100, "calc", 0, 0},
    {"ckpt_file.block", 1, "calc", 0, 0},
    {"ckpt_file.footer", 2, "calc", 0, 0},
    {"ckpt_file.fsync", 2, "calc", 0, 0},
    {"ckpt.segment.finish", 1, "calc", 2, 0},
    {"ckpt.segment.finish", 3, "calc", 2, 0},
    {"ckpt.register", 1, "calc", 0, 0},
    {"manifest.write", 2, "calc", 0, 0},
    {"manifest.rename", 2, "calc", 0, 0},
    {"merge.replace", 1, "pcalc", 0, 3},
    {"merge.persist", 1, "pcalc", 0, 3},
    {"merge.persist", 1, "pcalc", 2, 3},
    {"base_ckpt.register", 1, "calc", 0, 0},
    {"log.batch_append", 1, "calc", 0, 0},
    {"log.batch_append", 5, "calc", 0, 0},
    {"log.fsync", 3, "calc", 0, 0},
};

/// Every registered crash point must appear in the enumerated matrix —
/// adding a probe without torture coverage is a test failure, not a
/// silent gap. (Runs in every build: the registry is always compiled.)
TEST(CrashTortureMatrix, CoversEveryRegisteredPoint) {
  std::set<std::string> covered;
  for (const MatrixEntry& entry : kMatrix) {
    EXPECT_TRUE(fault::IsRegistered(entry.point))
        << "matrix names unregistered point " << entry.point;
    covered.insert(entry.point);
  }
  size_t count = 0;
  const fault::FaultPointInfo* points = fault::RegisteredPoints(&count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(covered.count(points[i].name))
        << "registered point " << points[i].name
        << " missing from the torture matrix";
  }
}

TEST(CrashTortureMatrix, EnumeratedCrashPoints) {
  CALCDB_SKIP_WITHOUT_FAULTS();
  for (const MatrixEntry& entry : kMatrix) {
    TempDir dir;
    TortureConfig config;
    config.algo = entry.algo;
    config.storage_shards = entry.storage_shards;
    config.merge_every = entry.merge_every;
    std::string spec =
        std::string(entry.point) + ":" + std::to_string(entry.hit);
    int rc = SpawnWorker(dir.path(), config, spec);
    // The armed fault must actually fire: a completed run (exit 0) means
    // the hit count is unreachable and the entry tests nothing.
    ASSERT_EQ(rc, fault::kCrashExitCode)
        << "worker did not crash at " << spec << " (" << config.Describe()
        << ")";
    VerifyRecovery(dir.path(), config, "crash at " + spec);
  }
}

/// A second lifetime that crashes too: recovery must compose the
/// surviving chain with commits from *both* log generations.
TEST(CrashTortureMatrix, TwoCrashRestart) {
  CALCDB_SKIP_WITHOUT_FAULTS();
  TempDir dir;
  TortureConfig config;
  // Lifetime 1 dies mid-checkpoint (hit 2 = first runtime checkpoint);
  // lifetime 2 recovers, runs, and dies mid-log-flush.
  ASSERT_EQ(SpawnWorker(dir.path(), config, "ckpt_file.footer:2"),
            fault::kCrashExitCode);
  ASSERT_EQ(SpawnWorker(dir.path(), config, "log.fsync:2"),
            fault::kCrashExitCode);
  VerifyRecovery(dir.path(), config,
                 "ckpt_file.footer:2 then log.fsync:2");
}

/// After a crash and a *clean* second lifetime, everything (both
/// generations, all checkpoints) must still compose.
TEST(CrashTortureMatrix, CrashThenCleanRun) {
  CALCDB_SKIP_WITHOUT_FAULTS();
  TempDir dir;
  TortureConfig config;
  ASSERT_EQ(SpawnWorker(dir.path(), config, "manifest.rename:2"),
            fault::kCrashExitCode);
  ASSERT_EQ(SpawnWorker(dir.path(), config, ""), 0);
  VerifyRecovery(dir.path(), config, "manifest.rename:2 then clean run");
}

/// Mid-snapshot death of the fork-snapshot child: CALCDB_CHILD_EXIT_CODE
/// kills the child before its fsync, so the worker's Checkpoint() fails
/// cleanly (exit 1 — the *parent* does not crash) and the on-disk state
/// holds an unregistered, possibly-not-durable snapshot file that
/// recovery must ignore. Deliberately not a kMatrix entry: the matrix
/// enumerates registered parent-side probes, and the child channel lives
/// outside the registry because no latch-based arming is fork-safe.
TEST(CrashTortureMatrix, ForkChildDiesMidSnapshot) {
  CALCDB_SKIP_WITHOUT_FAULTS();
  CALCDB_SKIP_FORK_UNDER_TSAN(CheckpointAlgorithm::kFork);
  TempDir dir;
  TortureConfig config;
  config.algo = "fork";
  int rc = SpawnWorker(dir.path(), config, "", /*child_exit_code=*/"9");
  ASSERT_EQ(rc, 1)
      << "worker should fail its checkpoint and exit via Fail(), rc=" << rc;
  VerifyRecovery(dir.path(), config, "fork child forced exit 9");
  // A clean second lifetime recovers past the dead child's leavings.
  ASSERT_EQ(SpawnWorker(dir.path(), config, ""), 0);
  VerifyRecovery(dir.path(), config, "fork child death then clean run");
}

/// Randomized schedules: point, hit count, and engine config drawn from
/// CALCDB_CRASH_SEED; CALCDB_CRASH_RANDOM picks the schedule count (CI
/// runs more). The fault may or may not fire (exit 0 or 42) — recovery
/// must hold either way. The reproduction config is printed on failure.
TEST(CrashTortureMatrix, RandomizedSchedules) {
  CALCDB_SKIP_WITHOUT_FAULTS();
  const char* count_env = std::getenv("CALCDB_CRASH_RANDOM");
  int schedules = count_env != nullptr ? std::atoi(count_env) : 3;
  const char* seed_env = std::getenv("CALCDB_CRASH_SEED");
  uint64_t seed = seed_env != nullptr
                      ? std::strtoull(seed_env, nullptr, 10)
                      : 20260805ull;
  size_t point_count = 0;
  const fault::FaultPointInfo* points =
      fault::RegisteredPoints(&point_count);
  ASSERT_GT(point_count, 0u);

  Rng rng(seed);
  for (int i = 0; i < schedules; ++i) {
    TempDir dir;
    TortureConfig config;
    config.algo = rng.Bernoulli(0.5) ? "pcalc" : "calc";
    config.storage_shards = rng.Bernoulli(0.5) ? 2 : 0;
    config.merge_every = rng.Bernoulli(0.5) ? 3 : 0;
    config.seed = seed + static_cast<uint64_t>(i) + 1;
    const char* point = points[rng.Uniform(point_count)].name;
    int hit = static_cast<int>(rng.Uniform(6)) + 1;
    std::string spec = std::string(point) + ":" + std::to_string(hit);
    std::string repro = "CALCDB_CRASH_SEED=" + std::to_string(seed) +
                        " schedule " + std::to_string(i) + ": " + spec +
                        " (" + config.Describe() + ")";
    int rc = SpawnWorker(dir.path(), config, spec);
    ASSERT_TRUE(rc == 0 || rc == fault::kCrashExitCode) << repro << " rc="
                                                        << rc;
    VerifyRecovery(dir.path(), config, repro);
  }
}

}  // namespace
}  // namespace calcdb
