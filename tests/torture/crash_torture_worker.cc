// Crash-torture worker: one process lifetime of a checkpointing database
// under a deterministic bank-transfer workload. The parent test
// (tests/crash_torture_test.cc) spawns this binary with
// CALCDB_CRASH_POINT=<point>[:hit] set, lets the armed fault _exit(42)
// it mid-operation, then recovers from whatever survived on disk and
// checks the durability contract (docs/DURABILITY.md).
//
// Every lifetime runs the same sequence:
//
//   Open -> Register(TransferProcedure) -> SetupBank (Load is not in the
//   command log, so state is re-seeded every lifetime) ->
//   RecoverFromCommandLog -> WriteBaseCheckpoint (first lifetime only —
//   skipped when checkpoints already exist) -> Start -> execute
//   transfers from TransferStream(seed), checkpointing synchronously
//   every --ckpt_every transactions -> Shutdown -> exit 0.
//
// Checkpoints and merges run synchronously on the workload thread so
// that, given a seed, the set of operations before any crash point is
// fully deterministic.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "checkpoint/merger.h"
#include "db/database.h"
#include "tests/torture/bank_workload.h"
#include "util/clock.h"
#include "util/status.h"

namespace calcdb {
namespace torture {
namespace {

struct WorkerConfig {
  std::string dir;
  uint64_t accounts = 32;
  uint64_t txns = 240;
  uint64_t ckpt_every = 40;
  uint64_t merge_every = 0;  // 0: never merge
  std::string algo = "calc";
  int storage_shards = 0;  // 0: auto (CALCDB_STORAGE_SHARDS, else 1)
  int flush_ms = 1;
  uint64_t seed = 1;
  /// Per-transaction pacing. Spreads the run over enough flusher ticks
  /// that multi-hit log crash points (log.fsync:3, ...) are reliably
  /// reached before the workload completes. Does not affect state.
  int64_t txn_sleep_us = 100;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

bool ParseFlags(int argc, char** argv, WorkerConfig* config) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "dir", &v)) {
      config->dir = v;
    } else if (ParseFlag(argv[i], "accounts", &v)) {
      config->accounts = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "txns", &v)) {
      config->txns = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "ckpt_every", &v)) {
      config->ckpt_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "merge_every", &v)) {
      config->merge_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "algo", &v)) {
      config->algo = v;
    } else if (ParseFlag(argv[i], "storage_shards", &v)) {
      config->storage_shards = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "flush_ms", &v)) {
      config->flush_ms = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "seed", &v)) {
      config->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "txn_sleep_us", &v)) {
      config->txn_sleep_us = std::atoll(v.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return !config->dir.empty();
}

int Fail(const char* what, const Status& st) {
  std::fprintf(stderr, "crash_torture_worker: %s: %s\n", what,
               st.ToString().c_str());
  return 1;
}

int RunWorker(const WorkerConfig& config) {
  Options options;
  options.max_records = config.accounts + 64;
  if (!ParseAlgorithm(config.algo, &options.algorithm)) {
    std::fprintf(stderr, "bad --algo=%s\n", config.algo.c_str());
    return 1;
  }
  options.checkpoint_dir = config.dir + "/ckpt";
  options.disk_bytes_per_sec = 0;
  options.storage_shards = config.storage_shards;
  options.command_log_path = config.dir + "/commandlog";
  options.command_log_flush_ms = config.flush_ms;
  options.background_merge = false;  // merges run synchronously below

  std::unique_ptr<Database> db;
  Status st = Database::Open(options, &db);
  if (!st.ok()) return Fail("open", st);
  db->registry()->Register(std::make_unique<TransferProcedure>());
  st = SetupBank(db.get(), config.accounts);
  if (!st.ok()) return Fail("setup", st);

  RecoveryStats stats;
  st = db->RecoverFromCommandLog(&stats);
  if (!st.ok()) return Fail("recover", st);
  if (stats.checkpoints_loaded == 0 && stats.txns_replayed == 0) {
    // Fresh directory: lay down the base full checkpoint that the
    // partial algorithms merge onto. On restarts the surviving chain
    // already covers this role.
    st = db->WriteBaseCheckpoint();
    if (!st.ok()) return Fail("base checkpoint", st);
  }
  st = db->Start();
  if (!st.ok()) return Fail("start", st);

  CheckpointMerger merger(db->checkpoint_storage(), db->store()->max_records(),
                          db->store()->num_shards());
  TransferStream stream(config.seed, config.accounts);
  for (uint64_t i = 1; i <= config.txns; ++i) {
    st = db->executor()->Execute(kTransferProcId, stream.NextArgs(), 0);
    if (!st.ok()) return Fail("execute", st);
    if (config.txn_sleep_us > 0) SleepMicros(config.txn_sleep_us);
    if (config.ckpt_every != 0 && i % config.ckpt_every == 0) {
      st = db->Checkpoint();
      if (!st.ok()) return Fail("checkpoint", st);
      if (config.merge_every != 0 &&
          (i / config.ckpt_every) % config.merge_every == 0) {
        bool did_merge = false;
        st = merger.CollapseOnce(config.merge_every, &did_merge);
        if (!st.ok()) return Fail("merge", st);
      }
    }
  }

  st = db->Shutdown();
  if (!st.ok()) return Fail("shutdown", st);
  return 0;
}

}  // namespace
}  // namespace torture
}  // namespace calcdb

int main(int argc, char** argv) {
  calcdb::torture::WorkerConfig config;
  if (!calcdb::torture::ParseFlags(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: crash_torture_worker --dir=DIR [--accounts=N] "
                 "[--txns=N] [--ckpt_every=N] [--merge_every=N] "
                 "[--algo=calc|pcalc] [--storage_shards=N] "
                 "[--flush_ms=N] [--seed=N] [--txn_sleep_us=N]\n");
    return 1;
  }
  return calcdb::torture::RunWorker(config);
}
