#ifndef CKPTBENCH_RUN_SHAPE_H_
#define CKPTBENCH_RUN_SHAPE_H_

// One pass of the benchmark's run shape, shared by every workload:
//
//   1. Open, populate, WriteBaseCheckpoint, Start (repeated; the last
//      repetition's database carries on);
//   2. the load phase: a fixed number of transactions, with a
//      Database::Checkpoint() call every fixed number of completions;
//   3. stop the load and digest the live state;
//   4. Shutdown;
//   5. a fresh Open, procedure registration, RecoverFromCommandLog;
//   6. digest the recovered state and compare it with step 3 (5 and 6
//      are repeated).
//
// Only public calcdb API is used.

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "db/options.h"
#include "recovery/recovery_manager.h"
#include "spans.h"
#include "workload/microbench.h"
#include "workload/tpcc.h"

namespace ckptbench {

struct WorkloadSpec {
  std::string name;
  calcdb::CheckpointAlgorithm algorithm = calcdb::CheckpointAlgorithm::kCalc;
  bool tpcc = false;
  bool open_loop = false;
  calcdb::MicrobenchConfig micro;
  calcdb::tpcc::TpccConfig tpcc_config;
  uint64_t max_records = 0;
  /// Transactions per measured second. A pass runs
  /// seconds x txns_per_second transactions however fast the engine is,
  /// so the commit log, the cycle count and the recovery tail do not
  /// depend on speed; an open loop also offers exactly this rate.
  double txns_per_second = 0;
  int clients = 2;
  int cycles = 8;      ///< Checkpoint() calls per pass
  int setup_reps = 3;     ///< setup repetitions; setup_s is their median
  int recovery_reps = 3;  ///< recoveries; recovery_s is their median
};

/// The named workloads: micro-calc, tpcc-pcalc, zipf-open. `smoke`
/// shrinks every size for the benchmark's own test.
bool MakeWorkload(const std::string& name, bool smoke, uint64_t seed,
                  WorkloadSpec* out);
std::vector<std::string> WorkloadNames();

struct PassConfig {
  uint64_t seed = 1;
  double seconds = 1;
  std::string work_dir;              ///< scratch space, removed afterwards
  SpanRecorder* spans = nullptr;     ///< null: untraced pass
};

struct CycleSample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t commits_start = 0;
  uint64_t commits_end = 0;
  bool ok = false;
  calcdb::CheckpointCycleStats stats;
};

struct PassResult {
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false

  uint64_t txns = 0;  ///< transactions issued (fixed work)
  uint64_t committed = 0;
  uint64_t user_aborts = 0;  ///< TPC-C "unused item number" rollbacks
  uint64_t txn_failed = 0;
  uint64_t cycles_failed = 0;
  std::vector<std::string> failure_samples;

  std::vector<double> setup_s, open_s, populate_s, base_ckpt_s, start_s;

  int64_t load_start_ns = 0;
  int64_t load_end_ns = 0;
  double load_s = 0;
  /// Per-transaction latency, split by checkpoint interval: entry j holds
  /// the transactions that completed after cycle j started and before
  /// cycle j + 1 did (entry 0: before the first cycle).
  std::vector<std::vector<double>> latency_us;
  std::vector<double> gen_late_us;  ///< open loop: issue time - due time
  std::vector<CycleSample> cycles;
  std::vector<double> cycle_s;
  std::vector<double> lag_entries;  ///< log size - persisted_lsn samples
  int64_t record_bytes_peak = 0;
  double rss_peak_mb = 0;

  uint64_t log_entries = 0;
  uint64_t present = 0;
  uint64_t slots = 0;
  uint64_t log_disk_bytes = 0;
  double shutdown_s = 0;

  std::vector<double> recovery_s;  ///< one per recovery repetition
  calcdb::RecoveryStats recovery;  ///< of the last repetition
};

PassResult RunPass(const WorkloadSpec& spec, const PassConfig& config);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace ckptbench

#endif  // CKPTBENCH_RUN_SHAPE_H_
