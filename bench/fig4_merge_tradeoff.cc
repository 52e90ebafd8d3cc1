// Reproduces paper Figure 4: full (CALC) vs partial (pCALC) checkpointing
// with background merging of partial checkpoints.
//   4(a) throughput over time: CALC vs pCALC at 50%/20%/10% skew, with the
//        partials merged in the background after every `merge_batch`.
//   4(b) transactions lost (runtime cost) annotated with the worst-case
//        recovery time — the time to merge the partial chain left on disk
//        into a full checkpoint — for merge batches of 4, 8 and 16.
//
// Every configuration is compared against a None baseline run *at the
// same write-locality skew* (skew changes cache behaviour, so baselines
// are not interchangeable across skews).
//
// Expected shape (paper §5.1.3): pCALC beats CALC clearly at 10-20% skew
// and less at 50%; larger merge batches cost less at runtime but leave
// longer partial chains, growing recovery time roughly linearly.
//
// Flags: --records --seconds --threads --disk_mbps --ckpts (count)
//        --batches=4,8,16 --skews=0.10,0.20,0.50

#include "bench/bench_common.h"
#include "checkpoint/merger.h"
#include "recovery/recovery_manager.h"

using namespace calcdb;
using namespace calcdb::bench;

namespace {

// Worst-case recovery merge: collapse the partial chain left on disk,
// timed. Returns 0 when the background merger already collapsed
// everything (chain length 1). The merge is laid out for the store
// `config` ran (RunMicrobenchExperiment's max_records and shard count).
int64_t MeasureRecoveryMergeMs(const std::string& dir,
                               const RunConfig& config,
                               uint64_t* chain_len) {
  CheckpointStorage storage(dir, 0);
  *chain_len = 0;
  if (!storage.Init().ok() || !storage.LoadManifest().ok()) return -1;
  *chain_len = storage.RecoveryChain().size();
  CheckpointMerger merger(&storage, config.micro.num_records + 1024,
                          ShardedStore::ResolveShards(config.storage_shards));
  Stopwatch sw;
  bool did_merge = false;
  if (!merger.CollapseOnce(1000000, &did_merge).ok()) return -1;
  return sw.ElapsedMicros() / 1000;
}

std::vector<double> ParseList(const std::string& s) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atof(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  RunConfig base = ConfigFromFlags(flags);
  base.seconds = static_cast<int>(flags.Int("seconds", 16));
  // Keep full-CALC captures at ~15% of the window (paper proportions):
  // four checkpoints of ~0.65 s each at 50 MB/s over 16 s.
  base.disk_bytes_per_sec =
      static_cast<uint64_t>(flags.Double("disk_mbps", 50.0) * 1048576.0);
  WarmUp(base);
  int num_ckpts = static_cast<int>(flags.Int("ckpts", 4));
  for (int i = 0; i < num_ckpts; ++i) {
    base.ckpt_at.push_back(base.seconds * (0.06 + 0.88 * i / num_ckpts));
  }
  base.base_checkpoint = true;

  std::vector<double> skews = ParseList(flags.Str("skews", "0.10,0.20,0.50"));
  std::vector<double> batches_d = ParseList(flags.Str("batches", "2,4,8"));

  std::printf("=== Figure 4: full vs partial checkpointing, background "
              "merge ===\n");
  std::printf("records=%llu window=%ds checkpoints=%d\n",
              static_cast<unsigned long long>(base.micro.num_records),
              base.seconds, num_ckpts);

  struct Row {
    std::string label;
    uint64_t committed;
    int64_t lost;
    uint64_t chain_len;
    int64_t recovery_ms;
  };
  std::vector<Row> rows;
  std::vector<RunResult> fig4a;

  for (double skew : skews) {
    RunConfig none_cfg = base;
    none_cfg.algorithm = CheckpointAlgorithm::kNone;
    none_cfg.micro.hot_fraction = skew;
    std::printf("running None @ skew %.0f%%...\n", skew * 100);
    std::fflush(stdout);
    RunResult baseline = RunMicrobenchExperiment(none_cfg);
    baseline.name = "None";
    if (skew == skews.front()) {
      fig4a.push_back(baseline);
    }

    RunConfig calc_cfg = base;
    calc_cfg.algorithm = CheckpointAlgorithm::kCalc;
    calc_cfg.micro.hot_fraction = skew;
    std::printf("running CALC (full) @ skew %.0f%%...\n", skew * 100);
    std::fflush(stdout);
    RunResult calc_run = RunMicrobenchExperiment(calc_cfg);
    {
      char label[64];
      std::snprintf(label, sizeof(label), "CALC %2.0f%%", skew * 100);
      rows.push_back({label, calc_run.total_committed,
                      static_cast<int64_t>(baseline.total_committed) -
                          static_cast<int64_t>(calc_run.total_committed),
                      0, 0});
    }
    if (skew == skews.front()) {
      calc_run.name = "CALC";
      fig4a.push_back(calc_run);
    }

    for (double batch_d : batches_d) {
      size_t batch = static_cast<size_t>(batch_d);
      RunConfig config = base;
      config.algorithm = CheckpointAlgorithm::kPCalc;
      config.micro.hot_fraction = skew;
      config.background_merge = true;
      config.merge_batch = batch;
      std::printf("running pCALC skew=%.0f%% merge_batch=%zu...\n",
                  skew * 100, batch);
      std::fflush(stdout);
      RunResult result =
          RunMicrobenchExperiment(config, /*keep_dir=*/true);

      uint64_t chain_len = 0;
      int64_t recovery_ms =
          MeasureRecoveryMergeMs(result.checkpoint_dir, config, &chain_len);
      char label[64];
      std::snprintf(label, sizeof(label), "pCALC %2.0f%% batch=%zu",
                    skew * 100, batch);
      rows.push_back({label, result.total_committed,
                      static_cast<int64_t>(baseline.total_committed) -
                          static_cast<int64_t>(result.total_committed),
                      chain_len, recovery_ms});
      if (skew == skews.front() && batch == batches_d.front()) {
        result.name = "pCALC";
        fig4a.push_back(result);
      }
      RemoveDir(result.checkpoint_dir);
    }
  }

  std::printf("\n--- Figure 4(a): throughput over time (txns/sec) at "
              "skew %.0f%%, merge batch %.0f ---\n",
              skews.front() * 100, batches_d.front());
  PrintThroughputTable(fig4a);

  std::printf("\n--- Figure 4(b): transactions lost (vs same-skew "
              "baseline) + worst-case recovery merge ---\n");
  std::printf("%-22s %12s %12s %12s %16s\n", "config", "committed",
              "txns_lost", "chain_len", "recovery_merge");
  for (const Row& row : rows) {
    std::printf("%-22s %12llu %12lld %12llu %13.1fms\n",
                row.label.c_str(),
                static_cast<unsigned long long>(row.committed),
                static_cast<long long>(row.lost),
                static_cast<unsigned long long>(row.chain_len),
                static_cast<double>(row.recovery_ms));
  }
  std::printf("\nruntime vs recovery-time tradeoff: larger merge batches "
              "lose fewer transactions at runtime but leave longer "
              "chains, growing the worst-case recovery merge roughly "
              "linearly (paper §5.1.3).\n");
  ExportObsArtifacts(flags, "fig4_merge_tradeoff");
  return 0;
}
