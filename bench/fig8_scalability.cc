// Reproduces paper Figure 8 (Appendix A / §5.1.5): CALC scalability with
// database size.
//   8(a) checkpoint duration vs database size
//   8(b) total transactions lost vs database size
//   8(c) [extension] capture duration vs storage_shards, unthrottled
//
// Expected shape for (a)/(b): both are linear in database size — "the
// recording of a checkpoint is limited by disk bandwidth in our system,
// [so] the time to complete a checkpoint is a direct measure of total
// disk IO". The paper sweeps 10/50/100/150M records; this harness sweeps
// the same 1:5:10:15 proportions scaled by --base_records.
//
// The (c) sweep partitions the store into 1..N shards and captures with
// one segment writer per shard (capture_threads = shards) over an
// unthrottled disk (the shared token bucket otherwise caps the aggregate
// rate and flattens the curve by design): capture wall time should fall
// with the shard count until the device or the core count saturates.
//
// Flags: --base_records --seconds --threads --disk_mbps --algo=calc
//        --shard_sweep=1,2,4 --json_out=BENCH_fig8.json

#include "bench/bench_common.h"

using namespace calcdb;
using namespace calcdb::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  uint64_t base_records =
      static_cast<uint64_t>(flags.Int("base_records", 40000));
  CheckpointAlgorithm algo = CheckpointAlgorithm::kCalc;
  ParseAlgorithm(flags.Str("algo", "calc"), &algo);

  std::printf("=== Figure 8: %s scalability with database size ===\n",
              AlgorithmName(algo));
  std::printf("sweep: 1x/5x/10x/15x of %llu records (paper: "
              "10M/50M/100M/150M), one checkpoint per run\n",
              static_cast<unsigned long long>(base_records));
  {
    RunConfig w = ConfigFromFlags(flags);
    w.micro.num_records = base_records;
    WarmUp(w);
  }

  struct Row {
    uint64_t records;
    double duration_s;
    int64_t lost;
    uint64_t committed;
    uint64_t baseline;
  };
  std::vector<Row> rows;

  for (uint64_t mult : {1, 5, 10, 15}) {
    uint64_t records = base_records * mult;
    RunConfig config = ConfigFromFlags(flags);
    config.micro.num_records = records;
    config.seconds = static_cast<int>(flags.Int("seconds", 14));
    config.ckpt_at = {config.seconds * 0.15};

    std::printf("running None @ %llu records...\n",
                static_cast<unsigned long long>(records));
    std::fflush(stdout);
    RunConfig none_cfg = config;
    none_cfg.algorithm = CheckpointAlgorithm::kNone;
    RunResult baseline = RunMicrobenchExperiment(none_cfg);

    std::printf("running %s @ %llu records...\n", AlgorithmName(algo),
                static_cast<unsigned long long>(records));
    std::fflush(stdout);
    config.algorithm = algo;
    RunResult result = RunMicrobenchExperiment(config);

    Row row;
    row.records = records;
    row.duration_s =
        result.cycles.empty()
            ? 0
            : static_cast<double>(result.cycles[0].capture_micros) / 1e6;
    row.committed = result.total_committed;
    row.baseline = baseline.total_committed;
    row.lost = static_cast<int64_t>(baseline.total_committed) -
               static_cast<int64_t>(result.total_committed);
    rows.push_back(row);
  }

  std::printf("\n--- Figure 8(a): checkpoint duration ---\n");
  std::printf("%-14s %16s %18s\n", "records", "duration_s",
              "duration/records");
  for (const Row& row : rows) {
    std::printf("%-14llu %16.2f %18.3e\n",
                static_cast<unsigned long long>(row.records),
                row.duration_s,
                row.duration_s / static_cast<double>(row.records));
  }

  std::printf("\n--- Figure 8(b): transactions lost ---\n");
  std::printf("%-14s %14s %14s %12s\n", "records", "baseline",
              "committed", "txns_lost");
  for (const Row& row : rows) {
    std::printf("%-14llu %14llu %14llu %12lld\n",
                static_cast<unsigned long long>(row.records),
                static_cast<unsigned long long>(row.baseline),
                static_cast<unsigned long long>(row.committed),
                static_cast<long long>(row.lost));
  }
  std::printf("\nlinearity check: duration/records should be constant "
              "across the sweep (disk-bandwidth-bound capture).\n");

  // --- 8(c): capture-phase scalability with shard (segment) count ---
  struct ShardRow {
    int shards;
    double capture_s;
    uint64_t committed;
    uint64_t segments;
  };
  std::vector<ShardRow> shard_rows;
  std::vector<int> sweep;
  {
    std::string list = flags.Str("shard_sweep", "1,2,4");
    size_t pos = 0;
    while (pos < list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      int n = std::atoi(list.substr(pos, comma - pos).c_str());
      if (n > 0) sweep.push_back(n);
      pos = comma + 1;
    }
  }
  uint64_t sweep_records = base_records * 4;
  for (int shards : sweep) {
    std::printf("running %s @ %llu records, storage_shards=%d, "
                "unthrottled...\n",
                AlgorithmName(algo),
                static_cast<unsigned long long>(sweep_records), shards);
    std::fflush(stdout);
    RunConfig config = ConfigFromFlags(flags);
    config.algorithm = algo;
    config.micro.num_records = sweep_records;
    config.seconds = static_cast<int>(flags.Int("seconds", 14));
    config.ckpt_at = {config.seconds * 0.15};
    config.disk_bytes_per_sec = 0;  // expose the parallelism, not the cap
    config.storage_shards = shards;
    config.capture_threads = shards;
    RunResult result = RunMicrobenchExperiment(config);
    ShardRow row;
    row.shards = shards;
    row.capture_s =
        result.cycles.empty()
            ? 0
            : static_cast<double>(result.cycles[0].capture_micros) / 1e6;
    row.committed = result.total_committed;
    row.segments = result.cycles.empty() ? 0 : result.cycles[0].segments;
    shard_rows.push_back(row);
  }

  std::printf("\n--- Figure 8(c): capture duration vs storage_shards "
              "(unthrottled) ---\n");
  std::printf("%-16s %12s %10s %14s %10s\n", "storage_shards",
              "capture_s", "segments", "committed", "speedup");
  for (const ShardRow& row : shard_rows) {
    double speedup = (row.capture_s > 0 && !shard_rows.empty())
                         ? shard_rows[0].capture_s / row.capture_s
                         : 0;
    std::printf("%-16d %12.3f %10llu %14llu %9.2fx\n", row.shards,
                row.capture_s,
                static_cast<unsigned long long>(row.segments),
                static_cast<unsigned long long>(row.committed), speedup);
  }

  std::string json_path = flags.Str("json_out", "BENCH_fig8.json");
  if (json_path != "none" && !json_path.empty()) {
    std::FILE* jf = std::fopen(json_path.c_str(), "w");
    if (jf == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    } else {
      std::fprintf(jf, "{\n  \"bench\": \"fig8_scalability\",\n"
                       "  \"size_sweep\": [\n");
      for (size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(jf,
                     "    {\"records\": %llu, \"duration_s\": %.6f, "
                     "\"committed\": %llu, \"baseline\": %llu, "
                     "\"txns_lost\": %lld}%s\n",
                     static_cast<unsigned long long>(rows[i].records),
                     rows[i].duration_s,
                     static_cast<unsigned long long>(rows[i].committed),
                     static_cast<unsigned long long>(rows[i].baseline),
                     static_cast<long long>(rows[i].lost),
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(jf, "  ],\n  \"shard_sweep\": [\n");
      for (size_t i = 0; i < shard_rows.size(); ++i) {
        std::fprintf(
            jf,
            "    {\"storage_shards\": %d, \"capture_s\": %.6f, "
            "\"segments\": %llu, \"committed\": %llu}%s\n",
            shard_rows[i].shards, shard_rows[i].capture_s,
            static_cast<unsigned long long>(shard_rows[i].segments),
            static_cast<unsigned long long>(shard_rows[i].committed),
            i + 1 < shard_rows.size() ? "," : "");
      }
      std::fprintf(jf, "  ]\n}\n");
      std::fclose(jf);
      std::printf("\nresults json: %s\n", json_path.c_str());
    }
  }

  ExportObsArtifacts(flags, "fig8_scalability");
  return 0;
}
