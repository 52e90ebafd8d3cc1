// ckptbench: the checkpoint-cycle benchmark. One run executes one named
// workload through the full run shape (run_shape.h) and prints every
// metric by name with its unit, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   ckptbench --workload=micro-calc --seed=1 --seconds=10 --trace=0
//             --work_dir=DIR [--trace_out=FILE] [--smoke]
//
// --trace=0 reports the end-to-end metrics of one untraced pass.
// --trace=1 runs an untraced pass and then a traced pass of the same
// shape, and reports the per-layer metrics of the traced pass plus the
// tracing overhead between the two. ckptbench/run.py builds and drives
// this binary.

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "run_shape.h"
#include "spans.h"

namespace {

using ckptbench::PassResult;
using ckptbench::Quantile;
using ckptbench::WorkloadSpec;

/// Auto knobs a stray environment variable would silently change.
constexpr const char* kAutoKnobEnv[] = {
    "CALCDB_CAPTURE_THREADS", "CALCDB_RECOVERY_THREADS",
    "CALCDB_REPLAY_THREADS",  "CALCDB_STORAGE_SHARDS",
    "CALCDB_CKPT_ASYNC_IO",
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::vector<double> AllLatencies(const PassResult& r) {
  std::vector<double> all;
  for (const std::vector<double>& interval : r.latency_us) {
    all.insert(all.end(), interval.begin(), interval.end());
  }
  return all;
}

/// The p99 of each checkpoint interval j >= 1 (cycle j's start to cycle
/// j + 1's), median over those intervals. Each starts with a whole cycle,
/// so a stall that every cycle causes raises all of them; a host stall
/// raises only the intervals it falls in. Interval 0, before the first
/// cycle, holds no checkpoint and is left out.
double CycleIntervalP99(const PassResult& r) {
  std::vector<double> p99s;
  for (size_t j = 1; j < r.latency_us.size(); ++j) {
    if (!r.latency_us[j].empty()) {
      p99s.push_back(Quantile(r.latency_us[j], 0.99));
    }
  }
  return Median(p99s);
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      // assign(str, pos, len) rather than a substr temporary: gcc 12's
      // -Wrestrict misfires on the inlined substr-assign at -O2.
      flags[arg.substr(2, eq - 2)].assign(arg, eq + 1, std::string::npos);
    }
  }
  return flags;
}

void PrintConfig(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 bool trace) {
  calcdb::Options options;
  options.algorithm = spec.algorithm;
  std::printf("== ckptbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec.name.c_str(), seed, seconds, trace ? 1 : 0);
  std::printf("config.nproc: %d\n", Nproc());
  std::printf("config.algorithm: %s\n", calcdb::AlgorithmName(spec.algorithm));
  std::printf("config.loop: %s, %d clients%s\n",
              spec.open_loop ? "open" : "closed", spec.clients,
              spec.open_loop ? ", latency from each request's due time"
                             : ", latency from issue");
  if (spec.open_loop) {
    std::printf("config.offered_tps: %.0f (fixed)\n", spec.txns_per_second);
  } else {
    std::printf("config.txns: seconds x %.0f (fixed work)\n",
                spec.txns_per_second);
  }
  std::printf("config.checkpoints: %d per pass, one every txns/%d "
              "completions\n",
              spec.cycles, spec.cycles + 1);
  std::printf("config.max_records: %" PRIu64 "\n", spec.max_records);
  std::printf("config.disk_bytes_per_sec: 0 (unthrottled)\n");
  std::printf("config.flush_policy: command log streamed every %d ms, one "
              "fsync per batch; checkpoint files fsynced before the "
              "manifest registers them\n",
              options.command_log_flush_ms);
  std::printf("config.capture_threads: %d\n",
              calcdb::Database::ResolvedCaptureThreads(options));
  std::printf("config.recovery_threads: %d\n",
              calcdb::Database::ResolvedRecoveryThreads(options));
  std::printf("config.replay_threads: %d\n",
              calcdb::Database::ResolvedReplayThreads(options));
  std::printf("config.storage_shards: %u\n",
              calcdb::Database::ResolvedStorageShards(options));
  std::printf("config.async_io: %d\n",
              calcdb::Database::ResolvedAsyncIo(options) ? 1 : 0);
}

void PrintPass(const char* label, const PassResult& r) {
  std::printf("-- %s pass: %" PRIu64 " txns in %.3f s, %" PRIu64
              " committed, %" PRIu64 " user aborts, %" PRIu64
              " failed; %zu checkpoint cycles (%" PRIu64 " failed); "
              "%zu latency samples in %zu checkpoint intervals\n",
              label, r.txns, r.load_s, r.committed, r.user_aborts,
              r.txn_failed, r.cycles.size(), r.cycles_failed,
              AllLatencies(r).size(), r.latency_us.size());
  std::printf("   p99 us by checkpoint interval:");
  for (const std::vector<double>& interval : r.latency_us) {
    std::printf(" %.0f", Quantile(interval, 0.99));
  }
  std::printf("\n   txn/s by checkpoint interval:");
  int64_t from_ns = r.load_start_ns;
  uint64_t from_commits = 0;
  for (size_t j = 0; j <= r.cycles.size(); ++j) {
    bool last = j == r.cycles.size();
    int64_t to_ns = last ? r.load_end_ns : r.cycles[j].start_ns;
    uint64_t to_commits = last ? r.committed : r.cycles[j].commits_start;
    if (to_ns > from_ns) {
      std::printf(" %.0f", static_cast<double>(to_commits - from_commits) /
                               (static_cast<double>(to_ns - from_ns) / 1e9));
    }
    from_ns = to_ns;
    from_commits = to_commits;
  }
  std::printf("\n");
  for (const std::string& f : r.failure_samples) {
    std::printf("   failure: %s\n", f.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("   INCORRECT: %s\n", p.c_str());
  }
}

double Tput(const PassResult& r) {
  return r.load_s > 0 ? static_cast<double>(r.committed) / r.load_s : 0;
}

/// Achieved completion rate over the offered rate (open loop only).
double AchievedRatio(const WorkloadSpec& spec, const PassResult& r) {
  if (!spec.open_loop || r.load_s <= 0) return 1;
  return static_cast<double>(r.txns) / r.load_s / spec.txns_per_second;
}

/// Commits per second while a cycle is in flight over commits per second
/// while none is, both within the load phase.
double CkptTputRatio(const PassResult& r) {
  double in_s = 0;
  double in_commits = 0;
  for (const ckptbench::CycleSample& c : r.cycles) {
    int64_t start = std::max(c.start_ns, r.load_start_ns);
    int64_t end = std::min(c.end_ns, r.load_end_ns);
    if (end <= start) continue;
    in_s += static_cast<double>(end - start) / 1e9;
    in_commits += static_cast<double>(c.commits_end - c.commits_start);
  }
  double out_s = r.load_s - in_s;
  double out_commits = static_cast<double>(r.committed) - in_commits;
  if (in_s <= 0 || out_s <= 0 || out_commits <= 0) return 0;
  return (in_commits / in_s) / (out_commits / out_s);
}

std::vector<Metric> EndToEnd(const PassResult& r) {
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"tput_tps", Tput(r), "txn/s"},
      {"ckpt_tput_ratio", CkptTputRatio(r), "ratio"},
      {"lat_p50_us", Quantile(AllLatencies(r), 0.50), "us"},
      {"lat_p99_us", CycleIntervalP99(r), "us"},
      {"ckpt_s", Median(r.cycle_s), "s"},
      {"recovery_s", Median(r.recovery_s), "s"},
      {"rss_peak_mb", r.rss_peak_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const PassResult& r,
                             const ckptbench::SpanRecorder& spans,
                             double overhead_pct) {
  std::vector<double> exec_us, exec_in_ckpt_us;
  for (const ckptbench::SpanBuffer* b : spans.Buffers()) {
    for (const ckptbench::Span& s : b->spans()) {
      if (s.name != ckptbench::kTxnExecute) continue;
      double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      exec_us.push_back(us);
      for (const ckptbench::CycleSample& c : r.cycles) {
        if (s.start_ns < c.end_ns && s.end_ns > c.start_ns) {
          exec_in_ckpt_us.push_back(us);
          break;
        }
      }
    }
  }
  std::vector<double> capture_s, mb, records;
  double bytes_total = 0, capture_total_s = 0;
  int64_t quiesce_max_us = 0;
  for (const ckptbench::CycleSample& c : r.cycles) {
    capture_s.push_back(static_cast<double>(c.stats.capture_micros) / 1e6);
    mb.push_back(static_cast<double>(c.stats.bytes_written) / 1048576.0);
    records.push_back(static_cast<double>(c.stats.records_written));
    bytes_total += static_cast<double>(c.stats.bytes_written);
    capture_total_s += static_cast<double>(c.stats.capture_micros) / 1e6;
    quiesce_max_us = std::max(quiesce_max_us, c.stats.quiesce_micros);
  }
  const calcdb::RecoveryStats& rec = r.recovery;
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"db.open_ms", Median(r.open_s) * 1e3, "ms"},
      {"db.populate_s", Median(r.populate_s), "s"},
      {"db.base_ckpt_s", Median(r.base_ckpt_s), "s"},
      {"db.start_ms", Median(r.start_s) * 1e3, "ms"},
      {"txn.execute_us.p50", Quantile(exec_us, 0.50), "us"},
      {"txn.execute_us.p99", Quantile(exec_us, 0.99), "us"},
      {"txn.execute_us.p99_in_ckpt", Quantile(exec_in_ckpt_us, 0.99), "us"},
      {"txn.attempted", count(r.txns), "count"},
      {"txn.failed", count(r.txn_failed), "count"},
      {"txn.user_aborts", count(r.user_aborts), "count"},
      {"checkpoint.cycles", count(r.cycles.size()), "count"},
      {"checkpoint.cycle_s.p50", Median(r.cycle_s), "s"},
      {"checkpoint.capture_s.p50", Median(capture_s), "s"},
      {"checkpoint.quiesce_us.max", static_cast<double>(quiesce_max_us),
       "us"},
      {"checkpoint.mb_per_cycle", Median(mb), "MB"},
      {"checkpoint.records_per_cycle", Median(records), "count"},
      {"checkpoint.capture_mb_s",
       capture_total_s > 0 ? bytes_total / 1048576.0 / capture_total_s : 0,
       "MB/s"},
      {"log.entries", count(r.log_entries), "count"},
      {"log.disk_bytes_per_txn",
       r.committed > 0 ? static_cast<double>(r.log_disk_bytes) /
                             static_cast<double>(r.committed)
                       : 0,
       "B/txn"},
      {"log.durability_lag.p99", Quantile(r.lag_entries, 0.99), "entries"},
      {"log.shutdown_ms", r.shutdown_s * 1e3, "ms"},
      {"storage.record_mb_peak",
       static_cast<double>(r.record_bytes_peak) / 1048576.0, "MB"},
      {"storage.present", count(r.present), "count"},
      {"storage.slots", count(r.slots), "count"},
      {"recovery.load_s", static_cast<double>(rec.load_micros) / 1e6, "s"},
      {"recovery.replay_s", static_cast<double>(rec.replay_micros) / 1e6,
       "s"},
      {"recovery.checkpoints_loaded", count(rec.checkpoints_loaded), "count"},
      {"recovery.entries_applied", count(rec.entries_applied), "count"},
      {"recovery.txns_replayed", count(rec.txns_replayed), "count"},
      {"recovery.replay_serial_fallbacks",
       count(rec.replay_serial_fallbacks), "count"},
      {"workload.gen_late_us.p99",
       spec.open_loop ? Quantile(r.gen_late_us, 0.99) : 0, "us"},
      {"workload.achieved_ratio", AchievedRatio(spec, r), "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Validity of an open-loop pass: the schedule must be kept.
void CheckSchedule(const WorkloadSpec& spec, PassResult* r) {
  double ratio = AchievedRatio(spec, *r);
  if (ratio < 0.98) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "open-loop generator fell behind its schedule (achieved "
                  "%.3f of the offered rate)",
                  ratio);
    r->correct = false;
    r->problems.push_back(msg);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  for (const char* name : kAutoKnobEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "ckptbench: %s is set; unset every CALCDB_* auto-knob "
                   "variable so the measured configuration is the "
                   "default one\n",
                   name);
      return 2;
    }
  }
  std::string name = flags["workload"];
  uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  double seconds = std::atof(flags["seconds"].c_str());
  bool trace = flags["trace"] == "1";
  bool smoke = flags.count("smoke") != 0;
  std::string work_dir = flags["work_dir"];
  WorkloadSpec spec;
  if (!ckptbench::MakeWorkload(name, smoke, seed, &spec) || seconds <= 0 ||
      work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: ckptbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --work_dir=DIR [--trace_out=FILE] [--smoke]\n"
                 "workloads:");
    for (const std::string& w : ckptbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  PrintConfig(spec, seed, seconds, trace);

  ckptbench::PassConfig config;
  config.seed = seed;
  config.seconds = seconds;
  config.work_dir = work_dir + "/untraced";
  PassResult untraced = ckptbench::RunPass(spec, config);
  CheckSchedule(spec, &untraced);
  PrintPass("untraced", untraced);
  std::vector<Metric> metrics = EndToEnd(untraced);
  PrintMetrics(metrics);

  std::vector<const PassResult*> passes{&untraced};
  PassResult traced;
  if (trace) {
    ckptbench::SpanRecorder spans;
    config.work_dir = work_dir + "/traced";
    config.spans = &spans;
    traced = ckptbench::RunPass(spec, config);
    CheckSchedule(spec, &traced);
    PrintPass("traced", traced);
    double base = Tput(untraced);
    double overhead = base > 0 ? (base - Tput(traced)) / base * 100.0 : 0;
    metrics = PerLayer(spec, traced, spans, overhead);
    std::printf("\nper-layer spans (traced pass):\n%s\n",
                spans.LayerTable().c_str());
    PrintMetrics(metrics);
    std::string trace_out = flags["trace_out"];
    if (!trace_out.empty()) {
      if (spans.WriteChromeTrace(trace_out, /*txn_sample=*/64)) {
        std::printf("trace json: %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      }
    }
    passes.push_back(&traced);
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PassResult* p : passes) {
    correct = correct && p->correct;
    attempted += p->txns + p->cycles.size();
    failed += p->txn_failed + p->cycles_failed;
  }
  if (attempted == 0) {
    std::fprintf(stderr, "ckptbench: setup failed before any operation\n");
    return 1;
  }
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
