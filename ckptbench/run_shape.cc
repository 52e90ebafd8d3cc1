#include "run_shape.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "db/database.h"
#include "log/command_log_streamer.h"
#include "storage/memory_tracker.h"
#include "txn/driver.h"
#include "util/rng.h"

namespace ckptbench {

using calcdb::CheckpointAlgorithm;
using calcdb::Database;
using calcdb::Options;
using calcdb::Status;

namespace fs = std::filesystem;

namespace {

constexpr int kMaxFailureSamples = 5;

/// Rows one TPC-C order-ring slot can hold: ORDER + NEW-ORDER + up to 15
/// ORDER-LINE rows. Sizing with fewer (fig10_scaling uses 13) makes a
/// long run refuse inserts with "Busy: store at capacity".
constexpr uint64_t kRowsPerOrderSlot = 17;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent digest of every present (key, value) pair.
struct Digest {
  uint64_t records = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;
  bool operator==(const Digest&) const = default;
};

uint64_t Fnv1a(uint64_t key, const std::string& value, uint64_t basis) {
  uint64_t h = basis;
  for (int i = 0; i < 8; ++i) {
    h ^= (key >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  for (unsigned char c : value) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Options MakeOptions(const WorkloadSpec& spec, const std::string& dir) {
  Options options;
  options.algorithm = spec.algorithm;
  options.max_records = spec.max_records;
  options.checkpoint_dir = dir + "/ckpt";
  options.command_log_path = dir + "/log/command.log";
  // Unthrottled: with the simulated device's token bucket on, ckpt_s is
  // set by the bucket and no capture-path change could move it.
  options.disk_bytes_per_sec = 0;
  return options;
}

/// The streamer does not create the parent directory of
/// command_log_path (WriteBaseCheckpoint then fails with IOError).
Status MakeDirs(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir + "/ckpt", ec);
  if (!ec) fs::create_directories(dir + "/log", ec);
  if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
  return Status::OK();
}

void RegisterProcedures(const WorkloadSpec& spec, Database* db) {
  if (spec.tpcc) {
    db->registry()->Register(
        std::make_unique<calcdb::tpcc::NewOrderProcedure>());
    db->registry()->Register(
        std::make_unique<calcdb::tpcc::PaymentProcedure>());
  } else {
    db->registry()->Register(
        std::make_unique<calcdb::RmwProcedure>(spec.micro.value_size));
    db->registry()->Register(
        std::make_unique<calcdb::BatchWriteProcedure>(spec.micro.value_size));
  }
}

Status Populate(const WorkloadSpec& spec, Database* db) {
  return spec.tpcc ? calcdb::tpcc::SetupTpcc(db, spec.tpcc_config)
                   : calcdb::SetupMicrobench(db, spec.micro);
}

Digest DigestState(Database* db, SpanBuffer* spans) {
  ScopedSpan span(spans, kStorageDigest);
  Digest d;
  std::string value;
  db->store()->ForEachRecord([&](calcdb::Record* rec) {
    if (rec == nullptr || rec->key == ~uint64_t{0}) return;
    if (!db->Read(rec->key, &value).ok()) return;
    d.records += 1;
    d.sum_a += Fnv1a(rec->key, value, 1469598103934665603ULL);
    d.sum_b += Mix64(Fnv1a(rec->key, value, 0x84222325cbf29ce4ULL));
  });
  return d;
}

/// TPC-C consistency condition 1: W_YTD = sum(D_YTD) per warehouse.
bool TpccConsistent(Database* db, const calcdb::tpcc::TpccConfig& config,
                    std::string* why) {
  using namespace calcdb::tpcc;
  std::string buf;
  for (uint32_t w = 1; w <= config.num_warehouses; ++w) {
    WarehouseRow wh;
    if (!db->Read(WarehouseKey(w), &buf).ok() || !ParseRow(buf, &wh).ok()) {
      *why = "warehouse row unreadable";
      return false;
    }
    double sum = 0;
    for (uint32_t d = 1; d <= config.districts_per_warehouse; ++d) {
      DistrictRow dr;
      if (!db->Read(DistrictKey(w, d), &buf).ok() ||
          !ParseRow(buf, &dr).ok()) {
        *why = "district row unreadable";
        return false;
      }
      sum += dr.d_ytd;
    }
    if (std::fabs(wh.w_ytd - sum) > 1e-9 * std::max(1.0, wh.w_ytd)) {
      char msg[128];
      std::snprintf(msg, sizeof(msg), "W_YTD %.4f != sum(D_YTD) %.4f (w=%u)",
                    wh.w_ytd, sum, w);
      *why = msg;
      return false;
    }
  }
  return true;
}

/// Peak resident set size so far (VmHWM), in MiB.
double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

void WaitUntilNs(int64_t due_ns) {
  for (;;) {
    int64_t ahead = due_ns - NowNs();
    if (ahead <= 0) return;
    if (ahead > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 100000));
    } else {
      std::this_thread::yield();
    }
  }
}

void Fail(PassResult* r, const std::string& why) {
  r->correct = false;
  r->problems.push_back(why);
}

/// One setup repetition: Open + populate + WriteBaseCheckpoint + Start.
Status Setup(const WorkloadSpec& spec, const std::string& dir,
             SpanBuffer* spans, PassResult* r,
             std::unique_ptr<Database>* db) {
  CALCDB_RETURN_NOT_OK(MakeDirs(dir));
  Options options = MakeOptions(spec, dir);
  ScopedSpan total(spans, kBenchSetup);
  Status st;
  {
    ScopedSpan s(spans, kDbOpen);
    st = Database::Open(options, db);
    r->open_s.push_back(Seconds(s.Finish()));
  }
  CALCDB_RETURN_NOT_OK(st);
  {
    ScopedSpan s(spans, kDbPopulate);
    st = Populate(spec, db->get());
    r->populate_s.push_back(Seconds(s.Finish()));
  }
  CALCDB_RETURN_NOT_OK(st);
  {
    ScopedSpan s(spans, kDbBaseCkpt);
    st = (*db)->WriteBaseCheckpoint();
    r->base_ckpt_s.push_back(Seconds(s.Finish()));
  }
  CALCDB_RETURN_NOT_OK(st);
  {
    ScopedSpan s(spans, kDbStart);
    st = (*db)->Start();
    r->start_s.push_back(Seconds(s.Finish()));
  }
  CALCDB_RETURN_NOT_OK(st);
  r->setup_s.push_back(Seconds(total.Finish()));
  return Status::OK();
}

struct ClientOut {
  std::vector<std::vector<double>> latency_us;  ///< by checkpoint interval
  std::vector<double> gen_late_us;
  uint64_t committed = 0;
  uint64_t user_aborts = 0;
  uint64_t failed = 0;
  std::vector<std::string> failure_samples;
  int64_t finish_ns = 0;
};

struct LoadShared {
  Database* db = nullptr;
  calcdb::WorkloadGenerator* workload = nullptr;
  SpanRecorder* spans = nullptr;
  std::atomic<uint64_t> finished{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<int> clients_running{0};
  /// Checkpoint interval in progress: j once cycle j has started.
  std::atomic<int> interval{0};
  int64_t start_ns = 0;
};

void ClientLoop(const WorkloadSpec& spec, const PassConfig& config,
                LoadShared* shared, int client, uint64_t total,
                ClientOut* out) {
  SpanBuffer* spans =
      shared->spans != nullptr ? shared->spans->NewBuffer() : nullptr;
  WaitUntilNs(shared->start_ns);
  calcdb::Rng rng(Mix64(config.seed) + static_cast<uint64_t>(client));
  calcdb::Executor* executor = shared->db->executor();
  const double interval_ns = 1e9 / spec.txns_per_second;
  uint64_t mine = total / static_cast<uint64_t>(spec.clients) +
                  (static_cast<uint64_t>(client) <
                           total % static_cast<uint64_t>(spec.clients)
                       ? 1
                       : 0);
  out->latency_us.resize(static_cast<size_t>(spec.cycles) + 1);
  if (spec.open_loop) out->gen_late_us.reserve(mine);
  for (uint64_t i = 0; i < mine; ++i) {
    // Global request index: clients interleave one shared schedule.
    uint64_t j = i * static_cast<uint64_t>(spec.clients) +
                 static_cast<uint64_t>(client);
    uint64_t txn_id = j + 1;
    int64_t due_ns = 0;
    if (spec.open_loop) {
      due_ns = shared->start_ns +
               static_cast<int64_t>(static_cast<double>(j) * interval_ns);
      WaitUntilNs(due_ns);
      out->gen_late_us.push_back(static_cast<double>(NowNs() - due_ns) / 1e3);
    }
    calcdb::TxnRequest req;
    {
      ScopedSpan gen(spans, kWorkloadGen, txn_id);
      req = shared->workload->Next(rng);
    }
    ScopedSpan exec(spans, kTxnExecute, txn_id);
    Status st = executor->Execute(req.proc_id, std::move(req.args),
                                  exec.start_ns() / 1000);
    int64_t dur_ns = exec.Finish();
    int64_t from_ns = spec.open_loop ? due_ns : exec.start_ns();
    out->latency_us[static_cast<size_t>(
                        shared->interval.load(std::memory_order_relaxed))]
        .push_back(static_cast<double>(exec.start_ns() + dur_ns - from_ns) /
                   1e3);
    if (st.ok()) {
      out->committed += 1;
      shared->committed.fetch_add(1, std::memory_order_relaxed);
    } else if (st.IsAborted() && st.message() == "unused item number") {
      out->user_aborts += 1;
    } else {
      out->failed += 1;
      if (out->failure_samples.size() < kMaxFailureSamples) {
        out->failure_samples.push_back(st.ToString());
      }
    }
    shared->finished.fetch_add(1, std::memory_order_release);
  }
  out->finish_ns = NowNs();
  shared->clients_running.fetch_sub(1, std::memory_order_release);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"micro-calc", "tpcc-pcalc", "zipf-open"};
}

bool MakeWorkload(const std::string& name, bool smoke, uint64_t seed,
                  WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "micro-calc" || name == "zipf-open") {
    // Paper §5.1: 10-op read-modify-write over 100 B values, 1M records
    // (far beyond the per-core caches).
    spec.algorithm = CheckpointAlgorithm::kCalc;
    spec.micro.num_records = smoke ? 20000 : 1000000;
    spec.micro.value_size = 100;
    spec.micro.ops_per_txn = 10;
    spec.micro.seed = seed;
    spec.max_records = spec.micro.num_records + 1024;
    if (name == "micro-calc") {
      spec.txns_per_second = 100000;
    } else {
      spec.open_loop = true;
      spec.micro.distribution =
          calcdb::MicrobenchConfig::AccessDistribution::kZipf;
      spec.micro.zipf_theta = 0.99;
      // Fixed absolute offered rate, about half this mix's closed-loop
      // capacity with 2 clients on a 4-core host. Never calibrated per
      // run: a faster engine must not be offered more load.
      spec.txns_per_second = 55000;
    }
  } else if (name == "tpcc-pcalc") {
    // fig10_scaling's TPC-C scale, 50% NewOrder / 50% Payment.
    spec.algorithm = CheckpointAlgorithm::kPCalc;
    spec.tpcc = true;
    calcdb::tpcc::TpccConfig& c = spec.tpcc_config;
    c.num_warehouses = smoke ? 1 : 4;
    c.districts_per_warehouse = 10;
    c.customers_per_district = smoke ? 30 : 200;
    c.num_items = smoke ? 200 : 1000;
    c.initial_orders_per_district = smoke ? 20 : 200;
    c.order_ring_size = smoke ? 100 : 1000;
    c.history_ring_size = smoke ? 1024 : 1 << 16;
    c.seed = seed;
    spec.max_records =
        calcdb::tpcc::InitialRecordCount(c) +
        uint64_t{c.num_warehouses} * c.districts_per_warehouse *
            c.order_ring_size * kRowsPerOrderSlot +
        uint64_t{c.num_warehouses} * c.history_ring_size;
    spec.txns_per_second = 100000;
    // Setup here is ~40 ms, much of it one fsync, whose time varies a lot:
    // many repetitions keep the median steady.
    spec.setup_reps = 25;
  } else {
    return false;
  }
  if (smoke) {
    spec.txns_per_second = std::min(spec.txns_per_second, 5000.0);
    spec.setup_reps = 2;
    spec.recovery_reps = 2;
    spec.cycles = 2;
  }
  *out = spec;
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  size_t index = rank == 0 ? 0 : std::min(rank - 1, values.size() - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

PassResult RunPass(const WorkloadSpec& spec, const PassConfig& config) {
  PassResult r;
  SpanBuffer* main_spans =
      config.spans != nullptr ? config.spans->NewBuffer() : nullptr;

  // --- 1. setup, repeated; the last repetition's database carries on ---
  std::unique_ptr<Database> db;
  std::string dir;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    if (db != nullptr) {
      Status st = db->Shutdown();
      if (!st.ok()) Fail(&r, "setup shutdown: " + st.ToString());
      db.reset();
      fs::remove_all(dir);
    }
    dir = config.work_dir + "/rep" + std::to_string(rep);
    Status st = Setup(spec, dir, main_spans, &r, &db);
    if (!st.ok()) {
      Fail(&r, "setup: " + st.ToString());
      return r;
    }
  }
  Options options = MakeOptions(spec, dir);

  // --- 2. load phase: fixed work ---------------------------------------
  std::unique_ptr<calcdb::WorkloadGenerator> workload;
  if (spec.tpcc) {
    workload = std::make_unique<calcdb::tpcc::TpccWorkload>(spec.tpcc_config);
  } else {
    workload = std::make_unique<calcdb::MicrobenchWorkload>(spec.micro);
  }
  r.txns = static_cast<uint64_t>(
      std::llround(config.seconds * spec.txns_per_second));
  // Checkpoint j of `cycles` starts once j * every transactions have
  // finished, so the recovery tail is about `every` transactions.
  const uint64_t every = r.txns / static_cast<uint64_t>(spec.cycles + 1);

  LoadShared shared;
  shared.db = db.get();
  shared.workload = workload.get();
  shared.spans = config.spans;
  shared.clients_running = spec.clients;
  std::atomic<bool> sampling{true};
  std::vector<ClientOut> outs(static_cast<size_t>(spec.clients));

  std::thread sampler([&] {
    calcdb::CommandLogStreamer* streamer = db->command_log_streamer();
    while (sampling.load(std::memory_order_acquire)) {
      uint64_t size = db->commit_log()->Size();
      uint64_t persisted = streamer->persisted_lsn();
      r.lag_entries.push_back(
          static_cast<double>(size > persisted ? size - persisted : 0));
      r.record_bytes_peak =
          std::max(r.record_bytes_peak,
                   calcdb::MemoryTracker::Global().total_bytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  shared.start_ns = NowNs() + 1000000;  // open-loop schedule origin
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back(ClientLoop, std::cref(spec), std::cref(config),
                         &shared, c, r.txns, &outs[static_cast<size_t>(c)]);
  }
  std::thread checkpointer([&] {
    SpanBuffer* spans =
        config.spans != nullptr ? config.spans->NewBuffer() : nullptr;
    for (int j = 1; j <= spec.cycles; ++j) {
      uint64_t threshold = static_cast<uint64_t>(j) * every;
      while (shared.finished.load(std::memory_order_acquire) < threshold &&
             shared.clients_running.load(std::memory_order_acquire) > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      shared.interval.store(j, std::memory_order_relaxed);
      CycleSample cycle;
      cycle.commits_start = shared.committed.load(std::memory_order_relaxed);
      Status st;
      {
        ScopedSpan span(spans, kCkptCycle);
        cycle.start_ns = span.start_ns();
        st = db->Checkpoint();
        cycle.end_ns = span.start_ns() + span.Finish();
      }
      cycle.commits_end = shared.committed.load(std::memory_order_relaxed);
      cycle.ok = st.ok();
      cycle.stats = db->checkpointer()->last_cycle();
      if (!st.ok()) {
        std::fprintf(stderr, "checkpoint %d failed: %s\n", j,
                     st.ToString().c_str());
      }
      r.cycles.push_back(cycle);
    }
  });
  for (std::thread& t : clients) t.join();
  checkpointer.join();
  sampling.store(false, std::memory_order_release);
  sampler.join();
  r.rss_peak_mb = PeakRssMb();

  int64_t load_start_ns = shared.start_ns;
  int64_t load_end_ns = load_start_ns;
  for (ClientOut& out : outs) {
    load_end_ns = std::max(load_end_ns, out.finish_ns);
    r.committed += out.committed;
    r.user_aborts += out.user_aborts;
    r.txn_failed += out.failed;
    for (std::string& f : out.failure_samples) {
      if (r.failure_samples.size() < kMaxFailureSamples) {
        r.failure_samples.push_back(std::move(f));
      }
    }
    r.latency_us.resize(out.latency_us.size());
    for (size_t i = 0; i < out.latency_us.size(); ++i) {
      r.latency_us[i].insert(r.latency_us[i].end(),
                             out.latency_us[i].begin(),
                             out.latency_us[i].end());
    }
    r.gen_late_us.insert(r.gen_late_us.end(), out.gen_late_us.begin(),
                         out.gen_late_us.end());
    out = ClientOut();
  }
  r.load_start_ns = load_start_ns;
  r.load_end_ns = load_end_ns;
  r.load_s = Seconds(load_end_ns - load_start_ns);
  for (const CycleSample& c : r.cycles) {
    r.cycle_s.push_back(Seconds(c.end_ns - c.start_ns));
    if (!c.ok) r.cycles_failed += 1;
  }

  // --- 3. digest the live state ----------------------------------------
  Digest live = DigestState(db.get(), main_spans);
  r.log_entries = db->commit_log()->Size();
  r.present = db->store()->CountPresent();
  r.slots = db->store()->TotalSlots();
  std::string why;
  if (spec.tpcc && !TpccConsistent(db.get(), spec.tpcc_config, &why)) {
    Fail(&r, "live state: TPC-C condition 1: " + why);
  }

  // --- 4. shutdown -----------------------------------------------------
  {
    ScopedSpan span(main_spans, kLogShutdown);
    Status st = db->Shutdown();
    r.shutdown_s = Seconds(span.Finish());
    if (!st.ok()) Fail(&r, "shutdown: " + st.ToString());
  }
  std::vector<std::string> generations;
  Status list_st =
      calcdb::CommandLogStreamer::ListLogFiles(options.command_log_path,
                                               &generations);
  if (!list_st.ok()) Fail(&r, "list log generations: " + list_st.ToString());
  for (const std::string& g : generations) {
    std::error_code ec;
    uintmax_t size = fs::file_size(g, ec);
    if (!ec) r.log_disk_bytes += size;
  }
  db.reset();

  // --- 5./6. recovery into a fresh database, digested and compared ------
  // Repeated: recovery only reads the checkpoint directory and the log
  // generations, and recovery_s is the median of the repetitions.
  for (int rep = 0; rep < spec.recovery_reps; ++rep) {
    std::unique_ptr<Database> recovered;
    calcdb::RecoveryStats stats;
    Status st;
    {
      ScopedSpan total(main_spans, kBenchRecover);
      {
        ScopedSpan s(main_spans, kDbOpen);
        st = Database::Open(options, &recovered);
      }
      if (st.ok()) {
        RegisterProcedures(spec, recovered.get());
        ScopedSpan s(main_spans, kRecoveryRecover);
        st = recovered->RecoverFromCommandLog(&stats);
      }
      r.recovery_s.push_back(Seconds(total.Finish()));
    }
    if (!st.ok()) {
      Fail(&r, "recovery: " + st.ToString());
      break;
    }
    r.recovery = stats;
    Digest digest = DigestState(recovered.get(), main_spans);
    if (!(digest == live)) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "recovered digest (%llu records) != live digest (%llu "
                    "records)",
                    static_cast<unsigned long long>(digest.records),
                    static_cast<unsigned long long>(live.records));
      Fail(&r, msg);
    }
    if (spec.tpcc &&
        !TpccConsistent(recovered.get(), spec.tpcc_config, &why)) {
      Fail(&r, "recovered state: TPC-C condition 1: " + why);
    }
  }
  fs::remove_all(config.work_dir);
  return r;
}

}  // namespace ckptbench
