#include "recovery/recovery_manager.h"

#include <sched.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "recovery/replay_scheduler.h"
#include "util/clock.h"

namespace calcdb {

namespace {

/// Runs `fn(i)` for every i in [0, n) on up to `nthreads` workers (the
/// caller is one of them).
void ParallelFor(size_t n, int nthreads,
                 const std::function<void(size_t)>& fn) {
  size_t workers = nthreads < 1 ? 1 : static_cast<size_t>(nthreads);
  if (workers > n) workers = n;
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < workers; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
}

/// Reads every entry and the footer of one checkpoint file without
/// applying anything. A short read (IOError) means the file is torn; a
/// CRC / count mismatch means Corruption.
Status ValidateCheckpointFile(const std::string& path) {
  CheckpointFileReader reader;
  CALCDB_RETURN_NOT_OK(reader.Open(path));
  return reader.Scan(
      [](const CheckpointEntryView&) -> Status { return Status::OK(); });
}

/// Validates the manifest's chain: every file of every member, on one
/// worker pool. Outcomes are then read in chain order. The first member
/// with a torn file (short read, missing file: a crash artifact) is
/// rejected with every later checkpoint, and the chain is recomputed from
/// the survivors. A Corruption (CRC / count mismatch: damage) fails.
Status ValidateChain(CheckpointStorage* storage, int threads,
                     RecoveryStats* stats,
                     std::vector<CheckpointInfo>* chain) {
  CALCDB_TRACE_SPAN(validate_span, "validate_checkpoints", "recovery", 0);
  std::vector<CheckpointInfo> candidates = storage->List();
  std::unordered_map<std::string, Status> outcome;  // by file path
  for (;;) {
    *chain = CheckpointStorage::ChainFrom(candidates);
    std::vector<std::string> pending;
    for (const CheckpointInfo& info : *chain) {
      for (std::string& file : info.files()) {
        if (outcome.count(file) == 0) pending.push_back(std::move(file));
      }
    }
    std::vector<Status> results(pending.size());
    ParallelFor(pending.size(), threads, [&](size_t i) {
      results[i] = ValidateCheckpointFile(pending[i]);
    });
    for (size_t i = 0; i < pending.size(); ++i) {
      outcome[pending[i]] = std::move(results[i]);
    }

    uint64_t torn_id = 0;
    bool torn = false;
    for (const CheckpointInfo& info : *chain) {
      Status member;
      for (const std::string& file : info.files()) {
        const Status& st = outcome[file];
        if (st.IsCorruption()) return st;  // damage: fail loudly
        if (!st.ok() && member.ok()) member = st;
      }
      if (member.ok()) continue;
      torn = true;
      torn_id = info.id;
      CALCDB_WARN("recovery.torn_checkpoint", "recovery", member.ToString(),
                  {"checkpoint_id", static_cast<int64_t>(info.id)});
      break;
    }
    if (!torn) return Status::OK();
    // Reject the torn checkpoint and everything after it: a later partial
    // layered onto the older surviving base would claim a too-new replay
    // LSN and silently lose the torn checkpoint's window of commits.
    // Command-log replay from the surviving chain's point of consistency
    // re-covers the whole discarded window.
    std::vector<CheckpointInfo> kept;
    for (CheckpointInfo& c : candidates) {
      if (c.id < torn_id) {
        kept.push_back(std::move(c));
      } else {
        ++stats->checkpoints_rejected;
        CALCDB_COUNTER_ADD("calcdb.recovery.checkpoints_rejected", 1);
        CALCDB_WARN("recovery.checkpoint_rejected", "recovery", c.path,
                    {"checkpoint_id", static_cast<int64_t>(c.id)},
                    {"torn_id", static_cast<int64_t>(torn_id)});
      }
    }
    candidates = std::move(kept);
  }
}

/// One store shard's side of the apply-once fold. The chain is walked
/// newest-first, and the first entry seen for a key claims it: later
/// (older) entries for the key are skipped. Claims live here, not in the
/// store, so keys the store held before recovery behave as they always
/// did: the chain's newest entry for them wins, and the rest stay.
class ShardFold {
 public:
  ShardFold(KVStore* shard, ValuePool* pool, ChainFoldStats* stats)
      : shard_(shard),
        pool_(pool),
        stats_(stats),
        claimed_(shard->max_records()) {}

  Status Apply(const CheckpointEntryView& entry) {
    stats_->read_bytes += sizeof(entry.key) + entry.value.size();
    Record* rec = entry.tombstone ? shard_->Find(entry.key)
                                  : shard_->FindOrCreate(entry.key);
    if (rec == nullptr) {
      if (!entry.tombstone) {
        return Status::Busy("store at max_records capacity");
      }
      // No slot to claim: claim the key itself. Deleting an absent key is
      // a no-op, as a partial may tombstone a record the base never held.
      Count(tombstoned_.insert(entry.key).second);
      return Status::OK();
    }
    // A key that a newer tombstone claimed while it had no slot stays
    // deleted.
    bool fresh = !claimed_[rec->index] && tombstoned_.count(entry.key) == 0;
    claimed_[rec->index] = true;
    Count(fresh);
    if (!fresh) return Status::OK();
    Value* v = entry.tombstone ? nullptr : Value::Create(entry.value, pool_);
    SpinLatchGuard guard(rec->latch);
    if (v != nullptr || Record::IsRealValue(rec->live)) {
      shard_->ReplaceLive(*rec, v);
    }
    return Status::OK();
  }

 private:
  void Count(bool applied) {
    ++(applied ? stats_->applied : stats_->skipped);
  }

  KVStore* shard_;
  ValuePool* pool_;
  ChainFoldStats* stats_;
  std::vector<bool> claimed_;                // by slot index
  std::unordered_set<uint64_t> tombstoned_;  // claimed keys with no slot
};

}  // namespace

int RecoveryManager::LoadThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Status RecoveryManager::LoadCheckpoints(CheckpointStorage* storage,
                                        ShardedStore* store,
                                        RecoveryStats* stats) {
  Stopwatch sw;
  CALCDB_TRACE_SPAN(load_span, "load_checkpoints", "recovery", 0);
  const int threads = LoadThreads();

  // Validate the whole chain before applying anything: a torn segment
  // must reject its checkpoint before any sibling segment touches the
  // store, and rejection shortens the chain.
  std::vector<CheckpointInfo> chain;
  CALCDB_RETURN_NOT_OK(ValidateChain(storage, threads, stats, &chain));
  stats->validate_micros = sw.ElapsedMicros();
  CALCDB_COUNTER_ADD("calcdb.recovery.validate_us", stats->validate_micros);
  if (chain.empty()) {
    stats->load_micros = sw.ElapsedMicros();
    return Status::OK();
  }

  ChainFoldStats fold;
  Status st = FoldChain(chain, store, &fold);
  stats->entries_applied += fold.applied;
  CALCDB_COUNTER_ADD("calcdb.recovery.entries_applied", fold.applied);
  CALCDB_COUNTER_ADD("calcdb.recovery.entries_skipped", fold.skipped);
  CALCDB_COUNTER_ADD("calcdb.recovery.checkpoint_read_bytes",
                     fold.read_bytes);
  CALCDB_RETURN_NOT_OK(st);

  uint64_t segments = 0;
  for (const CheckpointInfo& info : chain) segments += info.files().size();
  stats->segments_loaded += segments;
  CALCDB_COUNTER_ADD("calcdb.recovery.segments_loaded", segments);
  stats->checkpoints_loaded += chain.size();
  stats->replay_from_lsn = chain.back().vpoc_lsn;
  stats->last_checkpoint_id = chain.back().id;
  stats->load_micros = sw.ElapsedMicros();
  return Status::OK();
}

Status RecoveryManager::FoldChain(const std::vector<CheckpointInfo>& chain,
                                  ShardedStore* store,
                                  ChainFoldStats* stats) {
  std::vector<ShardFold> folds;
  for (uint32_t s = 0; s < store->num_shards(); ++s) {
    folds.emplace_back(store->shard(s), store->pool(), stats);
  }
  for (size_t i = chain.size(); i-- > 0;) {
    for (const std::string& path : chain[i].files()) {
      CheckpointFileReader reader;
      CALCDB_RETURN_NOT_OK(reader.Open(path));
      CALCDB_RETURN_NOT_OK(
          reader.Scan([&](const CheckpointEntryView& entry) -> Status {
            return folds[store->ShardOf(entry.key)].Apply(entry);
          }));
    }
  }
  return Status::OK();
}

Status RecoveryManager::ReplayLog(const CommitLog& log,
                                  const ProcedureRegistry& registry,
                                  ShardedStore* store, RecoveryStats* stats,
                                  int replay_threads) {
  Stopwatch sw;
  ReplayScheduler replayer(registry, store, replay_threads);
  // With no checkpoint loaded, the whole log (from LSN 0) is the replay
  // set; otherwise replay strictly after the loaded point of consistency.
  std::vector<LogEntry> commits =
      stats->checkpoints_loaded == 0
          ? log.CommitsFrom(0)
          : log.CommitsAfter(stats->replay_from_lsn);
  CALCDB_RETURN_NOT_OK(replayer.Replay(commits, stats));
  stats->replay_micros = sw.ElapsedMicros();
  return Status::OK();
}

Status RecoveryManager::ReplayLogGenerations(
    const std::vector<std::string>& files,
    const ProcedureRegistry& registry, ShardedStore* store,
    RecoveryStats* stats, int replay_threads) {
  Stopwatch sw;
  // Load every generation up front: a generation that fails to load at
  // all is damage worth surfacing before any replay mutates the store
  // (LoadFrom already tolerates a torn final entry).
  std::vector<std::unique_ptr<CommitLog>> logs;
  logs.reserve(files.size());
  for (const std::string& file : files) {
    auto log = std::make_unique<CommitLog>();
    CALCDB_RETURN_NOT_OK(log->LoadFrom(file));
    logs.push_back(std::move(log));
  }

  // Find the anchor generation: the newest one holding the last applied
  // checkpoint's RESOLVE token at exactly the checkpoint's vpoc LSN.
  // Newest-first, because a crashed lifetime can reuse a checkpoint id
  // (the id was never persisted) — the replayed chain's token is the one
  // from the latest lifetime that produced a surviving checkpoint.
  size_t anchor = files.size();  // "none"
  if (stats->checkpoints_loaded != 0) {
    for (size_t i = logs.size(); i-- > 0;) {
      uint64_t lsn = 0;
      if (logs[i]->FindPhaseToken(stats->last_checkpoint_id,
                                  Phase::kResolve, &lsn) &&
          lsn == stats->replay_from_lsn) {
        anchor = i;
        break;
      }
    }
    if (anchor == files.size()) {
      // No generation persisted the checkpoint's RESOLVE token. Checkpoint
      // cycles gate registration on the token being fsynced
      // (Checkpointer::WaitLogDurable; WriteBaseCheckpoint pre-flushes),
      // so when streaming was on for the checkpoint's lifetime its token
      // reached that lifetime's generation before the manifest could name
      // it — a missing token means the only generations that could hold
      // commits past it have been retired, or the checkpoint was taken
      // without streaming and appends within its lifetime's generation
      // (if any) are sequential, so nothing *after* the token persisted
      // either. Both ways the checkpoint already covers every durable
      // commit, and there is nothing to replay.
      CALCDB_EVENT("recovery.anchor_not_found", "recovery", "",
                   {"checkpoint_id",
                    static_cast<int64_t>(stats->last_checkpoint_id)},
                   {"generations", static_cast<int64_t>(files.size())});
      for (size_t i = 0; i < logs.size(); ++i) {
        RecoveryStats::GenerationReplay gen;
        gen.file = files[i];
        gen.commits_total = logs[i]->CommitCount();
        gen.skipped = gen.commits_total;
        stats->generations.push_back(std::move(gen));
      }
      stats->replay_micros = sw.ElapsedMicros();
      return Status::OK();
    }
  }

  ReplayScheduler replayer(registry, store, replay_threads);
  for (size_t i = 0; i < logs.size(); ++i) {
    RecoveryStats::GenerationReplay gen;
    gen.file = files[i];
    gen.commits_total = logs[i]->CommitCount();
    std::vector<LogEntry> commits;
    bool skip = false;
    if (stats->checkpoints_loaded == 0) {
      commits = logs[i]->CommitsFrom(0);  // no checkpoint: replay all
    } else if (i < anchor) {
      skip = true;  // fully covered by the checkpoint chain
    } else if (i == anchor) {
      commits = logs[i]->CommitsAfter(stats->replay_from_lsn);
    } else {
      commits = logs[i]->CommitsFrom(0);  // later lifetime: replay all
    }
    gen.replayed = commits.size();
    gen.skipped = gen.commits_total - gen.replayed;
    CALCDB_EVENT("recovery.generation_replayed", "recovery", files[i],
                 {"generation", static_cast<int64_t>(i)},
                 {"replayed", static_cast<int64_t>(gen.replayed)},
                 {"skipped", static_cast<int64_t>(gen.skipped)});
    stats->generations.push_back(std::move(gen));
    if (skip) continue;
    CALCDB_RETURN_NOT_OK(replayer.Replay(commits, stats));
    ++stats->log_generations_replayed;
  }
  stats->replay_micros = sw.ElapsedMicros();
  return Status::OK();
}

Status RecoveryManager::Recover(CheckpointStorage* storage,
                                const CommitLog& log,
                                const ProcedureRegistry& registry,
                                ShardedStore* store, RecoveryStats* stats,
                                int replay_threads) {
  CALCDB_RETURN_NOT_OK(LoadCheckpoints(storage, store, stats));
  return ReplayLog(log, registry, store, stats, replay_threads);
}

}  // namespace calcdb
