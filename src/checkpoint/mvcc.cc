#include "checkpoint/mvcc.h"

#include <cassert>

#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

MvccCheckpointer::MvccCheckpointer(EngineContext engine,
                                   MvccOptions options)
    : Checkpointer(engine), options_(options) {
  uint32_t nshards = engine_.store->num_shards();
  heads_.resize(nshards);
  // Migrate the loaded database into version chains: one version per
  // record, stamped 0 (before any possible point of consistency). The
  // node shares the live buffer — no copy.
  for (uint32_t s = 0; s < nshards; ++s) {
    KVStore* shard = engine_.store->shard(s);
    heads_[s].assign(shard->max_records(), nullptr);
    uint32_t slots = shard->NumSlots();
    for (uint32_t idx = 0; idx < slots; ++idx) {
      Record* rec = shard->ByIndex(idx);
      SpinLatchGuard guard(rec->latch);
      if (Record::IsRealValue(rec->live)) {
        heads_[s][idx] = new VersionNode{Value::Ref(rec->live), 0, nullptr};
        live_versions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

MvccCheckpointer::~MvccCheckpointer() {
  for (auto& shard_heads : heads_) {
    for (VersionNode*& head : shard_heads) {
      FreeChain(head);
      head = nullptr;
    }
  }
}

void MvccCheckpointer::FreeChain(VersionNode* node) {
  while (node != nullptr) {
    VersionNode* next = node->next;
    if (node->value != nullptr) Value::Unref(node->value);
    delete node;
    live_versions_.fetch_sub(1, std::memory_order_relaxed);
    node = next;
  }
}

Value* MvccCheckpointer::ReadRecord(Txn& txn, Record& rec) {
  (void)txn;
  // rec.live is kept in sync with the newest version; under 2PL only the
  // lock holder can be here, so the newest version is the right read.
  return Record::IsRealValue(rec.live) ? rec.live : nullptr;
}

void MvccCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  // Append the new version (unstamped until the commit token assigns its
  // LSN) and sync the live pointer.
  VersionNode*& head_slot = heads_[rec.shard][rec.index];
  VersionNode* node = new VersionNode{
      new_val != nullptr ? Value::Ref(new_val) : nullptr, kUnstamped,
      head_slot};
  head_slot = node;
  live_versions_.fetch_add(1, std::memory_order_relaxed);
  engine_.store->ReplaceLive(rec, new_val);

  if (!options_.eager_gc) return;

  // Eager GC: retain the head (this transaction's version), the newest
  // committed version, and — while a capture at LSN V runs — the newest
  // version with stamp <= V. Everything deeper is unreachable by any
  // current or future point of consistency. (Safety of the
  // no-capture path rests on a happens-before chain through the commit
  // log latch and the record's stripe lock; see DESIGN.md.)
  bool capturing = capture_active_.load(std::memory_order_acquire);
  uint64_t capture_lsn = capture_lsn_.load(std::memory_order_acquire);
  VersionNode* prev = node;
  VersionNode* cur = node->next;
  bool kept_committed = false;
  bool kept_capture = !capturing;
  while (cur != nullptr) {
    bool keep = false;
    if (!kept_committed && cur->stamp != kUnstamped) {
      keep = true;
      kept_committed = true;
      if (capturing && cur->stamp <= capture_lsn) kept_capture = true;
    } else if (!kept_capture && cur->stamp != kUnstamped &&
               cur->stamp <= capture_lsn) {
      keep = true;
      kept_capture = true;
    }
    if (keep) {
      prev = cur;
      cur = cur->next;
    } else {
      prev->next = cur->next;
      if (cur->value != nullptr) Value::Unref(cur->value);
      delete cur;
      live_versions_.fetch_sub(1, std::memory_order_relaxed);
      cur = prev->next;
    }
  }
}

void MvccCheckpointer::OnCommit(Txn& txn) {
  // Stamp this transaction's versions with its commit LSN — before lock
  // release, so the next writer of each record sees a stamped head.
  for (Record* rec : txn.written_records) {
    SpinLatchGuard guard(rec->latch);
    VersionNode* head = heads_[rec->shard][rec->index];
    assert(head != nullptr);
    if (head != nullptr && head->stamp == kUnstamped) {
      head->stamp = txn.commit_lsn;
    }
  }
}

Status MvccCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  CaptureScan scan;
  scan.id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = scan.id;

  // The point of consistency is just a token; no phase machinery. The
  // capture flag and watermark publish inside the log latch so that no
  // commit can order after the token yet be garbage-collected as if it
  // preceded it.
  scan.poc_lsn = engine_.log->AppendPhaseTransition(
      Phase::kResolve, scan.id, /*pc=*/nullptr, [&] {
        scan.limits = engine_.store->SlotCounts();
        capture_lsn_.store(engine_.log->SizeLocked(),
                           std::memory_order_release);
        capture_active_.store(true, std::memory_order_release);
      });
  const uint64_t poc_lsn = scan.poc_lsn;

  Stopwatch capture_sw;
  CheckpointInfo info;
  Status st = CaptureCheckpoint(
      engine_, scan,
      [this, poc_lsn](Record& rec) -> Value* {
        for (;;) {
          {
            SpinLatchGuard guard(rec.latch);
            VersionNode* head = heads_[rec.shard][rec.index];
            // An unstamped head is a writer mid-commit: its LSN relative
            // to the token is not known yet, so retry (below).
            if (head == nullptr || head->stamp != kUnstamped) {
              // The newest version visible at the point of consistency.
              VersionNode* node = head;
              while (node != nullptr && node->stamp > poc_lsn) {
                node = node->next;
              }
              Value* v = (node != nullptr && node->value != nullptr)
                             ? Value::Ref(node->value)
                             : nullptr;
              // GC: the head covers every future point of consistency;
              // free everything below it.
              if (head != nullptr) {
                FreeChain(head->next);
                head->next = nullptr;
              }
              return v;
            }
          }
          // Sleep OUTSIDE the latch, or the committing writer could
          // starve on it.
          SleepMicros(10);
        }
      },
      &info, &stats);
  capture_active_.store(false, std::memory_order_release);
  CALCDB_RETURN_NOT_OK(st);
  stats.capture_micros = capture_sw.ElapsedMicros();
  return PublishCheckpoint(info, total, &stats);
}

}  // namespace calcdb
