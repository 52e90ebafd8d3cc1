#include "checkpoint/ipp.h"

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

IppCheckpointer::IppCheckpointer(EngineContext engine, IppOptions options)
    : Checkpointer(engine),
      options_(options),
      dirty_(DirtyTrackerKind::kBitVector, *engine.store) {
  uint32_t nshards = engine_.store->num_shards();
  arrays_[0].resize(nshards);
  arrays_[1].resize(nshards);
  snapshot_.resize(nshards);
  for (uint32_t s = 0; s < nshards; ++s) {
    KVStore* shard = engine_.store->shard(s);
    size_t cap = shard->max_records();
    arrays_[0][s].assign(cap, nullptr);
    arrays_[1][s].assign(cap, nullptr);
    snapshot_[s].assign(cap, nullptr);
    // Pre-populate all copies with the loaded database, matching the
    // algorithm's pre-allocated fixed arrays (and Figure 6's constant 4x
    // memory profile).
    uint32_t slots = shard->NumSlots();
    for (uint32_t idx = 0; idx < slots; ++idx) {
      Record* rec = shard->ByIndex(idx);
      SpinLatchGuard guard(rec->latch);
      if (Record::IsRealValue(rec->live)) {
        arrays_[0][s][idx] = Value::Create(rec->live->data());
        arrays_[1][s][idx] = Value::Create(rec->live->data());
        snapshot_[s][idx] = Value::Create(rec->live->data());
      }
    }
  }
}

IppCheckpointer::~IppCheckpointer() {
  for (auto* per_shard : {&arrays_[0], &arrays_[1], &snapshot_}) {
    for (auto& vec : *per_shard) {
      for (Value*& v : vec) {
        if (v != nullptr) {
          Value::Unref(v);
          v = nullptr;
        }
      }
    }
  }
}

void IppCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  uint32_t cur = dirty_.active();
  SpinLatchGuard guard(rec.latch);
  // Write 1: the application state.
  engine_.store->ReplaceLive(rec, new_val);
  // Write 2: a physical copy into the current ping-pong array (IPP's
  // duplicated-write overhead), plus the dirty bit.
  Value*& copy = arrays_[cur][rec.shard][rec.index];
  if (copy != nullptr) Value::Unref(copy);
  copy = (new_val != nullptr) ? Value::Create(new_val->data()) : nullptr;
  dirty_.tracker(cur, rec.shard).Mark(rec.index);
}

Status IppCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  CaptureScan scan;
  scan.id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = scan.id;
  uint32_t merge_side = 0;

  // Physical point of consistency: drain, flip `current`.
  Status st;
  stats.quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        scan.poc_lsn = engine_.log->AppendPhaseTransition(
            Phase::kResolve, scan.id, /*pc=*/nullptr);
        scan.limits = engine_.store->SlotCounts();
        merge_side = dirty_.Flip();
        return Status::OK();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);

  // Asynchronous merge + write: fold the dirty values of the just-closed
  // period into the in-memory consistent snapshot, then emit the
  // checkpoint from it.
  Stopwatch capture_sw;
  for (uint32_t s = 0; s < engine_.store->num_shards(); ++s) {
    const std::vector<Value*>& merged_from = arrays_[merge_side][s];
    std::vector<Value*>& snap = snapshot_[s];
    dirty_.tracker(merge_side, s)
        .ForEach(scan.limits[s], [&](uint32_t idx) {
          // The merge side is only written by transactions of the *next*
          // period after another flip, which cannot happen while this
          // cycle is still running. The snapshot keeps its own physical
          // copy — Cao et al.'s consistent checkpoint is a separate
          // buffer, which is what makes IPP's resident footprint "up to 4
          // copies of the database" (Figure 6).
          if (snap[idx] != nullptr) Value::Unref(snap[idx]);
          snap[idx] = (merged_from[idx] != nullptr)
                          ? Value::Create(merged_from[idx]->data())
                          : nullptr;
        });
  }
  if (options_.partial) {
    scan.dirty = &dirty_;
    scan.dirty_side = merge_side;
  }
  CheckpointInfo info;
  CALCDB_RETURN_NOT_OK(CaptureCheckpoint(
      engine_, scan,
      [this](Record& rec) -> Value* {
        Value* snap = snapshot_[rec.shard][rec.index];
        return snap != nullptr ? Value::Ref(snap) : nullptr;
      },
      &info, &stats));
  dirty_.Clear(merge_side);
  stats.capture_micros = capture_sw.ElapsedMicros();
  return PublishCheckpoint(info, total, &stats);
}

}  // namespace calcdb
