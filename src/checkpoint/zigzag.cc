#include "checkpoint/zigzag.h"

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

ZigzagCheckpointer::ZigzagCheckpointer(EngineContext engine,
                                       ZigzagOptions options)
    : Checkpointer(engine), options_(options) {
  // "Zig-Zag starts with two identical versions of each record": duplicate
  // the loaded database into the second version slot. MR starts all zeros
  // (read version 0), MW all ones (write version 1). All structures are
  // per shard, sized to each shard's own index space.
  uint32_t nshards = engine_.store->num_shards();
  mr_.reserve(nshards);
  mw_.reserve(nshards);
  for (uint32_t s = 0; s < nshards; ++s) {
    KVStore* shard = engine_.store->shard(s);
    mr_.emplace_back(std::make_unique<AtomicBitVector>(shard->max_records()));
    mw_.emplace_back(std::make_unique<AtomicBitVector>(shard->max_records()));
    uint32_t slots = shard->NumSlots();
    for (uint32_t idx = 0; idx < slots; ++idx) {
      Record* rec = shard->ByIndex(idx);
      SpinLatchGuard guard(rec->latch);
      if (Record::IsRealValue(rec->live)) {
        rec->stable = Value::Create(rec->live->data());
      }
    }
    for (size_t w = 0; w < mw_[s]->num_words(); ++w) {
      mw_[s]->SetWord(w, ~uint64_t{0});
    }
  }
  if (options_.partial) {
    dirty_ = std::make_unique<DirtySets>(options_.tracker, *engine_.store);
  }
}

Value* ZigzagCheckpointer::ReadRecord(Txn& txn, Record& rec) {
  (void)txn;
  Value* v = *Slot(rec, mr_[rec.shard]->Get(rec.index));
  return Record::IsRealValue(v) ? v : nullptr;
}

void ZigzagCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  // "New updates of Key are always written to AS[Key]_MW[Key], and
  // MR[Key] is set equal to MW[Key] each time Key is updated."
  bool w = mw_[rec.shard]->Get(rec.index);
  SpinLatchGuard guard(rec.latch);
  if (w) {
    // Writing the stable slot: the live pointer (and with it the present
    // counter) is untouched.
    Value** slot = Slot(rec, true);
    if (Record::IsRealValue(*slot)) Value::Unref(*slot);
    *slot = new_val;
    mr_[rec.shard]->Set(rec.index);
  } else {
    engine_.store->ReplaceLive(rec, new_val);
    mr_[rec.shard]->Clear(rec.index);
  }
}

void ZigzagCheckpointer::OnCommit(Txn& txn) {
  if (dirty_ != nullptr) dirty_->Mark(dirty_->active(), txn.written_records);
}

Status ZigzagCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  CaptureScan scan;
  scan.id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = scan.id;

  // Physical point of consistency: drain, then flip MW := ¬MR word-wise.
  Status st;
  stats.quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        scan.poc_lsn = engine_.log->AppendPhaseTransition(
            Phase::kResolve, scan.id, /*pc=*/nullptr);
        scan.limits = engine_.store->SlotCounts();
        for (uint32_t s = 0; s < engine_.store->num_shards(); ++s) {
          for (size_t w = 0; w < mw_[s]->num_words(); ++w) {
            mw_[s]->SetWord(w, ~mr_[s]->Word(w));
          }
        }
        if (dirty_ != nullptr) {
          scan.dirty = dirty_.get();
          scan.dirty_side = dirty_->Flip();
        }
        return Status::OK();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);

  // Asynchronous capture: AS[key]_¬MW[key] is immutable until the next
  // flip, so the scan needs only the per-record latch for safe refcounts.
  Stopwatch capture_sw;
  CheckpointInfo info;
  CALCDB_RETURN_NOT_OK(CaptureCheckpoint(
      engine_, scan,
      [this](Record& rec) -> Value* {
        SpinLatchGuard guard(rec.latch);
        Value* v = *Slot(rec, !mw_[rec.shard]->Get(rec.index));
        return Record::IsRealValue(v) ? Value::Ref(v) : nullptr;
      },
      &info, &stats));
  if (dirty_ != nullptr) dirty_->Clear(scan.dirty_side);
  stats.capture_micros = capture_sw.ElapsedMicros();
  return PublishCheckpoint(info, total, &stats);
}

}  // namespace calcdb
