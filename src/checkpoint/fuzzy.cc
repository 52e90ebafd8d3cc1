#include "checkpoint/fuzzy.h"

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/throttled_file.h"

namespace calcdb {

FuzzyCheckpointer::FuzzyCheckpointer(EngineContext engine,
                                     FuzzyOptions options)
    : Checkpointer(engine),
      options_(options),
      dirty_(options.tracker, *engine.store) {
  uint32_t nshards = engine_.store->num_shards();
  if (!options_.partial) {
    // Full fuzzy keeps the latest snapshot resident. Seed it with a
    // physical copy of the current database contents.
    snapshot_.resize(nshards);
    for (uint32_t s = 0; s < nshards; ++s) {
      KVStore* shard = engine_.store->shard(s);
      snapshot_[s].assign(shard->max_records(), nullptr);
      uint32_t slots = shard->NumSlots();
      for (uint32_t idx = 0; idx < slots; ++idx) {
        Record* rec = shard->ByIndex(idx);
        SpinLatchGuard guard(rec->latch);
        if (Record::IsRealValue(rec->live)) {
          snapshot_[s][idx] = Value::Create(rec->live->data());
        }
      }
    }
  }
}

FuzzyCheckpointer::~FuzzyCheckpointer() {
  for (auto& shard_snap : snapshot_) {
    for (Value* v : shard_snap) {
      if (v != nullptr) Value::Unref(v);
    }
  }
}

void FuzzyCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  engine_.store->ReplaceLive(rec, new_val);
}

void FuzzyCheckpointer::OnCommit(Txn& txn) {
  dirty_.Mark(dirty_.active(), txn.written_records);
}

Status FuzzyCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  CaptureScan scan;
  scan.id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = scan.id;
  uint32_t nshards = engine_.store->num_shards();
  uint32_t capture_side = 0;

  // Quiesce: write the checkpoint record (the dirty-record table; the
  // active-transaction list is empty because the drain completed) to the
  // log, then resume. Only this table write blocks the system.
  Status st;
  stats.quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        scan.poc_lsn = engine_.log->AppendPhaseTransition(
            Phase::kResolve, scan.id, /*pc=*/nullptr);
        scan.limits = engine_.store->SlotCounts();
        capture_side = dirty_.Flip();

        // Serialize the dirty-record table: one 8-byte key per dirty
        // record, through the same throttled device as checkpoints.
        ThrottledFileWriter record_writer;
        std::string record_path =
            engine_.ckpt_storage->dir() + "/fuzzy_record_" +
            std::to_string(scan.id) + ".meta";
        CALCDB_RETURN_NOT_OK(record_writer.Open(
            record_path, engine_.ckpt_storage->write_budget()));
        Status write_st;
        for (uint32_t s = 0; s < nshards; ++s) {
          KVStore* shard = engine_.store->shard(s);
          dirty_.tracker(capture_side, s)
              .ForEach(scan.limits[s], [&](uint32_t idx) {
                if (!write_st.ok()) return;
                uint64_t key = shard->ByIndex(idx)->key;
                write_st = record_writer.Append(&key, sizeof(key));
              });
          CALCDB_RETURN_NOT_OK(write_st);
        }
        return record_writer.Close();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);

  // Asynchronous flush of dirty records, concurrent with new mutators:
  // values read here may already postdate the checkpoint record — fuzzy
  // checkpoints are not transaction-consistent.
  Stopwatch capture_sw;
  auto current = [](Record& rec) -> Value* {
    SpinLatchGuard guard(rec.latch);
    return Record::IsRealValue(rec.live) ? Value::Ref(rec.live) : nullptr;
  };
  CaptureFn version;
  if (options_.partial) {
    scan.dirty = &dirty_;
    scan.dirty_side = capture_side;
    version = current;
  } else {
    // Full: merge the dirty records into the resident snapshot, then
    // write the complete snapshot.
    for (uint32_t s = 0; s < nshards; ++s) {
      KVStore* shard = engine_.store->shard(s);
      dirty_.tracker(capture_side, s)
          .ForEach(scan.limits[s], [&](uint32_t idx) {
            Value*& snap = snapshot_[s][idx];
            if (snap != nullptr) Value::Unref(snap);
            snap = current(*shard->ByIndex(idx));  // null if deleted
          });
    }
    version = [this](Record& rec) -> Value* {
      Value* snap = snapshot_[rec.shard][rec.index];
      return snap != nullptr ? Value::Ref(snap) : nullptr;
    };
  }
  CheckpointInfo info;
  CALCDB_RETURN_NOT_OK(
      CaptureCheckpoint(engine_, scan, version, &info, &stats));
  dirty_.Clear(capture_side);
  stats.capture_micros = capture_sw.ElapsedMicros();
  return PublishCheckpoint(info, total, &stats);
}

}  // namespace calcdb
