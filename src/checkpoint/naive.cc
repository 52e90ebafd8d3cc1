#include "checkpoint/naive.h"

#include "checkpoint/quiesce.h"
#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

NaiveSnapshotCheckpointer::NaiveSnapshotCheckpointer(EngineContext engine,
                                                     NaiveOptions options)
    : Checkpointer(engine), options_(options) {
  if (options_.partial) {
    dirty_ = std::make_unique<DirtySets>(options_.tracker, *engine_.store);
  }
}

void NaiveSnapshotCheckpointer::ApplyWrite(Txn& txn, Record& rec,
                                           Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  engine_.store->ReplaceLive(rec, new_val);
}

void NaiveSnapshotCheckpointer::OnCommit(Txn& txn) {
  if (dirty_ != nullptr) dirty_->Mark(dirty_->active(), txn.written_records);
}

Status NaiveSnapshotCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CALCDB_TRACE_SPAN(cycle_span, name(), "ckpt", 0);
  CheckpointCycleStats stats;
  CaptureScan scan;
  scan.id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = scan.id;

  // The entire snapshot is written inside the quiesce window: exclusive
  // access to the whole database for the duration of the checkpoint. No
  // transaction is in flight, so the live versions are the snapshot.
  CheckpointInfo info;
  Status st;
  stats.quiesce_micros = QuiesceAndRun(
      engine_,
      [&]() -> Status {
        scan.poc_lsn = engine_.log->AppendPhaseTransition(
            Phase::kResolve, scan.id, /*pc=*/nullptr);
        scan.limits = engine_.store->SlotCounts();
        if (dirty_ != nullptr) {
          scan.dirty = dirty_.get();
          scan.dirty_side = dirty_->Flip();
        }
        CALCDB_RETURN_NOT_OK(CaptureCheckpoint(
            engine_, scan, /*version=*/nullptr, &info, &stats));
        if (dirty_ != nullptr) dirty_->Clear(scan.dirty_side);
        return Status::OK();
      },
      &st);
  CALCDB_RETURN_NOT_OK(st);
  stats.capture_micros = stats.quiesce_micros;
  return PublishCheckpoint(info, total, &stats);
}

}  // namespace calcdb
