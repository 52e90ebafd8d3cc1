#include "checkpoint/calc.h"

#include <atomic>
#include <cassert>
#include <string>

#include "obs/obs.h"
#include "util/clock.h"

namespace calcdb {

#if CALCDB_OBS_ENABLED
namespace {

// Emits one completed checkpoint-phase span (trace + per-algorithm
// phase-duration histogram) and returns the new phase start time.
// `phase` must be a string literal (the trace ring stores the pointer).
int64_t EmitPhaseSpan(const char* algo, const char* phase,
                      int64_t start_us, uint64_t checkpoint_id) {
  int64_t now = NowMicros();
  obs::Tracer::Global().EmitComplete(phase, "ckpt", start_us,
                                     now - start_us, checkpoint_id);
  std::string hist = "calcdb.ckpt.";
  hist += algo;
  hist += ".phase.";
  hist += phase;
  hist += "_us";
  obs::MetricsRegistry::Global().GetHistogram(hist)->Record(now - start_us);
  return now;
}

}  // namespace
#endif  // CALCDB_OBS_ENABLED

CalcCheckpointer::CalcCheckpointer(EngineContext engine, CalcOptions options)
    : Checkpointer(engine), options_(options) {
  // The engine is in REST from the moment the checkpointer exists, so
  // even a run with a single cycle traces the full rest -> prepare ->
  // resolve -> capture -> complete cadence.
  CALCDB_OBS_ONLY(rest_start_us_ = NowMicros();)
  slots_at_vpoc_ =
      std::vector<std::atomic<uint32_t>>(engine_.store->num_shards());
  if (options_.partial) {
    dirty_ = std::make_unique<DirtySets>(options_.tracker, *engine_.store);
  }
}

bool CalcCheckpointer::InCaptureScan(const Record& rec) const {
  uint32_t limit = slots_at_vpoc_[rec.shard].load(std::memory_order_acquire);
  if (rec.index >= limit) return false;
  return !options_.partial ||
         dirty_->tracker(capture_parity_.load(std::memory_order_acquire),
                         rec.shard)
             .Test(rec.index);
}

void CalcCheckpointer::InstallStable(Record& rec) {
  if (Record::IsRealValue(rec.live)) {
    // Physical copy, as in the paper ("it has to copy the live version to
    // the stable version"); drawn from the stable-record pool when one is
    // configured (§5.1.6).
    rec.stable = Value::Create(rec.live->data(), engine_.store->pool());
  } else {
    rec.stable = Record::AbsentMarker();
  }
  int64_t n = stable_versions_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = peak_stable_versions_.load(std::memory_order_relaxed);
  while (static_cast<uint64_t>(n) > peak &&
         !peak_stable_versions_.compare_exchange_weak(
             peak, static_cast<uint64_t>(n), std::memory_order_relaxed)) {
  }
}

void CalcCheckpointer::EraseStable(Record& rec) {
  if (rec.stable == nullptr) return;
  if (Record::IsRealValue(rec.stable)) Value::Unref(rec.stable);
  rec.stable = nullptr;
  stable_versions_.fetch_sub(1, std::memory_order_relaxed);
}

void CalcCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  SpinLatchGuard guard(rec.latch);
  switch (txn.start_phase) {
    case Phase::kPrepare:
      // "The system is not sure in which phase the transaction will be
      // committed": preserve the pre-write value, but do not publish it
      // (no status update) until the commit phase is known.
      if (!StableAvailable(rec)) {
        // A stable version without the current stamp is garbage from an
        // earlier cycle; replace it with the current pre-write value.
        EraseStable(rec);
        InstallStable(rec);
      }
      break;

    case Phase::kResolve:
    case Phase::kCapture: {
      // Post-point-of-consistency writer: preserve the value the capture
      // scan must see — unless the scan will never visit this record
      // (slot created after the VPoC, or not in pCALC's dirty set). Both
      // the watermark and the dirty set are the record's own shard's.
      if (InCaptureScan(rec) && !StableAvailable(rec)) {
        EraseStable(rec);  // drop any stale leftover from an old cycle
        InstallStable(rec);
        SetStableAvailable(rec);
      }
      break;
    }

    case Phase::kComplete:
    case Phase::kRest:
      // No checkpoint in progress for this transaction's writes.
      EraseStable(rec);
      break;
  }
  engine_.store->ReplaceLive(rec, new_val);
}

void CalcCheckpointer::OnCommit(Txn& txn) {
  if (txn.start_phase == Phase::kPrepare) {
    if (txn.commit_phase == Phase::kPrepare) {
      // Committed before the point of consistency: the writes belong in
      // the checkpoint, so the preserved pre-write values are dropped.
      for (Record* rec : txn.written_records) {
        SpinLatchGuard guard(rec->latch);
        EraseStable(*rec);
      }
    } else {
      // Committed after the point of consistency (resolve phase): publish
      // the preserved pre-write values to the capture scan.
      assert(txn.commit_phase == Phase::kResolve);
      for (Record* rec : txn.written_records) {
        SpinLatchGuard guard(rec->latch);
        // Publish only what the capture scan will actually consume: the
        // record must be inside the scan range (slots above the VPoC
        // watermark are never visited — e.g. rows this transaction itself
        // inserted during the prepare phase) and, for pCALC, in the
        // consumed dirty set. A kept-but-never-consumed stable version
        // (often an AbsentMarker from a fresh insert) would leak into the
        // next cycle and mask the record from the *next* checkpoint.
        if (InCaptureScan(*rec) && rec->stable != nullptr) {
          SetStableAvailable(*rec);
        } else {
          // The capture scan will not visit this record; a kept stable
          // version would leak a stale value into the next checkpoint.
          EraseStable(*rec);
        }
      }
    }
  }

  if (options_.partial && !txn.written_records.empty()) {
    // Route dirty keys by the parity of the VPoC count at commit: commits
    // before the n-th virtual point of consistency land in the set the
    // n-th capture consumes; later commits land in the other set.
    dirty_->Mark(static_cast<uint32_t>(txn.vpoc_count & 1),
                 txn.written_records);
  }
}

Value* CalcCheckpointer::CaptureVersion(Record& rec) {
  SpinLatchGuard guard(rec.latch);
  // With no stable version published yet, mark the record available first
  // so concurrent post-VPoC writers stop trying to create one, then take a
  // stable version that raced in, else the live one (Figure 1's
  // capture-phase ordering). The record latch makes this always see a
  // consistent pair.
  if (!StableAvailable(rec)) SetStableAvailable(rec);
  Value* stable = rec.stable;
  rec.stable = nullptr;
  if (stable != nullptr) {
    stable_versions_.fetch_sub(1, std::memory_order_relaxed);
    // A preserved version moves to the caller; the marker means "absent at
    // the point of consistency".
    return stable == Record::AbsentMarker() ? nullptr : stable;
  }
  // The paper's "stable empty => live is the stable value"; absent when
  // deleted (or a dead slot).
  return Record::IsRealValue(rec.live) ? Value::Ref(rec.live) : nullptr;
}

void CalcCheckpointer::WaitForDrain(std::initializer_list<Phase> phases) {
  for (;;) {
    bool drained = true;
    for (Phase p : phases) {
      if (engine_.phases->ActiveIn(p) > 0) {
        drained = false;
        break;
      }
    }
    if (drained) return;
    SleepMicros(100);
  }
}

Status CalcCheckpointer::RunCheckpointCycle() {
  Stopwatch total;
  CheckpointCycleStats stats;
  uint64_t id = engine_.ckpt_storage->NextId();
  stats.checkpoint_id = id;

  // The rest span covers the gap since the previous cycle completed, so
  // a Perfetto timeline shows the full rest/prepare/resolve/capture/
  // complete cadence (acceptance criterion for fig5 traces).
  CALCDB_OBS_ONLY(int64_t phase_start_us = NowMicros();)
#if CALCDB_OBS_ENABLED
  if (rest_start_us_ != 0) {
    CALCDB_TRACE_COMPLETE("rest", "ckpt", rest_start_us_,
                          phase_start_us - rest_start_us_, id);
  }
#endif

  // --- Prepare phase -------------------------------------------------
  // Stamp sense: from here on, stable_cycle == cycle means "available";
  // everything stamped in earlier cycles reads "not available" — the O(1)
  // global reset.
  uint32_t cycle = next_cycle_++;
  active_cycle_.store(cycle, std::memory_order_release);
  engine_.log->AppendPhaseTransition(Phase::kPrepare, id, engine_.phases);
  WaitForDrain({Phase::kRest, Phase::kComplete, Phase::kResolve,
                Phase::kCapture});
  CALCDB_OBS_ONLY(
      phase_start_us = EmitPhaseSpan(name(), "prepare", phase_start_us, id);)

  // --- Resolve phase: the virtual point of consistency ----------------
  // Watermark and parity are published inside the log latch, before the
  // phase switch becomes visible: every commit token that precedes the
  // RESOLVE token created its slots before this point (creation precedes
  // the creator's commit append), so the watermark covers exactly the
  // pre-VPoC records; and no transaction can observe phase == RESOLVE
  // while still reading last cycle's watermark or parity.
  uint64_t vpoc_lsn = engine_.log->AppendPhaseTransition(
      Phase::kResolve, id, engine_.phases, [this] {
        uint32_t nshards = engine_.store->num_shards();
        for (uint32_t s = 0; s < nshards; ++s) {
          slots_at_vpoc_[s].store(engine_.store->shard(s)->NumSlots(),
                                  std::memory_order_release);
        }
        if (options_.partial) {
          // VpocCount was just incremented to n; the n-th capture consumes
          // the set with parity (n-1) & 1.
          capture_parity_.store(
              static_cast<uint32_t>((engine_.log->VpocCountLocked() - 1) &
                                    1),
              std::memory_order_release);
        }
      });
  WaitForDrain({Phase::kPrepare, Phase::kRest, Phase::kComplete});
  CALCDB_OBS_ONLY(
      phase_start_us = EmitPhaseSpan(name(), "resolve", phase_start_us, id);)

  // --- Capture phase ---------------------------------------------------
  engine_.log->AppendPhaseTransition(Phase::kCapture, id, engine_.phases);
  Stopwatch capture_sw;
  CaptureScan scan;
  scan.id = id;
  scan.poc_lsn = vpoc_lsn;
  for (const auto& limit : slots_at_vpoc_) {
    scan.limits.push_back(limit.load(std::memory_order_acquire));
  }
  if (options_.partial) {
    scan.dirty = dirty_.get();
    scan.dirty_side = capture_parity_.load(std::memory_order_acquire);
  }
  CheckpointInfo info;
  CALCDB_RETURN_NOT_OK(CaptureCheckpoint(
      engine_, scan, [this](Record& rec) { return CaptureVersion(rec); },
      &info, &stats));
  stats.capture_micros = capture_sw.ElapsedMicros();
  CALCDB_OBS_ONLY(
      phase_start_us = EmitPhaseSpan(name(), "capture", phase_start_us, id);)
  if (options_.partial) {
    CALCDB_COUNTER_ADD("calcdb.ckpt.dirty_records_captured",
                       stats.records_written);
  }

  // --- Complete phase --------------------------------------------------
  engine_.log->AppendPhaseTransition(Phase::kComplete, id, engine_.phases);
  // The paper's barrier gates on capture-started transactions; we also
  // wait out any straggling resolve-started ones (e.g. a long-running
  // transaction), which could otherwise install stable versions into the
  // next cycle.
  WaitForDrain({Phase::kPrepare, Phase::kResolve, Phase::kCapture});

  if (options_.partial) dirty_->Clear(scan.dirty_side);
  active_cycle_.store(0, std::memory_order_release);

  // --- Back to rest ------------------------------------------------------
  engine_.log->AppendPhaseTransition(Phase::kRest, id, engine_.phases);

  // quiesce_micros stays 0: CALC never closes the admission gate.
  CALCDB_RETURN_NOT_OK(PublishCheckpoint(info, total, &stats));
#if CALCDB_OBS_ENABLED
  rest_start_us_ = EmitPhaseSpan(name(), "complete", phase_start_us, id);
#endif
  return Status::OK();
}

}  // namespace calcdb
