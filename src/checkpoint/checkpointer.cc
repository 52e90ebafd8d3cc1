#include "checkpoint/checkpointer.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "log/command_log_streamer.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/fault_injection.h"

namespace calcdb {

#if CALCDB_OBS_ENABLED
namespace {

// Per-segment capture span names must be string literals (the trace ring
// stores the pointer, not a copy); segments beyond the table share one
// overflow name.
const char* SegmentSpanName(size_t seg) {
  static constexpr const char* kNames[] = {
      "capture.seg0",  "capture.seg1",  "capture.seg2",  "capture.seg3",
      "capture.seg4",  "capture.seg5",  "capture.seg6",  "capture.seg7",
      "capture.seg8",  "capture.seg9",  "capture.seg10", "capture.seg11",
      "capture.seg12", "capture.seg13", "capture.seg14", "capture.seg15",
  };
  constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
  return seg < kCount ? kNames[seg] : "capture.seg+";
}

}  // namespace
#endif  // CALCDB_OBS_ENABLED

Status Checkpointer::CaptureCheckpoint(const EngineContext& engine,
                                       const CaptureScan& scan,
                                       const CaptureFn& version,
                                       CheckpointInfo* info,
                                       CheckpointCycleStats* stats) {
  CheckpointStorage* storage = engine.ckpt_storage;
  const uint32_t nshards = engine.store->num_shards();
  const bool segmented = nshards > 1;
  const CheckpointType type = scan.dirty != nullptr
                                  ? CheckpointType::kPartial
                                  : CheckpointType::kFull;
  info->id = scan.id;
  info->type = type;
  info->vpoc_lsn = scan.poc_lsn;
  // A segmented checkpoint keeps the base name the segments derive from
  // in `path`; no file exists at it.
  info->path = storage->PathFor(scan.id, type);
  info->segments.clear();
  for (uint32_t s = 0; segmented && s < nshards; ++s) {
    info->segments.push_back(storage->SegmentPathFor(scan.id, type, s));
  }

  struct Segment {
    Status status;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };
  std::vector<Segment> segs(nshards);
  auto capture_shard = [&](uint32_t s) {
    Segment& seg = segs[s];
    KVStore* shard = engine.store->shard(s);
    CALCDB_OBS_ONLY(int64_t seg_start_us = NowMicros();)
    // Every writer draws from the storage-wide budget (carried in
    // writer_options), so the configured rate caps all of them together.
    CheckpointFileWriter writer;
    seg.status = writer.Open(segmented ? info->segments[s] : info->path,
                             type, scan.id, scan.poc_lsn,
                             storage->writer_options());
    auto emit = [&](uint32_t idx) {
      Record& rec = *shard->ByIndex(idx);
      Value* v = version ? version(rec)
                         : Record::IsRealValue(rec.live) ? rec.live : nullptr;
      if (v != nullptr) {
        seg.status = writer.Append(rec.key, v->data());
        if (version) Value::Unref(v);
      } else if (scan.dirty != nullptr && rec.key != ~uint64_t{0}) {
        // Partial checkpoints must record deletions; a merge would
        // otherwise resurrect the previous checkpoint's value.
        seg.status = writer.AppendTombstone(rec.key);
      }
    };
    if (scan.dirty != nullptr) {
      scan.dirty->tracker(scan.dirty_side, s)
          .ForEach(scan.limits[s], [&](uint32_t idx) {
            if (seg.status.ok()) emit(idx);
          });
    } else {
      for (uint32_t idx = 0; seg.status.ok() && idx < scan.limits[s];
           ++idx) {
        emit(idx);
      }
    }
    // Worker-thread context: route the injected Status into the segment's
    // status slot by hand (CALCDB_RETURN_NOT_OK can't return from here).
    if (segmented && seg.status.ok()) {
      seg.status = CALCDB_FAULT_STATUS("ckpt.segment.finish");
    }
    if (seg.status.ok()) seg.status = writer.Finish();
    seg.entries = writer.entries_written();
    seg.bytes = writer.bytes_written();
#if CALCDB_OBS_ENABLED
    int64_t now = NowMicros();
    obs::Tracer::Global().EmitComplete(SegmentSpanName(s), "ckpt",
                                       seg_start_us, now - seg_start_us,
                                       scan.id);
    CALCDB_COUNTER_ADD("calcdb.ckpt.segments_written", 1);
    CALCDB_COUNTER_ADD("calcdb.ckpt.segment_bytes", seg.bytes);
#endif
  };
  const uint32_t pool =
      std::min<uint32_t>(std::max(engine.capture_threads, 1), nshards);
  std::atomic<uint32_t> next_shard{0};
  auto worker = [&] {
    for (;;) {
      uint32_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
      if (s >= nshards) return;
      capture_shard(s);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(pool - 1);
  for (uint32_t w = 1; w < pool; ++w) workers.emplace_back(worker);
  worker();
  for (std::thread& t : workers) t.join();

  // The checkpoint is valid only once every segment footer is durable.
  info->num_entries = 0;
  stats->bytes_written = 0;
  for (const Segment& seg : segs) {
    CALCDB_RETURN_NOT_OK(seg.status);
    info->num_entries += seg.entries;
    stats->bytes_written += seg.bytes;
  }
  stats->records_written = info->num_entries;
  stats->segments = nshards;
  return Status::OK();
}

Status Checkpointer::PublishCheckpoint(const CheckpointInfo& info,
                                       const Stopwatch& cycle,
                                       CheckpointCycleStats* stats) {
  // The manifest may name a checkpoint only after its point-of-consistency
  // token is fsynced: registering earlier would let a crash leave a
  // checkpoint whose token exists in no log generation, and recovery's
  // anchor rule would then skip later lifetimes' durable commits
  // (docs/DURABILITY.md).
  CALCDB_RETURN_NOT_OK(WaitLogDurable(info.vpoc_lsn));
  // A crash here leaves fully-written checkpoint files that the manifest
  // never lists: recovery ignores them and replays the tail from the log.
  CALCDB_FAULT_POINT("ckpt.register");
  engine_.ckpt_storage->Register(info);
  CALCDB_RETURN_NOT_OK(engine_.ckpt_storage->PersistManifest());
  stats->total_micros = cycle.ElapsedMicros();
  SetLastCycle(*stats);
  return Status::OK();
}

Status Checkpointer::WaitLogDurable(uint64_t vpoc_lsn) {
  const CommandLogStreamer* streamer = engine_.streamer;
  if (streamer == nullptr) return Status::OK();
  // The RESOLVE token occupies LSN `vpoc_lsn` and LSNs [0, persisted_lsn)
  // are durable, so the token is on stable storage once persisted_lsn
  // passes it. The wait is bounded by one flush interval; it runs with
  // the engine at REST, so transactions proceed underneath it.
  CALCDB_OBS_ONLY(Stopwatch sw;)
  while (streamer->persisted_lsn() <= vpoc_lsn) {
    CALCDB_RETURN_NOT_OK(streamer->background_status());
    if (!streamer->running()) {
      // Stop() clears `running` before its final drain; give that drain a
      // moment to land the token before declaring it unreachable.
      for (int i = 0; i < 200 && streamer->persisted_lsn() <= vpoc_lsn;
           ++i) {
        SleepMicros(1000);
      }
      if (streamer->persisted_lsn() > vpoc_lsn) break;
      CALCDB_RETURN_NOT_OK(streamer->background_status());
      return Status::IOError(
          "command-log streamer stopped before the checkpoint's RESOLVE "
          "token became durable");
    }
    SleepMicros(200);
  }
  CALCDB_HISTOGRAM_RECORD("calcdb.ckpt.log_barrier_us",
                          sw.ElapsedMicros());
  return Status::OK();
}

void Checkpointer::SetLastCycle(const CheckpointCycleStats& stats) {
  {
    SpinLatchGuard guard(stats_latch_);
    last_cycle_ = stats;
  }
#if CALCDB_OBS_ENABLED
  // Cold path (once per cycle): direct registry lookups with the
  // algorithm name baked into the metric are fine here.
  auto& registry = obs::MetricsRegistry::Global();
  std::string prefix = "calcdb.ckpt.";
  prefix += name();
  registry.GetCounter(prefix + ".cycles")->Add(1);
  registry.GetCounter(prefix + ".records_written")
      ->Add(stats.records_written);
  registry.GetCounter(prefix + ".bytes_written")->Add(stats.bytes_written);
  registry.GetHistogram(prefix + ".total_us")->Record(stats.total_micros);
  registry.GetHistogram(prefix + ".capture_us")
      ->Record(stats.capture_micros);
  if (stats.quiesce_micros > 0) {
    registry.GetHistogram(prefix + ".quiesce_us")
        ->Record(stats.quiesce_micros);
  }
  CALCDB_COUNTER_ADD("calcdb.ckpt.cycles", 1);
  CALCDB_COUNTER_ADD("calcdb.ckpt.records_written", stats.records_written);
  CALCDB_COUNTER_ADD("calcdb.ckpt.bytes_written", stats.bytes_written);
#endif  // CALCDB_OBS_ENABLED
}

Value* Checkpointer::ReadRecord(Txn& txn, Record& rec) {
  (void)txn;
  // Safe without the record latch: `live` is only modified by transactions
  // holding this record's stripe lock (which excludes the caller) — never
  // by checkpoint threads.
  return Record::IsRealValue(rec.live) ? rec.live : nullptr;
}

void NoCheckpointer::ApplyWrite(Txn& txn, Record& rec, Value* new_val) {
  (void)txn;
  SpinLatchGuard guard(rec.latch);
  engine_.store->ReplaceLive(rec, new_val);
}

}  // namespace calcdb
