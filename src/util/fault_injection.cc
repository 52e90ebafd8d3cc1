#include "util/fault_injection.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if CALCDB_FAULTS_ENABLED
#include <unistd.h>

#include <atomic>

#include "obs/obs.h"
#include "util/latch.h"
#endif

namespace calcdb {
namespace fault {

namespace {

/// Every durability-critical probe in the engine. The convention: a point
/// fires immediately *before* the named operation's effects become
/// durable, so a crash there models "we died before this write/rename/
/// fsync took effect". docs/DURABILITY.md carries one table row per
/// entry (a ctest diffs the two; see tests/fault_injection_test.cc), and
/// tests/crash_torture_test.cc kills a child at each one.
constexpr FaultPointInfo kRegistry[] = {
    {"ckpt_file.header",
     "CheckpointFileWriter::Open, before the header bytes are appended"},
    {"ckpt_file.body",
     "CheckpointFileWriter::Append/AppendTombstone, before an entry is "
     "appended"},
    {"ckpt_file.block",
     "CheckpointFileWriter::SealBlock, before a full serialization "
     "block is appended to the file"},
    {"ckpt_file.footer",
     "CheckpointFileWriter::Finish, before the footer is appended"},
    {"ckpt_file.fsync",
     "CheckpointFileWriter::Finish, after the footer, before Close's "
     "fsync"},
    {"ckpt.segment.finish",
     "CALC segmented capture, before a segment writer's Finish"},
    {"ckpt.register",
     "Checkpoint cycle, after capture and the log-durability barrier "
     "(WaitLogDurable), before Register + PersistManifest"},
    {"manifest.write",
     "CheckpointStorage::PersistManifest, before flushing the manifest "
     ".tmp"},
    {"manifest.rename",
     "CheckpointStorage::PersistManifest, before renaming .tmp over the "
     "manifest"},
    {"merge.replace",
     "CheckpointMerger::CollapseOnce, before ReplaceCollapsed swaps the "
     "chain"},
    {"merge.persist",
     "CheckpointStorage::ReplaceCollapsed, after the in-memory chain swap, "
     "before PersistManifest and the inputs' unlink"},
    {"base_ckpt.register",
     "Database::WriteBaseCheckpoint, after Finish, before Register + "
     "PersistManifest"},
    {"log.batch_append",
     "CommandLogStreamer::Flush, before a batch is appended to the "
     "log file"},
    {"log.fsync",
     "CommandLogStreamer::Flush, after the append, before Sync"},
};

constexpr size_t kRegistrySize = sizeof(kRegistry) / sizeof(kRegistry[0]);

}  // namespace

const FaultPointInfo* RegisteredPoints(size_t* count) {
  *count = kRegistrySize;
  return kRegistry;
}

bool IsRegistered(const char* name) {
  for (const FaultPointInfo& p : kRegistry) {
    if (std::strcmp(p.name, name) == 0) return true;
  }
  return false;
}

#if CALCDB_FAULTS_ENABLED

namespace {

enum class Mode { kCrash, kError };

/// The armed point. Guarded by g_latch; g_armed is the lock-free fast
/// flag. `name` points into kRegistry (static duration), so the trace
/// ring may keep it.
struct ArmedPoint {
  const char* name = nullptr;
  Mode mode = Mode::kCrash;
  uint64_t hit_n = 1;
  uint64_t hits = 0;
};

std::atomic<bool> g_armed{false};
SpinLatch g_latch;
ArmedPoint g_point;

/// Resolves `name` to its registry entry (for the static-duration name
/// pointer) or dies: a typo'd point name in a torture matrix would
/// otherwise test nothing, silently.
const char* RequireRegistered(const char* name) {
  for (const FaultPointInfo& p : kRegistry) {
    if (std::strcmp(p.name, name) == 0) return p.name;
  }
  // lint:allow(raw-stderr): fatal path — the process aborts on the next
  // line, before any event sink could flush; a plain stderr line is the
  // only message that reliably survives.
  std::fprintf(stderr,
               "calcdb fault injection: unregistered crash point \"%s\"\n",
               name);
  std::abort();
}

void ArmLocked(const char* name, Mode mode, uint64_t hit_n) {
  SpinLatchGuard guard(g_latch);
  g_point.name = RequireRegistered(name);
  g_point.mode = mode;
  g_point.hit_n = hit_n == 0 ? 1 : hit_n;
  g_point.hits = 0;
  g_armed.store(true, std::memory_order_release);
}

/// "name" or "name:hit_n".
void ArmFromSpec(const char* spec, Mode mode) {
  std::string s(spec);
  uint64_t hit_n = 1;
  size_t colon = s.rfind(':');
  if (colon != std::string::npos && colon + 1 < s.size()) {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(s.c_str() + colon + 1, &end, 10);
    if (end != nullptr && *end == '\0') {
      hit_n = static_cast<uint64_t>(parsed);
      s.resize(colon);
    }
  }
  ArmLocked(s.c_str(), mode, hit_n);
}

/// One-time environment parse; runs on the first Armed() call.
bool ParseEnvOnce() {
  const char* crash_spec = std::getenv("CALCDB_CRASH_POINT");
  const char* error_spec = std::getenv("CALCDB_FAULT_ERROR");
  if (crash_spec != nullptr && crash_spec[0] != '\0') {
    ArmFromSpec(crash_spec, Mode::kCrash);
  } else if (error_spec != nullptr && error_spec[0] != '\0') {
    ArmFromSpec(error_spec, Mode::kError);
  }
  return true;
}

}  // namespace

bool Armed() {
  static bool env_parsed = ParseEnvOnce();
  (void)env_parsed;
  return g_armed.load(std::memory_order_relaxed);
}

Status Poke(const char* name) {
  const char* armed_name = nullptr;
  Mode mode = Mode::kCrash;
  uint64_t hits = 0;
  {
    SpinLatchGuard guard(g_latch);
    if (!g_armed.load(std::memory_order_relaxed) ||
        g_point.name == nullptr ||
        std::strcmp(g_point.name, name) != 0) {
      return Status::OK();
    }
    ++g_point.hits;
    if (g_point.hits < g_point.hit_n) return Status::OK();
    armed_name = g_point.name;
    mode = g_point.mode;
    hits = g_point.hits;
    // Single-shot either way: crash mode never returns, and error mode
    // must not turn every subsequent retry/cleanup IO into a failure.
    g_point.name = nullptr;
    g_armed.store(false, std::memory_order_release);
  }
  CALCDB_COUNTER_ADD("calcdb.faults.injected", 1);
  CALCDB_TRACE_INSTANT(armed_name, "fault", hits);
  // Emitted before the crash-mode _exit on purpose: the JSONL sink append
  // happens inside Emit, so a postmortem of a torture run can see which
  // injection fired last even though the ring itself dies with us.
  CALCDB_WARN("fault.injected", "fault", armed_name,
              {"hits", static_cast<int64_t>(hits)},
              {"crash", mode == Mode::kCrash ? 1 : 0});
  if (mode == Mode::kCrash) {
    // _exit, not exit: no atexit handlers, no stdio flush, no
    // destructors — exactly the state a SIGKILL would leave behind.
    _exit(kCrashExitCode);
  }
  return Status::IOError(std::string("injected fault: ") + armed_name);
}

void ArmCrash(const char* name, uint64_t hit_n) {
  ArmLocked(name, Mode::kCrash, hit_n);
}

void ArmError(const char* name, uint64_t hit_n) {
  ArmLocked(name, Mode::kError, hit_n);
}

void Disarm() {
  SpinLatchGuard guard(g_latch);
  g_point.name = nullptr;
  g_armed.store(false, std::memory_order_release);
}

void MaybeChildForcedExit() {
  // Deliberately minimal: getenv + strtol + _exit only. This runs in the
  // forked snapshot child, where the usual arming machinery (latch,
  // registry resolution) is off-limits — the child must not touch locks
  // another thread may have held across fork.
  const char* spec = std::getenv("CALCDB_CHILD_EXIT_CODE");
  if (spec == nullptr || spec[0] == '\0') return;
  char* end = nullptr;
  long code = std::strtol(spec, &end, 10);
  if (end == spec || *end != '\0' || code < 0 || code > 255) return;
  _exit(static_cast<int>(code));
}

#endif  // CALCDB_FAULTS_ENABLED

}  // namespace fault
}  // namespace calcdb
