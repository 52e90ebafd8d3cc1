#include "obs/event_log.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/clock.h"

namespace calcdb {
namespace obs {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "INFO";
    case Severity::kWarn:
      return "WARN";
    case Severity::kError:
      return "ERROR";
  }
  return "INFO";
}

bool EventSite::Admit(int64_t now_us, uint64_t* folded) {
  SpinLatchGuard guard(latch_);
  if (last_refill_us_ < 0) {
    // First touch: a full burst of tokens.
    tokens_milli_ = static_cast<int64_t>(burst_) * 1000;
    last_refill_us_ = now_us;
  } else if (now_us > last_refill_us_ && per_sec_ > 0) {
    // refill = elapsed_us * per_sec tokens/s = elapsed_us*per_sec/1000
    // milli-tokens (1s * 1/s = 1000 milli-tokens).
    int64_t elapsed_us = now_us - last_refill_us_;
    tokens_milli_ += elapsed_us * static_cast<int64_t>(per_sec_) / 1000;
    int64_t cap = static_cast<int64_t>(burst_) * 1000;
    if (tokens_milli_ > cap) tokens_milli_ = cap;
    last_refill_us_ = now_us;
  }
  if (tokens_milli_ >= 1000) {
    tokens_milli_ -= 1000;
    *folded = folded_;
    folded_ = 0;
    return true;
  }
  ++folded_;
  suppressed_total_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

EventLog::EventLog()
    : ring_(kRingCapacity),
      stderr_site_(/*burst=*/20, /*refill_per_sec=*/5) {}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::SetSinkPath(const std::string& path) {
  SpinLatchGuard guard(sink_latch_);
  sink_path_ = path;
}

std::string EventLog::sink_path() const {
  SpinLatchGuard guard(sink_latch_);
  return sink_path_;
}

void EventLog::Emit(Severity severity, const char* name, const char* cat,
                    EventSite* site, std::string_view detail,
                    std::initializer_list<EventKv> fields) {
  if (!enabled()) return;
  int64_t now_us = NowMicros();
  uint64_t folded = 0;
  if (site != nullptr && !site->Admit(now_us, &folded)) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event ev;
  ev.severity = severity;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = now_us;
  ev.tid = CurrentTid();
  ev.suppressed = folded;
  for (const EventKv& kv : fields) {
    if (ev.n_fields >= Event::kMaxFields) break;
    ev.fields[ev.n_fields++] = kv;
  }
  size_t len = std::min(detail.size(), Event::kDetailBytes - 1);
  std::memcpy(ev.detail, detail.data(), len);
  ev.detail[len] = '\0';
  ring_.Emit(ev);
  AppendToSink(ev);
  if (severity >= Severity::kWarn &&
      mirror_.load(std::memory_order_relaxed)) {
    MirrorToStderr(ev);
  }
}

std::string EventLog::EventToJson(const Event& ev) {
  std::string out = "{\"ts_us\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRId64, ev.ts_us);
  out += buf;
  out += ",\"severity\":\"";
  out += SeverityName(ev.severity);
  out += "\",\"name\":\"";
  out += JsonEscape(ev.name != nullptr ? ev.name : "");
  out += "\",\"cat\":\"";
  out += JsonEscape(ev.cat != nullptr ? ev.cat : "");
  out += "\",\"tid\":";
  std::snprintf(buf, sizeof(buf), "%u", ev.tid);
  out += buf;
  out += ",\"suppressed\":";
  std::snprintf(buf, sizeof(buf), "%" PRIu64, ev.suppressed);
  out += buf;
  out += ",\"fields\":{";
  for (int i = 0; i < ev.n_fields; ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(ev.fields[i].key != nullptr ? ev.fields[i].key : "");
    out += "\":";
    std::snprintf(buf, sizeof(buf), "%" PRId64, ev.fields[i].value);
    out += buf;
  }
  out += "},\"detail\":\"";
  out += JsonEscape(ev.detail);
  out += "\"}";
  return out;
}

void EventLog::AppendToSink(const Event& ev) {
  SpinLatchGuard guard(sink_latch_);
  if (sink_path_.empty()) return;
  std::string line = EventToJson(ev);
  // lint:allow(raw-io): event sink is a diagnostics artifact; it is
  // not part of the recovery chain and needs no fsync discipline. The
  // per-event open/append/close keeps the line on disk even if the
  // process dies right after a WARN — exactly when it matters.
  std::FILE* f = std::fopen(sink_path_.c_str(), "a");
  if (f == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

void EventLog::MirrorToStderr(const Event& ev) {
  uint64_t folded = 0;
  if (!stderr_site_.Admit(ev.ts_us, &folded)) return;
  std::string line;
  line += "calcdb ";
  line += SeverityName(ev.severity);
  line += " [";
  line += ev.cat != nullptr ? ev.cat : "";
  line += "] ";
  line += ev.name != nullptr ? ev.name : "";
  char buf[64];
  for (int i = 0; i < ev.n_fields; ++i) {
    line += " ";
    line += ev.fields[i].key != nullptr ? ev.fields[i].key : "";
    std::snprintf(buf, sizeof(buf), "=%" PRId64, ev.fields[i].value);
    line += buf;
  }
  if (ev.detail[0] != '\0') {
    line += ": ";
    line += ev.detail;
  }
  uint64_t hidden = ev.suppressed + folded;
  if (hidden > 0) {
    std::snprintf(buf, sizeof(buf), " (+%" PRIu64 " suppressed)", hidden);
    line += buf;
  }
  // The stderr mirror is the sanctioned "engine is degraded" channel
  // (tools/lint_durability.py raw-stderr rule allows this file).
  std::fprintf(stderr, "%s\n", line.c_str());
}

bool EventLog::ExportJsonl(const std::string& path) const {
  std::string out;
  for (const Event& ev : ring_.Snapshot()) {
    out += EventToJson(ev);
    out += "\n";
  }
  // lint:allow(raw-io): event export is a diagnostics artifact; it is
  // not part of the recovery chain and needs no fsync discipline.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(out.data(), 1, out.size(), f);
  int rc = std::fclose(f);
  return written == out.size() && rc == 0;
}

void EventLog::ResetForTest() {
  ring_.Reset();
  suppressed_.store(0, std::memory_order_relaxed);
  SetSinkPath("");
  enabled_.store(true, std::memory_order_relaxed);
  mirror_.store(true, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace calcdb
