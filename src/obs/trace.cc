#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"
#include "util/clock.h"

namespace calcdb {
namespace obs {

std::string TraceBuffer::ToJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const auto& ev : events) {
    if (ev.name == nullptr || ev.cat == nullptr) continue;
    if (!first) out += ",";
    first = false;
    if (ev.ph == 'X') {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%" PRId64 ",\"dur\":%" PRId64
                    ",\"pid\":1,\"tid\":%u,\"args\":{\"arg\":%" PRIu64
                    "}}",
                    JsonEscape(ev.name).c_str(),
                    JsonEscape(ev.cat).c_str(), ev.ts_us, ev.dur_us,
                    ev.tid, ev.arg);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                    "\"ts\":%" PRId64
                    ",\"s\":\"g\",\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"arg\":%" PRIu64 "}}",
                    JsonEscape(ev.name).c_str(),
                    JsonEscape(ev.cat).c_str(), ev.ts_us, ev.tid,
                    ev.arg);
    }
    out += buf;
  }
  out += "]}";
  return out;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::EmitComplete(const char* name, const char* cat,
                          int64_t start_us, int64_t dur_us, uint64_t arg) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = start_us;
  ev.dur_us = dur_us;
  ev.arg = arg;
  ev.tid = CurrentTid();
  ev.ph = 'X';
  buffer_.Emit(ev);
}

void Tracer::EmitInstant(const char* name, const char* cat, uint64_t arg) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = NowMicros();
  ev.arg = arg;
  ev.tid = CurrentTid();
  ev.ph = 'i';
  buffer_.Emit(ev);
}

bool Tracer::ExportJson(const std::string& path) const {
  std::string json = ToJson();
  // lint:allow(raw-io): trace export is a diagnostics artifact; it is
  // not part of the recovery chain and needs no fsync discipline.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int rc = std::fclose(f);
  return written == json.size() && rc == 0;
}

TraceSpan::TraceSpan(const char* name, const char* cat, uint64_t arg)
    : name_(name), cat_(cat), arg_(arg), start_us_(NowMicros()) {}

TraceSpan::~TraceSpan() {
  Tracer::Global().EmitComplete(name_, cat_, start_us_,
                                NowMicros() - start_us_, arg_);
}

}  // namespace obs
}  // namespace calcdb
