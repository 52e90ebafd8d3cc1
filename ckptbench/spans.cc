#include "spans.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace ckptbench {

namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr NameInfo kNames[kNumSpanNames] = {
    {"bench.setup", "bench"},
    {"db.open", "db"},
    {"db.populate", "db"},
    {"db.base_ckpt", "db"},
    {"db.start", "db"},
    {"workload.gen", "workload"},
    {"txn.execute", "txn"},
    {"checkpoint.cycle", "checkpoint"},
    {"storage.digest", "storage"},
    {"log.shutdown", "log"},
    {"bench.recover", "bench"},
    {"recovery.recover", "recovery"},
};

}  // namespace

const char* SpanNameString(uint16_t name) {
  return name < kNumSpanNames ? kNames[name].name : "?";
}

const char* SpanLayer(uint16_t name) {
  return name < kNumSpanNames ? kNames[name].layer : "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanBuffer::Begin(uint16_t name, uint64_t txn, int64_t start_ns) {
  Span span;
  span.start_ns = start_ns;
  span.txn = txn;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanBuffer::End(int32_t index, int64_t end_ns) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = end_ns;
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns +=
        end_ns - span.start_ns;
  }
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

SpanBuffer* SpanRecorder::NewBuffer() {
  std::lock_guard<std::mutex> guard(mu_);
  buffers_.push_back(
      std::make_unique<SpanBuffer>(static_cast<int>(buffers_.size())));
  return buffers_.back().get();
}

std::vector<const SpanBuffer*> SpanRecorder::Buffers() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<const SpanBuffer*> out;
  for (const auto& b : buffers_) out.push_back(b.get());
  return out;
}

std::string SpanRecorder::LayerTable() const {
  struct Row {
    uint64_t count = 0;
    int64_t busy_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> layers;
  std::map<std::pair<std::string, std::string>, Row> names;
  for (const SpanBuffer* b : Buffers()) {
    for (const Span& s : b->spans()) {
      int64_t dur = s.end_ns - s.start_ns;
      for (Row* row : {&layers[SpanLayer(s.name)],
                       &names[{SpanLayer(s.name), SpanNameString(s.name)}]}) {
        row->count += 1;
        row->busy_ns += dur;
        row->self_ns += dur - s.child_ns;
      }
    }
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-11s %-18s %10s %12s %12s\n", "layer",
                "span", "count", "busy_s", "self_s");
  out += line;
  for (const auto& [layer, row] : layers) {
    for (const auto& [key, nrow] : names) {
      if (key.first != layer) continue;
      std::snprintf(line, sizeof(line), "%-11s %-18s %10" PRIu64
                    " %12.6f %12.6f\n",
                    layer.c_str(), key.second.c_str(), nrow.count,
                    static_cast<double>(nrow.busy_ns) / 1e9,
                    static_cast<double>(nrow.self_ns) / 1e9);
      out += line;
    }
    std::snprintf(line, sizeof(line), "%-11s %-18s %10" PRIu64
                  " %12.6f %12.6f\n",
                  layer.c_str(), "(layer total)", row.count,
                  static_cast<double>(row.busy_ns) / 1e9,
                  static_cast<double>(row.self_ns) / 1e9);
    out += line;
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    uint64_t txn_sample) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<const SpanBuffer*> buffers = Buffers();
  int64_t t0 = INT64_MAX;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) t0 = std::min(t0, s.start_ns);
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanBuffer* b : buffers) {
    const std::vector<Span>& spans = b->spans();
    for (const Span& s : spans) {
      if (s.txn != 0 && txn_sample > 1 && s.txn % txn_sample != 0) continue;
      const char* parent =
          s.parent >= 0 ? SpanNameString(spans[static_cast<size_t>(s.parent)]
                                             .name)
                        : "";
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"txn\": %" PRIu64 ", \"parent\": \"%s\"}}",
                   first ? "" : ",\n", SpanNameString(s.name),
                   SpanLayer(s.name),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, b->tid(),
                   s.txn, parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace ckptbench
