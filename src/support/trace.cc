#include "src/support/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace dvm {

SpanId Tracer::Begin(std::string name, SpanId parent, uint64_t start_nanos,
                     std::string category, uint64_t track) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = std::move(name);
  span.category = std::move(category);
  span.start_nanos = start_nanos;
  if (track != 0) {
    span.track = track;
  } else if (parent != 0) {
    auto it = open_.find(parent);
    span.track = it != open_.end() ? it->second.track : 1;
  }
  SpanId id = span.id;
  open_.emplace(id, std::move(span));
  return id;
}

void Tracer::Annotate(SpanId id, std::string key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it != open_.end()) {
    it->second.annotations.emplace_back(std::move(key), std::move(value));
  }
}

void Tracer::End(SpanId id, uint64_t end_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) {
    return;
  }
  it->second.end_nanos = end_nanos;
  finished_.push_back(std::move(it->second));
  open_.erase(it);
}

SpanId Tracer::Emit(std::string name, SpanId parent, uint64_t start_nanos, uint64_t end_nanos,
                    std::string category, uint64_t track) {
  SpanId id = Begin(std::move(name), parent, start_nanos, std::move(category), track);
  End(id, end_nanos);
  return id;
}

std::vector<Span> Tracer::Finished() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = finished_;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_nanos != b.start_nanos ? a.start_nanos < b.start_nanos : a.id < b.id;
  });
  return spans;
}

size_t Tracer::finished_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_.size();
}

size_t Tracer::open_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  next_id_ = 1;
  open_.clear();
  finished_.clear();
}

namespace {

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Microseconds with fixed 3-digit nanosecond remainder: integer math only, so
// output bytes never depend on floating-point formatting.
std::string FmtMicros(uint64_t nanos) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, nanos / 1000, nanos % 1000);
  return buf;
}

std::string LabelBlock(const std::vector<std::pair<std::string, std::string>>& labels,
                       const std::string& le = "") {
  if (labels.empty() && le.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ",";
    }
    out += key + "=\"" + value + "\"";
    first = false;
  }
  if (!le.empty()) {
    if (!first) {
      out += ",";
    }
    out += "le=\"" + le + "\"";
  }
  out += "}";
  return out;
}

std::string MetricName(const std::string& name) {
  std::string out = "dvm_";
  for (char c : name) {
    out += (c == '.' || c == '-' || c == ' ') ? '_' : c;
  }
  return out;
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Span>& spans,
                            const std::vector<std::pair<std::string, std::string>>& metadata) {
  std::string out;
  out.reserve(spans.size() * 160 + 256);
  out += "{\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {";
  for (size_t i = 0; i < metadata.size(); i++) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"";
    AppendJsonEscaped(out, metadata[i].first);
    out += "\": \"";
    AppendJsonEscaped(out, metadata[i].second);
    out += "\"";
  }
  out += "},\n\"traceEvents\": [\n";
  char buf[96];
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& span = spans[i];
    out += "{\"name\":\"";
    AppendJsonEscaped(out, span.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(out, span.category.empty() ? "span" : span.category);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += FmtMicros(span.start_nanos);
    out += ",\"dur\":";
    out += FmtMicros(span.duration_nanos());
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%" PRIu64 ",\"args\":{", span.track);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"span\":\"%" PRIu64 "\",\"parent\":\"%" PRIu64 "\"",
                  span.id, span.parent);
    out += buf;
    for (const auto& [key, value] : span.annotations) {
      out += ",\"";
      AppendJsonEscaped(out, key);
      out += "\":\"";
      AppendJsonEscaped(out, value);
      out += "\"";
    }
    out += "}}";
    if (i + 1 < spans.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]\n}\n";
  return out;
}

std::string PrometheusText(const StatsRegistry& stats,
                           const std::vector<std::pair<std::string, std::string>>& labels) {
  return PrometheusText(stats.FullSnapshot(), labels);
}

std::string PrometheusText(const StatsSnapshot& snapshot,
                           const std::vector<std::pair<std::string, std::string>>& labels) {
  std::string out;
  char buf[64];
  for (const auto& [name, value] : snapshot.counters) {
    std::string metric = MetricName(name);
    out += "# TYPE " + metric + " counter\n";
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
    out += metric + LabelBlock(labels) + buf;
  }
  for (const auto& [name, snap] : snapshot.histograms) {
    std::string metric = MetricName(name);
    out += "# TYPE " + metric + " histogram\n";
    uint64_t cumulative = 0;
    size_t last = snap.count == 0 ? 0 : Histogram::BucketFor(snap.max) + 1;
    for (size_t i = 0; i < last; i++) {
      cumulative += snap.counts[i];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, Histogram::BucketBound(i));
      std::string le = buf;
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", cumulative);
      out += metric + "_bucket" + LabelBlock(labels, le) + buf;
    }
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", snap.count);
    out += metric + "_bucket" + LabelBlock(labels, "+Inf") + buf;
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", snap.sum);
    out += metric + "_sum" + LabelBlock(labels) + buf;
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", snap.count);
    out += metric + "_count" + LabelBlock(labels) + buf;
  }
  return out;
}

void BoundedSpanRing::Push(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  ingested_.fetch_add(1, std::memory_order_relaxed);
  if (ring_.Push(std::move(span))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<Span> BoundedSpanRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

size_t BoundedSpanRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

}  // namespace dvm
