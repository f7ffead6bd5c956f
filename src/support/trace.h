// Virtual-clock span tracing (the observability substrate, DESIGN.md §9).
//
// The paper factors monitoring out of the client into a centralized service
// (§3.3); this layer gives the reproduction the matching data path: every
// request through the system opens a Span on a thread-safe Tracer, child
// spans capture where the virtual time went (link queueing vs transmission,
// proxy pipeline stages, retry backoff, deadline waits), and completed spans
// flow to the AdministrationConsole next to the audit log. Because all
// timestamps are virtual nanoseconds, identical seeds produce byte-identical
// exported traces — a trace is a reproducible artifact, not a sampling.
//
// Two exporters: Chrome trace_event JSON (loadable in chrome://tracing or
// Perfetto) and a Prometheus-style text snapshot of a StatsRegistry's
// counters and histograms.
#ifndef SRC_SUPPORT_TRACE_H_
#define SRC_SUPPORT_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/support/hash.h"
#include "src/support/ring.h"
#include "src/support/stats.h"

namespace dvm {

using SpanId = uint64_t;  // 0 = "no span"

// One closed interval of virtual time, with causality (parent) and key/value
// annotations. `track` is the Chrome "tid" lane the span renders on; child
// spans inherit their parent's track by default so a request's whole tree
// stacks in one lane.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  std::string category;
  uint64_t track = 1;
  uint64_t start_nanos = 0;
  uint64_t end_nanos = 0;
  std::vector<std::pair<std::string, std::string>> annotations;

  uint64_t duration_nanos() const { return end_nanos - start_nanos; }
};

// Thread-safe span collector. Ids are assigned in Begin order under the lock,
// so a single-threaded virtual-clock run numbers its spans deterministically.
class Tracer {
 public:
  // `track` 0 inherits the parent's track (1 when there is no parent).
  SpanId Begin(std::string name, SpanId parent, uint64_t start_nanos,
               std::string category = "", uint64_t track = 0);
  // No-ops on an unknown or already-finished id.
  void Annotate(SpanId id, std::string key, std::string value);
  void End(SpanId id, uint64_t end_nanos);
  // Begin + End in one call, for spans whose extent is already known.
  SpanId Emit(std::string name, SpanId parent, uint64_t start_nanos, uint64_t end_nanos,
              std::string category = "", uint64_t track = 0);

  // Completed spans ordered by (start, id) — the exporter order.
  std::vector<Span> Finished() const;
  size_t finished_count() const;
  size_t open_count() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  SpanId next_id_ = 1;
  std::map<SpanId, Span> open_;
  std::vector<Span> finished_;
};

// Null-tolerant helpers so call sites stay branch-free when tracing is off.
inline SpanId TraceBegin(Tracer* tracer, std::string name, SpanId parent, uint64_t start_nanos,
                         std::string category = "", uint64_t track = 0) {
  return tracer == nullptr
             ? 0
             : tracer->Begin(std::move(name), parent, start_nanos, std::move(category), track);
}
inline void TraceAnnotate(Tracer* tracer, SpanId id, std::string key, std::string value) {
  if (tracer != nullptr) {
    tracer->Annotate(id, std::move(key), std::move(value));
  }
}
inline void TraceEnd(Tracer* tracer, SpanId id, uint64_t end_nanos) {
  if (tracer != nullptr) {
    tracer->End(id, end_nanos);
  }
}
inline SpanId TraceEmit(Tracer* tracer, std::string name, SpanId parent, uint64_t start_nanos,
                        uint64_t end_nanos, std::string category = "", uint64_t track = 0) {
  return tracer == nullptr ? 0
                           : tracer->Emit(std::move(name), parent, start_nanos, end_nanos,
                                          std::move(category), track);
}

// Carries "who traces, under which parent, starting at which virtual time"
// into APIs that compute their own durations (proxy pipeline stages, link
// delivery legs). Default-constructed = tracing off.
struct TraceContext {
  Tracer* tracer = nullptr;
  SpanId parent = 0;
  uint64_t at = 0;  // virtual nanos at which the traced operation begins

  bool active() const { return tracer != nullptr; }
};

// RAII span tied to a virtual clock: opens at construction time's clock value,
// closes at destruction's. A null tracer makes every operation a no-op.
class SpanScope {
 public:
  using Clock = std::function<uint64_t()>;

  SpanScope(Tracer* tracer, Clock clock, std::string name, SpanId parent = 0,
            std::string category = "", uint64_t track = 0)
      : tracer_(tracer), clock_(std::move(clock)) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Begin(std::move(name), parent, clock_(), std::move(category), track);
    }
  }
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->End(id_, clock_());
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  SpanId id() const { return id_; }
  void Annotate(std::string key, std::string value) {
    TraceAnnotate(tracer_, id_, std::move(key), std::move(value));
  }

 private:
  Tracer* tracer_;
  Clock clock_;
  SpanId id_ = 0;
};

// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds with
// nanosecond precision). `metadata` lands in "otherData". Deterministic:
// identical spans and metadata serialize to identical bytes.
std::string ChromeTraceJson(const std::vector<Span>& spans,
                            const std::vector<std::pair<std::string, std::string>>& metadata = {});

// Prometheus text exposition of every counter and histogram in `stats`,
// prefixed "dvm_" with dots mapped to underscores; `labels` are attached to
// every series. Histogram buckets are cumulative, emitted up to the bucket
// holding the observed max.
std::string PrometheusText(const StatsRegistry& stats,
                           const std::vector<std::pair<std::string, std::string>>& labels = {});

// Same exposition over a detached snapshot — the form the console uses for
// per-replica and fleet-merged exports. The registry overload delegates here,
// so both produce byte-identical output for the same state.
std::string PrometheusText(const StatsSnapshot& snapshot,
                           const std::vector<std::pair<std::string, std::string>>& labels = {});

// Thread-safe span ring: keeps the most recent `capacity` spans and counts
// what it sheds, so a 10^6-client run ingests an unbounded span stream under a
// bounded RSS ceiling.
class BoundedSpanRing {
 public:
  explicit BoundedSpanRing(size_t capacity) : ring_(capacity) {}

  void Push(Span span);
  // Ring contents ordered oldest-first (ingest order).
  std::vector<Span> Snapshot() const;
  size_t size() const;
  size_t capacity() const { return ring_.capacity(); }
  // Spans evicted to honor the cap, and total ever ingested.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t ingested() const { return ingested_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  BoundedRing<Span> ring_;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> ingested_{0};
};

// Deterministic head-based sampling: the keep/drop decision is a pure hash of
// (seed, unit id), made once at the head of a request and inherited by every
// span under it. Identical seeds sample identical units, so sampled traces
// stay byte-reproducible; there is no RNG state to advance, so adding or
// removing sampling cannot perturb any other random stream.
class TraceSampler {
 public:
  // Samples ~1/`rate` units; rate 0 or 1 keeps everything.
  TraceSampler(uint64_t seed, uint64_t rate) : seed_(seed), rate_(rate) {}

  bool Keep(uint64_t unit_id) const {
    if (rate_ <= 1) {
      return true;
    }
    // splitmix64 finalizer over seed ^ id: uniform, cheap, stateless.
    return Mix64(seed_ ^ (unit_id * 0x9e3779b97f4a7c15ULL)) % rate_ == 0;
  }

  uint64_t rate() const { return rate_; }

 private:
  uint64_t seed_;
  uint64_t rate_;
};

}  // namespace dvm

#endif  // SRC_SUPPORT_TRACE_H_
