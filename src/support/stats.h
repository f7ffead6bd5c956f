// Lightweight statistics accumulators for the benchmark harnesses: running
// mean/stddev (Welford), plus thread-safe named counters and log-bucketed
// latency histograms (StatsRegistry) that the concurrent proxy request path
// uses to surface per-stage work, coalescing, lock traffic, and tail latency.
#ifndef SRC_SUPPORT_STATS_H_
#define SRC_SUPPORT_STATS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dvm {

// Constant-space running mean / variance.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// A single monotonically increasing counter, safe to bump from any thread.
class StatCounter {
 public:
  void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Log-bucketed histogram with lock-free recording: 64 buckets whose inclusive
// upper bounds grow by ~1.5x per step (1, 2, 3, 4, 5, 7, 11, ... ~1e11), so a
// nanosecond-scale latency distribution spanning six decades fits with bounded
// relative error. Percentiles interpolate within the winning bucket and are
// accurate to one bucket width (asserted against exact percentiles in
// trace_test).
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  // A consistent copy of the histogram state; all queries run on snapshots so
  // hot paths never take a lock.
  struct Snapshot {
    std::array<uint64_t, kBuckets> counts{};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;

    // p in [0, 100]; linear interpolation within the bucket holding the rank,
    // clamped to the observed [min, max].
    double Percentile(double p) const;
    double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }

    // Exact merge: bucket counts are additive, so merging two snapshots yields
    // byte-identical state to recording both streams into one histogram. This
    // is what lets per-replica histograms ship to the console and aggregate
    // fleet-wide without approximation.
    void Merge(const Snapshot& other);
    // Per-bucket difference `this - earlier` for two snapshots of the same
    // monotonically growing histogram (counts/count/sum subtract; min/max stay
    // cumulative, Prometheus-style).
    Snapshot Delta(const Snapshot& earlier) const;
  };

  void Record(uint64_t value);
  Snapshot TakeSnapshot() const;
  void Reset();

  // Inclusive upper bound of bucket `i` (the last bucket absorbs any larger
  // value); index of the bucket holding `value`; width of that bucket — the
  // percentile error bound at `value`.
  static uint64_t BucketBound(size_t i);
  static size_t BucketFor(uint64_t value);
  static uint64_t BucketWidth(uint64_t value);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{std::numeric_limits<uint64_t>::max()};
  std::atomic<uint64_t> max_{0};
};

// A point-in-time copy of an entire StatsRegistry: name-sorted counters and
// histogram snapshots. Serializable (for shipping over the control plane),
// exactly mergeable (fleet aggregation), and differencable (burn-rate windows
// for SLO monitors).
struct StatsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

  // Counter value / histogram snapshot by name (0 / empty when absent).
  uint64_t CounterValue(const std::string& name) const;
  Histogram::Snapshot HistogramFor(const std::string& name) const;

  // Exact union: counters add, histogram buckets add; names present in only
  // one side carry through. Merge(a, b) == snapshot of a registry that
  // recorded both streams.
  void Merge(const StatsSnapshot& other);
  // Windowed difference `this - earlier` for two snapshots of the same
  // registry (counters and histogram buckets subtract, clamped at zero for
  // names the earlier snapshot lacks; histogram min/max stay cumulative).
  StatsSnapshot Delta(const StatsSnapshot& earlier) const;

  // Wire size in bytes for control-plane byte accounting: name lengths plus
  // 8 bytes per counter and the fixed histogram payload.
  uint64_t SerializedSize() const;
};

// Registry of named counters. Counter() returns a reference that stays valid
// for the registry's lifetime, so hot paths resolve a counter once and then
// bump it lock-free; only creation and snapshotting take the registry mutex.
class StatsRegistry {
 public:
  StatCounter& Counter(const std::string& name);
  // 0 when the counter does not exist.
  uint64_t Value(const std::string& name) const;
  // Name-sorted (map order) view of every counter.
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;

  // Named histogram; like Counter(), the reference stays valid for the
  // registry's lifetime so hot paths record lock-free after one lookup.
  Histogram& Histo(const std::string& name);
  // Empty snapshot when the histogram does not exist.
  Histogram::Snapshot HistogramSnapshot(const std::string& name) const;
  // Name-sorted view of every histogram.
  std::vector<std::pair<std::string, Histogram::Snapshot>> HistogramSnapshots() const;

  // Consistent copy of every counter and histogram in one structure.
  StatsSnapshot FullSnapshot() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<StatCounter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dvm

#endif  // SRC_SUPPORT_STATS_H_
