#include "src/support/stats.h"

#include <algorithm>
#include <cmath>

namespace dvm {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_++;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

// Bucket bounds: start at 1 and grow by 1.5x, bumped by at least 1 so the
// low buckets stay distinct (1, 2, 3, 4, 5, 7, 11, 17, 25, ...). The last
// bound is ~1.04e11 — nanosecond values up to ~104 virtual seconds resolve,
// larger ones clamp into the final bucket.
std::array<uint64_t, Histogram::kBuckets> MakeBounds() {
  std::array<uint64_t, Histogram::kBuckets> bounds{};
  double x = 1.0;
  uint64_t prev = 0;
  for (size_t i = 0; i < Histogram::kBuckets; i++) {
    auto v = static_cast<uint64_t>(x);
    if (v <= prev) {
      v = prev + 1;
    }
    bounds[i] = v;
    prev = v;
    x *= 1.5;
  }
  return bounds;
}

const std::array<uint64_t, Histogram::kBuckets>& Bounds() {
  static const std::array<uint64_t, Histogram::kBuckets> bounds = MakeBounds();
  return bounds;
}

}  // namespace

uint64_t Histogram::BucketBound(size_t i) {
  return Bounds()[i < kBuckets ? i : kBuckets - 1];
}

size_t Histogram::BucketFor(uint64_t value) {
  const auto& bounds = Bounds();
  auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return it == bounds.end() ? kBuckets - 1 : static_cast<size_t>(it - bounds.begin());
}

uint64_t Histogram::BucketWidth(uint64_t value) {
  size_t i = BucketFor(value);
  return i == 0 ? 1 : BucketBound(i) - BucketBound(i - 1);
}

void Histogram::Record(uint64_t value) {
  counts_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen && !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  for (size_t i = 0; i < kBuckets; i++) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  uint64_t min = min_.load(std::memory_order_relaxed);
  snap.min = min == std::numeric_limits<uint64_t>::max() ? 0 : min;
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<uint64_t>::max(), std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  if (p <= 0.0) {
    return static_cast<double>(min);
  }
  if (p >= 100.0) {
    return static_cast<double>(max);
  }
  double rank = p / 100.0 * static_cast<double>(count - 1);
  uint64_t consumed = 0;
  for (size_t i = 0; i < kBuckets; i++) {
    uint64_t c = counts[i];
    if (c == 0) {
      continue;
    }
    if (rank < static_cast<double>(consumed + c)) {
      double lo = i == 0 ? 0.0 : static_cast<double>(BucketBound(i - 1));
      double hi = static_cast<double>(BucketBound(i));
      double frac = (rank - static_cast<double>(consumed)) / static_cast<double>(c);
      double value = lo + (hi - lo) * frac;
      value = std::max(value, static_cast<double>(min));
      value = std::min(value, static_cast<double>(max));
      return value;
    }
    consumed += c;
  }
  return static_cast<double>(max);
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  for (size_t i = 0; i < kBuckets; i++) {
    counts[i] += other.counts[i];
  }
  if (other.count > 0) {
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

Histogram::Snapshot Histogram::Snapshot::Delta(const Snapshot& earlier) const {
  Snapshot out = *this;
  for (size_t i = 0; i < kBuckets; i++) {
    out.counts[i] -= std::min(out.counts[i], earlier.counts[i]);
  }
  out.count -= std::min(out.count, earlier.count);
  out.sum -= std::min(out.sum, earlier.sum);
  return out;
}

namespace {

// Generic name-sorted-vector union/difference: both operands are sorted by
// name (map iteration order), so a single linear merge suffices.
template <typename V, typename Combine>
std::vector<std::pair<std::string, V>> MergeSorted(
    const std::vector<std::pair<std::string, V>>& a,
    const std::vector<std::pair<std::string, V>>& b, Combine combine) {
  std::vector<std::pair<std::string, V>> out;
  out.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      out.push_back(a[i++]);
    } else if (i == a.size() || b[j].first < a[i].first) {
      out.push_back(b[j++]);
    } else {
      out.emplace_back(a[i].first, combine(a[i].second, b[j].second));
      i++;
      j++;
    }
  }
  return out;
}

}  // namespace

uint64_t StatsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

Histogram::Snapshot StatsSnapshot::HistogramFor(const std::string& name) const {
  for (const auto& [n, snap] : histograms) {
    if (n == name) {
      return snap;
    }
  }
  return Histogram::Snapshot{};
}

void StatsSnapshot::Merge(const StatsSnapshot& other) {
  counters = MergeSorted(counters, other.counters,
                         [](uint64_t a, uint64_t b) { return a + b; });
  histograms = MergeSorted(histograms, other.histograms,
                           [](const Histogram::Snapshot& a, const Histogram::Snapshot& b) {
                             Histogram::Snapshot merged = a;
                             merged.Merge(b);
                             return merged;
                           });
}

StatsSnapshot StatsSnapshot::Delta(const StatsSnapshot& earlier) const {
  StatsSnapshot out;
  out.counters.reserve(counters.size());
  size_t j = 0;
  for (const auto& [name, now] : counters) {
    while (j < earlier.counters.size() && earlier.counters[j].first < name) {
      j++;  // names only the earlier snapshot has contribute nothing
    }
    uint64_t then =
        (j < earlier.counters.size() && earlier.counters[j].first == name)
            ? earlier.counters[j].second
            : 0;
    out.counters.emplace_back(name, now - std::min(now, then));
  }
  out.histograms.reserve(histograms.size());
  j = 0;
  for (const auto& [name, now] : histograms) {
    while (j < earlier.histograms.size() && earlier.histograms[j].first < name) {
      j++;
    }
    if (j < earlier.histograms.size() && earlier.histograms[j].first == name) {
      out.histograms.emplace_back(name, now.Delta(earlier.histograms[j].second));
    } else {
      out.histograms.emplace_back(name, now);
    }
  }
  return out;
}

uint64_t StatsSnapshot::SerializedSize() const {
  uint64_t bytes = 16;  // header: counter count + histogram count
  for (const auto& [name, value] : counters) {
    (void)value;
    bytes += 4 + name.size() + 8;
  }
  for (const auto& [name, snap] : histograms) {
    (void)snap;
    bytes += 4 + name.size() + Histogram::kBuckets * 8 + 4 * 8;
  }
  return bytes;
}

StatCounter& StatsRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<StatCounter>();
  }
  return *slot;
}

uint64_t StatsRegistry::Value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, uint64_t>> StatsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

Histogram& StatsRegistry::Histo(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

Histogram::Snapshot StatsRegistry::HistogramSnapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram::Snapshot{} : it->second->TakeSnapshot();
}

std::vector<std::pair<std::string, Histogram::Snapshot>> StatsRegistry::HistogramSnapshots()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram->TakeSnapshot());
  }
  return out;
}

StatsSnapshot StatsRegistry::FullSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->TakeSnapshot());
  }
  return snap;
}

void StatsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace dvm
