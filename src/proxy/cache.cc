#include "src/proxy/cache.h"

#include "src/support/hash.h"

namespace dvm {

RewriteCache::RewriteCache(size_t capacity_bytes)
    : shard_capacity_bytes_(capacity_bytes / kShards) {
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; i++) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t RewriteCache::SizeOf(const CachedClass& value) {
  size_t bytes = value.main_class.size() + value.certificate.size();
  for (const auto& [name, data] : value.extra_classes) {
    bytes += name.size() + data.size();
  }
  return bytes + 64;  // entry bookkeeping
}

RewriteCache::Shard& RewriteCache::ShardFor(const std::string& key) {
  return *shards_[Fnv1a(key) % shards_.size()];
}

std::optional<CachedClass> RewriteCache::Get(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    shard.misses++;
    return std::nullopt;
  }
  shard.hits++;
  shard.lru.erase(it->second.lru_pos);
  shard.lru.push_front(key);
  it->second.lru_pos = shard.lru.begin();
  return it->second.value;
}

std::optional<CachedClass> RewriteCache::Peek(const std::string& key) const {
  const Shard& shard = *shards_[Fnv1a(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

void RewriteCache::Put(const std::string& key, CachedClass value) {
  size_t bytes = SizeOf(value);
  if (bytes > shard_capacity_bytes_) {
    return;  // would evict the whole shard; not worth caching
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    shard.size_bytes -= SizeOf(it->second.value);
    shard.lru.erase(it->second.lru_pos);
    shard.entries.erase(it);
  }
  EvictTo(shard, shard_capacity_bytes_ - bytes);
  shard.lru.push_front(key);
  shard.entries[key] = Entry{std::move(value), shard.lru.begin()};
  shard.size_bytes += bytes;
}

void RewriteCache::EvictTo(Shard& shard, size_t budget) {
  while (shard.size_bytes > budget && !shard.lru.empty()) {
    const std::string& victim = shard.lru.back();
    auto it = shard.entries.find(victim);
    shard.size_bytes -= SizeOf(it->second.value);
    shard.entries.erase(it);
    shard.lru.pop_back();
  }
}

void RewriteCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    shard->lru.clear();
    shard->size_bytes = 0;
  }
}

size_t RewriteCache::size_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->size_bytes;
  }
  return total;
}

size_t RewriteCache::entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

uint64_t RewriteCache::hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->hits;
  }
  return total;
}

uint64_t RewriteCache::misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->misses;
  }
  return total;
}

std::vector<RewriteCache::ShardStats> RewriteCache::PerShardStats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.push_back(ShardStats{shard->entries.size(), shard->size_bytes, shard->hits,
                             shard->misses});
  }
  return out;
}

bool SingleFlightGroup::Acquire(const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  if (inflight_.count(key) == 0) {
    inflight_.insert(key);
    return true;
  }
  coalesced_.fetch_add(1, std::memory_order_relaxed);
  cv_.wait(lock, [&] { return inflight_.count(key) == 0; });
  return false;
}

void SingleFlightGroup::Release(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
  }
  cv_.notify_all();
}

}  // namespace dvm
