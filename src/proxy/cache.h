// The proxy's rewrite cache: rewritten-class bytes keyed by class name and
// service-configuration version. A hit skips the whole static pipeline, which
// is what makes "DVM cached" *faster* than a monolithic VM in Figure 6.
//
// Concurrent layout: the byte budget is divided over N shards (hash of key →
// shard), each with its own mutex, LRU list and map, so cache-hit traffic from
// many worker threads does not serialize on one lock. Get() copies the entry
// out under the shard lock; returned values are never invalidated by later
// eviction. SingleFlightGroup coalesces concurrent misses on the same key so
// the expensive rewrite pipeline runs once per key.
#ifndef SRC_PROXY_CACHE_H_
#define SRC_PROXY_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/support/bytes.h"

namespace dvm {

struct CachedClass {
  Bytes main_class;
  std::vector<std::pair<std::string, Bytes>> extra_classes;
  // Security-policy epoch the rewrite ran under. Responses carry it so a
  // client (and the replication layer) can prove an artifact is current.
  uint64_t epoch = 0;
  // Serialized verification certificate (verifier/certificate.h) for the
  // rewritten main class: derived from the verification filter's proof of
  // the origin class, or, when the filters' edits cannot be mapped, proved
  // by the fixpoint on the artifact (DvmProxy::EmitCertificate). Either way
  // it is byte-identical to the fixpoint's proof. Empty only when the
  // fixpoint rejects the artifact; replicas receiving it then refuse to
  // install it (proxy.cert_missing).
  Bytes certificate;
};

class RewriteCache {
 public:
  // The byte budget is spread evenly over this many shards, each an LRU of
  // its own; a key hashes to one shard.
  static constexpr size_t kShards = 8;

  explicit RewriteCache(size_t capacity_bytes);

  // nullopt on miss. A hit refreshes LRU position and copies the entry out so
  // the caller holds no pointer into a shard.
  std::optional<CachedClass> Get(const std::string& key);
  // Copy-out read that refreshes nothing: no LRU move, no hit/miss counters.
  // Replication equality checks use this so verifying convergence does not
  // perturb eviction order or cache statistics.
  std::optional<CachedClass> Peek(const std::string& key) const;
  void Put(const std::string& key, CachedClass value);
  void Clear();

  size_t size_bytes() const;
  size_t entries() const;
  uint64_t hits() const;
  uint64_t misses() const;

  struct ShardStats {
    size_t entries = 0;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  std::vector<ShardStats> PerShardStats() const;

 private:
  struct Entry {
    CachedClass value;
    std::list<std::string>::iterator lru_pos;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;  // front = most recent
    std::map<std::string, Entry> entries;
    size_t size_bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  static size_t SizeOf(const CachedClass& value);
  // Requires shard.mu held.
  static void EvictTo(Shard& shard, size_t budget);
  Shard& ShardFor(const std::string& key);

  size_t shard_capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Miss coalescing: the first caller to Acquire() a key becomes its leader and
// runs the rewrite; every other caller blocks until the leader Release()s,
// then re-checks the cache. Followers loop back to Acquire() if the leader
// failed (or its entry was already evicted), so a key is never stranded.
class SingleFlightGroup {
 public:
  // True: caller is now the leader for `key` and must call Release(key) on
  // every exit path. False: the caller waited out another leader.
  bool Acquire(const std::string& key);
  void Release(const std::string& key);

  // Number of times a caller blocked behind an in-flight rewrite.
  uint64_t coalesced_waits() const { return coalesced_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::string> inflight_;
  std::atomic<uint64_t> coalesced_{0};
};

// RAII leader lease so error returns inside the rewrite path release the key.
class SingleFlightLease {
 public:
  SingleFlightLease(SingleFlightGroup* group, std::string key)
      : group_(group), key_(std::move(key)) {}
  ~SingleFlightLease() { group_->Release(key_); }
  SingleFlightLease(const SingleFlightLease&) = delete;
  SingleFlightLease& operator=(const SingleFlightLease&) = delete;

 private:
  SingleFlightGroup* group_;
  std::string key_;
};

}  // namespace dvm

#endif  // SRC_PROXY_CACHE_H_
