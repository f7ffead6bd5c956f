// The transparent network proxy housing the static service components
// (paper sections 2-3). It intercepts class requests, fetches origin bytes,
// parses once, runs the stacked filter pipeline, then signs, emits and proves
// the in-memory result once, caches it, and logs an audit trail. CPU time per
// request is accounted so the scaling experiment (Figure 10) can queue
// requests on a simulated single-CPU server.
//
// Concurrency model (see DESIGN.md "Concurrent proxy architecture"):
// HandleRequest is safe to call from many threads. Per-request state lives in
// an explicit RequestContext rather than proxy members; the rewrite cache is
// sharded; concurrent misses on one (class, platform) key are coalesced so
// the filter pipeline runs once; and misses on different keys run the whole
// rewrite in parallel: the stacked filters are stateless, each rewrite sees
// its own stable view of the classes seen so far, and publishing is one
// locked step that an invalidation cannot interleave.
#ifndef SRC_PROXY_PROXY_H_
#define SRC_PROXY_PROXY_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/proxy/cache.h"
#include "src/proxy/commit_log.h"
#include "src/proxy/signature.h"
#include "src/rewrite/filter.h"
#include "src/runtime/class_registry.h"
#include "src/support/stats.h"
#include "src/support/trace.h"
#include "src/verifier/class_env.h"

namespace dvm {

struct ProxyConfig {
  bool enable_cache = true;
  size_t cache_capacity_bytes = 48 * 1024 * 1024;  // of the host's 64 MB
  size_t cache_shards = RewriteCache::kDefaultShards;
  bool sign_output = false;
  std::string signing_key = "dvm-organization-key";
  // The audit trail is a capped ring (oldest entries dropped, with a counter)
  // so a long-lived proxy does not grow without bound.
  size_t audit_trail_capacity = 4096;

  // CPU cost model for the proxy host (200 MHz PentiumPro): parsing dominates,
  // then per-check service work, then code generation. Calibrated so an
  // average applet costs ~265 ms to parse and instrument (section 4.1.2).
  uint64_t nanos_per_request_base = 2'500'000;  // HTTP handling, per request
  uint64_t nanos_per_byte_parse = 9'000;
  uint64_t nanos_per_byte_emit = 3'000;
  // Per signed byte when sign_output is on (default 0: signing cost is folded
  // into the emit stage's post-signature serialized size, as calibrated).
  uint64_t nanos_per_byte_sign = 0;
  uint64_t nanos_per_check = 60;
  // Cache hits: connection handling plus a cheap read of the stored rewrite.
  uint64_t nanos_per_hit_base = 600'000;
  uint64_t nanos_per_byte_cached = 200;
  // Workspace held while a request is in flight (memory accounting, Fig. 10).
  size_t workspace_bytes_per_request = 262'144;
  size_t memory_bytes = 64 * 1024 * 1024;
};

// One proxied class response.
struct ProxyResponse {
  Bytes data;
  std::vector<std::pair<std::string, Bytes>> extra_classes;  // e.g. $cold splits
  bool cache_hit = false;
  // True when this request blocked behind another request already rewriting
  // the same (class, platform) key and was then served its result.
  bool coalesced = false;
  uint64_t cpu_nanos = 0;      // proxy CPU consumed by this request
  uint64_t origin_bytes = 0;   // bytes fetched from the origin server
  // Security-policy epoch the served artifact was rewritten under. Stamped
  // from the *sampled* epoch at rewrite start (not the current one), so a
  // policy change racing a rewrite can never forge epoch currency.
  uint64_t epoch = 0;
};

// Per-request state, threaded explicitly through the request path instead of
// being mutated on the proxy mid-flight (which is what made the old
// single-threaded HandleRequest impossible to run concurrently). The
// virtual-CPU breakdown sums to ProxyResponse::cpu_nanos.
struct RequestContext {
  std::string class_name;
  std::string platform;
  std::string cache_key;

  // Virtual-CPU timing breakdown per stage of the static pipeline.
  uint64_t connection_nanos = 0;  // request handling / cached read
  uint64_t parse_nanos = 0;
  uint64_t filter_nanos = 0;
  uint64_t emit_nanos = 0;
  uint64_t sign_nanos = 0;

  bool cache_hit = false;
  bool coalesced = false;

  // Tracing (off when trace.tracer is null): Commit converts the stage nanos
  // above into child spans under trace.parent, starting at trace.at.
  TraceContext trace;

  // Audit events produced while serving; flushed to the proxy's audit ring in
  // one locked append when the request commits.
  std::vector<std::string> audit_events;

  uint64_t TotalNanos() const {
    return connection_nanos + parse_nanos + filter_nanos + emit_nanos + sign_nanos;
  }
};

// Bounded audit log: a capped ring buffer that counts what it drops.
class AuditRing {
 public:
  explicit AuditRing(size_t capacity) : capacity_(capacity) {}

  void Push(std::string event);
  void PushAll(std::vector<std::string> events);
  // Oldest → newest.
  std::vector<std::string> Snapshot() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t lock_acquisitions() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  mutable std::atomic<uint64_t> lock_acquisitions_{0};
  std::deque<std::string> ring_;
  std::atomic<uint64_t> dropped_{0};
};

class DvmProxy {
 public:
  // `origin` supplies untransformed class bytes (the web server / Internet);
  // `library_env` is the trusted system library the verifier can see.
  DvmProxy(ProxyConfig config, const ClassEnv* library_env, ClassProvider* origin);

  // The pipeline points at the internal environment; the proxy is pinned.
  DvmProxy(const DvmProxy&) = delete;
  DvmProxy& operator=(const DvmProxy&) = delete;

  // Adds a static service to the pipeline (order = stacking order). Not
  // thread-safe; configure the pipeline before serving requests.
  void AddFilter(std::unique_ptr<CodeFilter> filter);

  // Invoked for every class version served from the pipeline (not for cache
  // hits) with the served bytes; the administration console uses it to keep
  // the organization's code-version inventory. Called after the artifact is
  // published, under a lock that covers only the callback, so one invocation
  // at a time even while misses run in parallel.
  void SetServedObserver(std::function<void(const std::string&, const Bytes&)> observer) {
    served_observer_ = std::move(observer);
  }

  // `platform` is the requesting client's native format (from its handshake);
  // the cache is keyed on (class, platform) so an x86 client and an Alpha
  // client each receive code compiled for their own architecture.
  // Safe to call concurrently from many worker threads.
  // With an active `trace`, the request emits a "proxy <class>" span under
  // trace.parent whose stage children (connection/parse/filter/emit/sign) sum
  // exactly to the response's cpu_nanos.
  Result<ProxyResponse> HandleRequest(const std::string& class_name,
                                      const std::string& platform = "",
                                      const TraceContext& trace = {});

  // Drops all rewritten state — the LRU cache AND the filter-synthesized
  // class map — used when the service configuration (e.g. the security
  // policy) changes and classes must be re-instrumented. Synthesized classes
  // embed the old policy's hooks too, so serving them stale was a bug.
  // Bumps the cache generation *before* clearing, and clears under the lock
  // a rewrite publishes under, so an in-flight rewrite that started under the
  // old configuration either refuses to publish or is cleared (the
  // invalidate / single-flight race — see Rewrite()).
  void InvalidateCache();

  // The canonical rewrite-cache key for (class, platform); the replication
  // layer uses it to address pushed artifacts.
  static std::string RewriteCacheKey(const std::string& class_name, const std::string& platform) {
    return class_name + "\x1f" + platform;
  }

  // Security-policy epoch this replica last applied. 0 until the cluster
  // commits its first epoch.
  uint64_t policy_epoch() const { return policy_epoch_.load(std::memory_order_relaxed); }

  // Applies a committed policy epoch: invalidates all rewritten state (the
  // new policy's hooks differ), then advances the epoch stamp. Used both on
  // the live 2PC commit path and during log replay.
  void ApplyPolicyEpoch(uint64_t epoch);

  // Replays one commit-log record into this replica: kEpoch records apply the
  // epoch (invalidate + advance), kArtifact records install the pushed bytes
  // into the rewrite cache and the synthesized-class map without running the
  // pipeline. In-order replay of a peer's log converges the replica to
  // byte-identical state.
  //
  // An artifact carrying a verification certificate is validated against it
  // in one pass (certificate.h) before installing; a certificate that does
  // not prove the pushed bytes is rejected fail-closed (no install, counted
  // in proxy.cert_rejects, audited as REPL-REJECT). Certificate-less
  // artifacts install on the pusher's authority as before.
  void ApplyCommitRecord(const CommitRecord& record);

  // Artifacts installed via ApplyCommitRecord (pushed or replayed), as
  // opposed to locally rewritten.
  uint64_t replicated_installs() const {
    return replicated_installs_.load(std::memory_order_relaxed);
  }

  std::vector<std::string> audit_trail() const { return audit_.Snapshot(); }
  const AuditRing& audit_ring() const { return audit_; }
  const RewriteCache& cache() const { return cache_; }
  uint64_t requests_served() const { return requests_served_.load(std::memory_order_relaxed); }
  uint64_t total_cpu_nanos() const { return total_cpu_nanos_.load(std::memory_order_relaxed); }
  const CodeSigner& signer() const { return signer_; }
  // Requests that blocked behind an identical in-flight rewrite.
  uint64_t coalesced_requests() const { return flights_.coalesced_waits(); }
  // Named counters: proxy.{connection,parse,filter,emit,sign}_nanos,
  // proxy.coalesced, proxy.rewrites, proxy.generated_hits,
  // proxy.lock_acquisitions (audit, generated/publish, seen-class and
  // observer locks actually taken); the
  // certificate plane: proxy.cert_emits / cert_emit_checks /
  // cert_emit_failures (fixpoint side) and proxy.cert_validations /
  // cert_validate_checks / cert_rejects / cert_missing (one-pass install
  // side); plus the proxy.request_cpu_nanos histogram (per-request CPU,
  // p50/p99/max).
  const StatsRegistry& stats() const { return stats_; }

  // Memory in use with `inflight` concurrent requests: cache + per-request
  // workspaces. The Figure 10 degradation appears when this exceeds
  // config.memory_bytes and the host starts paging.
  size_t MemoryInUse(size_t inflight_requests) const;
  // CPU multiplier under memory pressure (1.0 when resident).
  double ThrashFactor(size_t inflight_requests) const;

 private:
  // Every class this proxy parsed, by name. Reader/writer locked: rewrites
  // read it through a RewriteView, Add replaces. Entries are shared, so a
  // replaced class stays alive while an in-flight view still pins it.
  class SeenEnv {
   public:
    std::shared_ptr<const ClassFile> Find(const std::string& class_name) const;
    void Add(ClassFile cls);
    void SetLockCounter(StatCounter* counter) { lock_counter_ = counter; }

   private:
    mutable std::shared_mutex mu_;
    StatCounter* lock_counter_ = nullptr;
    std::map<std::string, std::shared_ptr<const ClassFile>> seen_;
  };

  // The environment one rewrite's filters verify against: the trusted
  // library first, then SeenEnv. The first answer for each seen name, absent
  // included, holds for the whole rewrite whatever concurrent misses Add
  // meanwhile, and every class returned stays pinned until the view dies.
  class RewriteView : public ClassEnv {
   public:
    RewriteView(const ClassEnv* library, const SeenEnv* seen) : library_(library), seen_(seen) {}
    const ClassFile* Lookup(const std::string& class_name) const override;

   private:
    const ClassEnv* library_;
    const SeenEnv* seen_;
    mutable std::unordered_map<std::string, std::shared_ptr<const ClassFile>> memo_;
  };

  // Serves a cache hit, filling the context's timing/audit state.
  std::optional<ProxyResponse> TryServeFromCache(RequestContext& ctx);
  // Serves a filter-synthesized class (e.g. a "$cold" split).
  std::optional<ProxyResponse> TryServeGenerated(RequestContext& ctx);
  // The miss path: fetch origin bytes, parse, run the stacked services, sign,
  // emit, prove, publish synthesized classes, and populate the cache.
  Result<ProxyResponse> Rewrite(RequestContext& ctx);
  // Runs the full verifier over the final in-memory artifact (main +
  // companions against the system library) and serializes its stack-map
  // certificate. Empty, counted in proxy.cert_emit_failures, only when the
  // verifier rejects the proxy's own output.
  Bytes EmitCertificate(const ClassFile& main, const std::vector<ClassFile>& extras);
  // One-pass check of a pushed artifact against its certificate.
  bool ValidatePushedArtifact(const CommitRecord& record);
  // Commits accounting (stage counters, audit ring, CPU totals) and stamps
  // the context's flags onto the response.
  ProxyResponse Commit(RequestContext& ctx, ProxyResponse response);

  ProxyConfig config_;
  SeenEnv seen_;
  // The trusted library alone (no proxy-seen classes): certificates are
  // emitted and validated against artifact + library only, so every replica
  // reaches the same verdict regardless of what it happened to parse first.
  const ClassEnv* library_env_;
  ClassProvider* origin_;
  FilterPipeline pipeline_;
  RewriteCache cache_;
  CodeSigner signer_;
  AuditRing audit_;
  SingleFlightGroup flights_;

  // Classes synthesized by filters (e.g. "$cold" splits): servable on demand
  // without going to the origin, independent of the LRU cache. The mutex
  // also makes a rewrite's publish (generation check, generated_ insert,
  // cache Put) one step against InvalidateCache's clear.
  std::mutex generated_mu_;
  std::map<std::string, Bytes> generated_;

  // Held only around served_observer_ calls.
  std::mutex observer_mu_;
  std::function<void(const std::string&, const Bytes&)> served_observer_;
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> total_cpu_nanos_{0};

  // Replication / staleness state. cache_generation_ advances on every
  // invalidation; a rewrite samples it at entry and publishes only if it is
  // unchanged at install time.
  std::atomic<uint64_t> policy_epoch_{0};
  std::atomic<uint64_t> cache_generation_{0};
  std::atomic<uint64_t> replicated_installs_{0};

  StatsRegistry stats_;
  StatCounter& c_connection_nanos_;
  StatCounter& c_parse_nanos_;
  StatCounter& c_filter_nanos_;
  StatCounter& c_emit_nanos_;
  StatCounter& c_sign_nanos_;
  StatCounter& c_coalesced_;
  StatCounter& c_rewrites_;
  StatCounter& c_generated_hits_;
  StatCounter& c_lock_acquisitions_;
  StatCounter& c_stale_rewrite_skips_;
  StatCounter& c_cert_emits_;
  StatCounter& c_cert_emit_checks_;
  StatCounter& c_cert_emit_failures_;
  StatCounter& c_cert_validations_;
  StatCounter& c_cert_validate_checks_;
  StatCounter& c_cert_rejects_;
  StatCounter& c_cert_missing_;
  Histogram& h_request_cpu_nanos_;
};

}  // namespace dvm

#endif  // SRC_PROXY_PROXY_H_
