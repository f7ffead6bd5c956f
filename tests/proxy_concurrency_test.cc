// Multi-threaded coverage for the concurrent proxy request path: the sharded
// rewrite cache under mixed hit/miss/invalidate traffic, single-flight miss
// coalescing (pipeline runs exactly once per key), misses on distinct keys
// running in parallel (overlap, a rewrite that resolves only its own class
// and the library, artifacts byte-equal whatever the request order, history
// or thread count, the publish gate), the bounded audit ring, the
// generated-class invalidation regression, and a whole DvmServer called from
// plain threads (DvmServerThreadsTest: served bytes and the console's
// code-version inventory). The CI ThreadSanitizer and AddressSanitizer jobs
// run this binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/dvm/dvm.h"
#include "src/policy/xml.h"
#include "src/proxy/proxy.h"
#include "src/runtime/syslib.h"
#include "src/services/verify_service.h"
#include "src/support/hash.h"
#include "src/support/md5.h"
#include "src/workloads/apps.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

ClassFile TrivialApp(const std::string& name) {
  ClassBuilder cb(name, "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V");
  m.PushString("ran").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  return MustBuild(cb);
}

// A class whose certificate proof takes long next to the rest of its miss:
// one long straight-line method.
ClassFile LongProofApp(const std::string& name) {
  ClassBuilder cb(name, "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V");
  for (int i = 0; i < 2000; i++) {
    m.PushInt(i).Emit(Op::kPop);
  }
  m.Emit(Op::kReturn);
  return MustBuild(cb);
}

// Manually opened latch: lets a test hold the filter pipeline inside Apply()
// so concurrent requests for the same key demonstrably pile up behind the
// single-flight leader.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void WaitOpen() {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

// Bound on every wait for another thread inside a filter: a rewrite path that
// serializes misses fails these tests on a timeout instead of hanging them.
constexpr auto kMeetTimeout = std::chrono::seconds(10);

// Cyclic barrier for `parties` threads inside concurrent rewrites.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}

  // False when the other parties did not arrive within kMeetTimeout.
  bool Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t round = round_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      round_++;
      cv_.notify_all();
      return true;
    }
    return cv_.wait_for(lock, kMeetTimeout, [&] { return round_ != round; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  uint64_t round_ = 0;
};

// Counts pipeline executions per class; optionally blocks on a gate.
class CountingFilter : public CodeFilter {
 public:
  explicit CountingFilter(Gate* gate = nullptr) : gate_(gate) {}
  std::string name() const override { return "counting"; }

  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    runs_.fetch_add(1);
    if (gate_ != nullptr) {
      gate_->WaitOpen();
    }
    FilterOutcome outcome;
    outcome.checks_performed = 1;
    return outcome;
  }

  int runs() const { return runs_.load(); }

 private:
  Gate* gate_;
  mutable std::atomic<int> runs_{0};  // a test probe, not per-request state
};

// Synthesizes a "$cold" companion class for one parent, like the
// repartitioning optimizer does.
class SplitterFilter : public CodeFilter {
 public:
  explicit SplitterFilter(std::string parent) : parent_(std::move(parent)) {}
  std::string name() const override { return "splitter"; }

  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    FilterOutcome outcome;
    if (cls.name() == parent_) {
      ClassBuilder cb(parent_ + "$cold", "java/lang/Object");
      outcome.extra_classes.push_back(MustBuild(cb));
      outcome.modified = true;
      outcome.checks_performed = 1;
    }
    return outcome;
  }

 private:
  std::string parent_;
};

// Every rewrite meets the others at the barrier inside Apply.
class MeetingFilter : public CodeFilter {
 public:
  MeetingFilter(Barrier* barrier, std::atomic<int>* timeouts)
      : barrier_(barrier), timeouts_(timeouts) {}
  std::string name() const override { return "meeting"; }

  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    if (!barrier_->Arrive()) {
      timeouts_->fetch_add(1);
    }
    return FilterOutcome{};
  }

 private:
  Barrier* barrier_;
  std::atomic<int>* timeouts_;
};

// Resolves another application class, its own class and a library class
// through the rewrite's environment, and records every answer that is not,
// respectively: absent, the class being filtered, the library's copy.
class EnvProbeFilter : public CodeFilter {
 public:
  EnvProbeFilter(std::string other, const ClassEnv* library, std::vector<std::string>* failures)
      : other_(std::move(other)), library_(library), failures_(failures) {}
  std::string name() const override { return "env-probe"; }

  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    if (cls.name() == other_) {
      return FilterOutcome{};
    }
    const std::string object = "java/lang/Object";
    if (ctx.env->Lookup(other_) != nullptr) {
      failures_->push_back(cls.name() + " resolved " + other_);
    }
    if (ctx.env->Lookup(cls.name()) != &cls) {
      failures_->push_back(cls.name() + " did not resolve to itself");
    }
    if (ctx.env->Lookup(object) == nullptr || ctx.env->Lookup(object) != library_->Lookup(object)) {
      failures_->push_back(cls.name() + " did not resolve the library's " + object);
    }
    return FilterOutcome{};
  }

 private:
  std::string other_;
  const ClassEnv* library_;
  std::vector<std::string>* failures_;
};

constexpr const char* kConfigAttr = "test.ConfigVersion";

// Stamps the service-configuration version current when it runs into the
// class and into a synthesized "$cfg" companion.
class ConfigStampFilter : public CodeFilter {
 public:
  explicit ConfigStampFilter(const std::atomic<uint64_t>* version) : version_(version) {}
  std::string name() const override { return "config-stamp"; }

  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    ByteWriter w;
    w.U64(version_->load());
    FilterOutcome outcome;
    ClassBuilder cb(cls.name() + "$cfg", "java/lang/Object");
    DVM_ASSIGN_OR_RETURN(ClassFile companion, cb.Build());
    companion.SetAttribute(kConfigAttr, w.bytes());
    cls.SetAttribute(kConfigAttr, w.Take());
    outcome.extra_classes.push_back(std::move(companion));
    outcome.modified = true;
    return outcome;
  }

 private:
  const std::atomic<uint64_t>* version_;
};

uint64_t ConfigVersionOf(const Bytes& class_bytes) {
  Result<ClassFile> cls = ReadClassFile(class_bytes);
  EXPECT_TRUE(cls.ok());
  const Attribute* attr = cls.ok() ? cls->FindAttribute(kConfigAttr) : nullptr;
  EXPECT_NE(attr, nullptr);
  if (attr == nullptr) {
    return 0;
  }
  ByteReader r(attr->data);
  Result<uint64_t> version = r.U64();
  EXPECT_TRUE(version.ok());
  return version.ok() ? version.value() : 0;
}

class ProxyConcurrencyTest : public ::testing::Test {
 protected:
  ProxyConcurrencyTest() : library_(BuildSystemLibrary()) {
    for (const auto& cls : library_) {
      library_env_.Add(&cls);
    }
    for (int i = 0; i < kNumClasses; i++) {
      origin_.AddClassFile(TrivialApp(ClassName(i)));
    }
  }

  static std::string ClassName(int i) { return "app/Cls" + std::to_string(i); }

  static constexpr int kNumClasses = 16;
  std::vector<ClassFile> library_;
  MapClassEnv library_env_;
  MapClassProvider origin_;
};

TEST_F(ProxyConcurrencyTest, SingleFlightRunsPipelineOncePerKey) {
  DvmProxy proxy(ProxyConfig{}, &library_env_, &origin_);
  Gate gate;
  auto counting = std::make_unique<CountingFilter>(&gate);
  CountingFilter* counter = counting.get();
  proxy.AddFilter(std::move(counting));

  // Leader enters the pipeline and parks on the gate.
  std::thread leader([&] { ASSERT_TRUE(proxy.HandleRequest(ClassName(0)).ok()); });
  while (gate.entered.load() == 0) {
    std::this_thread::yield();
  }

  // Followers on the same key must coalesce behind the in-flight rewrite.
  constexpr int kFollowers = 7;
  std::vector<std::thread> followers;
  std::atomic<int> follower_hits{0};
  for (int i = 0; i < kFollowers; i++) {
    followers.emplace_back([&] {
      auto response = proxy.HandleRequest(ClassName(0));
      ASSERT_TRUE(response.ok());
      if (response->cache_hit) {
        follower_hits.fetch_add(1);
      }
    });
  }
  // Give the followers time to reach the single-flight wait, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Open();
  leader.join();
  for (auto& t : followers) {
    t.join();
  }

  // The expensive pipeline ran exactly once; everyone else was served the
  // leader's result from the cache.
  EXPECT_EQ(counter->runs(), 1);
  EXPECT_EQ(follower_hits.load(), kFollowers);
  EXPECT_GE(proxy.coalesced_requests(), 1u);
  EXPECT_GE(proxy.stats().Value("proxy.coalesced"), 1u);
  EXPECT_EQ(proxy.stats().Value("proxy.rewrites"), 1u);
}

TEST_F(ProxyConcurrencyTest, StressMixedHitMissInvalidateStaysWithinBudget) {
  ProxyConfig config;
  config.cache_capacity_bytes = 16 * 1024;
  config.audit_trail_capacity = 256;
  DvmProxy proxy(config, &library_env_, &origin_);
  auto counting = std::make_unique<CountingFilter>();
  proxy.AddFilter(std::move(counting));

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        int pick = (i * 31 + t * 7) % kNumClasses;
        auto response = proxy.HandleRequest(ClassName(pick));
        if (!response.ok()) {
          failures.fetch_add(1);
        }
        if (t == 0 && i % 67 == 66) {
          proxy.InvalidateCache();
        }
        if (i % 50 == 0) {
          // Concurrent readers of the aggregated accounting must be safe.
          (void)proxy.MemoryInUse(kThreads);
          (void)proxy.audit_trail();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(proxy.requests_served(), static_cast<uint64_t>(kThreads * kOpsPerThread));
  // The sharded cache never exceeds its byte budget, globally or per shard.
  EXPECT_LE(proxy.cache().size_bytes(), config.cache_capacity_bytes);
  for (const auto& shard : proxy.cache().PerShardStats()) {
    EXPECT_LE(shard.bytes, config.cache_capacity_bytes / RewriteCache::kShards);
  }
  // The audit ring respected its cap.
  EXPECT_LE(proxy.audit_trail().size(), config.audit_trail_capacity);
  // Accounting is consistent: every request either hit, coalesced, was
  // rewritten, or was re-served after an invalidation.
  EXPECT_GT(proxy.cache().hits(), 0u);
  EXPECT_GT(proxy.stats().Value("proxy.rewrites"), 0u);
  EXPECT_GT(proxy.stats().Value("proxy.lock_acquisitions"), 0u);
}

TEST_F(ProxyConcurrencyTest, InvalidateCacheDropsGeneratedClasses) {
  DvmProxy proxy(ProxyConfig{}, &library_env_, &origin_);
  proxy.AddFilter(std::make_unique<SplitterFilter>(ClassName(0)));

  // The parent's rewrite publishes the synthesized cold half.
  auto parent = proxy.HandleRequest(ClassName(0));
  ASSERT_TRUE(parent.ok());
  ASSERT_EQ(parent->extra_classes.size(), 1u);
  ASSERT_TRUE(proxy.HandleRequest(ClassName(0) + "$cold").ok());

  // Regression: InvalidateCache used to clear only the LRU cache, so the
  // synthesized class kept being served under the old service configuration.
  proxy.InvalidateCache();
  auto stale = proxy.HandleRequest(ClassName(0) + "$cold");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, ErrorCode::kNotFound);

  // Re-rewriting the parent republishes the split.
  ASSERT_TRUE(proxy.HandleRequest(ClassName(0)).ok());
  EXPECT_TRUE(proxy.HandleRequest(ClassName(0) + "$cold").ok());
}

TEST_F(ProxyConcurrencyTest, InvalidateDuringInFlightRewriteRefusesToPublish) {
  DvmProxy proxy(ProxyConfig{}, &library_env_, &origin_);
  Gate gate;
  auto counting = std::make_unique<CountingFilter>(&gate);
  CountingFilter* counter = counting.get();
  proxy.AddFilter(std::move(counting));
  proxy.AddFilter(std::make_unique<SplitterFilter>(ClassName(0)));

  // Leader samples the cache generation, then parks inside the pipeline.
  std::thread leader([&] {
    auto response = proxy.HandleRequest(ClassName(0));
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->data.empty());
  });
  while (gate.entered.load() == 0) {
    std::this_thread::yield();
  }

  // A policy change lands while the rewrite is in flight.
  proxy.InvalidateCache();
  gate.Open();
  leader.join();

  // Regression: the finished rewrite used to repopulate the cache — and the
  // synthesized-class map — with artifacts instrumented under the *old*
  // configuration. The publish gate now sees the moved generation and keeps
  // them out of every shared structure; the requester still gets its bytes,
  // stamped with their true (stale) epoch.
  EXPECT_EQ(proxy.stats().Value("proxy.stale_rewrite_skips"), 1u);
  EXPECT_EQ(proxy.cache().entries(), 0u);
  auto stale_cold = proxy.HandleRequest(ClassName(0) + "$cold");
  ASSERT_FALSE(stale_cold.ok());
  EXPECT_EQ(stale_cold.error().code, ErrorCode::kNotFound);

  // The next request re-runs the pipeline under the new configuration and
  // publishes normally.
  auto fresh = proxy.HandleRequest(ClassName(0));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cache_hit);
  EXPECT_EQ(counter->runs(), 2);
  EXPECT_EQ(proxy.cache().entries(), 1u);
  EXPECT_TRUE(proxy.HandleRequest(ClassName(0) + "$cold").ok());
}

TEST_F(ProxyConcurrencyTest, MissesOnDistinctKeysOverlap) {
  DvmProxy proxy(ProxyConfig{}, &library_env_, &origin_);
  constexpr int kMisses = 3;
  Barrier barrier(kMisses);
  std::atomic<int> timeouts{0};
  proxy.AddFilter(std::make_unique<MeetingFilter>(&barrier, &timeouts));

  // All three misses must be inside Apply at once: the whole rewrite path,
  // filters included, runs in parallel.
  std::vector<std::thread> threads;
  for (int i = 0; i < kMisses; i++) {
    threads.emplace_back([&, i] { EXPECT_TRUE(proxy.HandleRequest(ClassName(i)).ok()); });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(proxy.stats().Value("proxy.rewrites"), static_cast<uint64_t>(kMisses));
  EXPECT_EQ(proxy.cache().entries(), static_cast<size_t>(kMisses));
}

// A rewrite resolves its own class and the trusted library, and nothing the
// proxy served before: not even a class served earlier and served again
// after an invalidation.
TEST_F(ProxyConcurrencyTest, RewriteSeesOnlyItsClassAndTheLibrary) {
  DvmProxy proxy(ProxyConfig{}, &library_env_, &origin_);
  const std::string holder = ClassName(0);
  const std::string other = ClassName(1);
  std::vector<std::string> failures;
  proxy.AddFilter(std::make_unique<EnvProbeFilter>(other, &library_env_, &failures));

  ASSERT_TRUE(proxy.HandleRequest(other).ok());
  ASSERT_TRUE(proxy.HandleRequest(holder).ok());
  proxy.InvalidateCache();
  ASSERT_TRUE(proxy.HandleRequest(other).ok());
  ASSERT_TRUE(proxy.HandleRequest(holder).ok());

  EXPECT_EQ(proxy.stats().Value("proxy.rewrites"), 4u);
  EXPECT_EQ(failures, std::vector<std::string>{});
}

TEST_F(ProxyConcurrencyTest, PublishGateKeepsRetiredConfigurationsOut) {
  MapClassProvider origin;
  for (int i = 0; i < kNumClasses; i++) {
    origin.AddClassFile(LongProofApp(ClassName(i)));
  }
  DvmProxy proxy(ProxyConfig{}, &library_env_, &origin);
  std::atomic<uint64_t> version{1};
  proxy.AddFilter(std::make_unique<ConfigStampFilter>(&version));

  // Each round, three workers miss on every class while one configuration
  // change lands among the misses: the version the filter stamps is bumped,
  // then the cache invalidated, as a policy update does. Most of each miss
  // is its certificate proof, so the change often lands during one. A
  // rewrite that published an old-version artifact after the invalidation's
  // clear would survive the round as a cache hit.
  constexpr int kRounds = 40;
  constexpr int kWorkers = 3;
  for (int round = 0; round < kRounds; round++) {
    proxy.InvalidateCache();  // every request of the round starts as a miss
    std::atomic<int> started{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; w++) {
      workers.emplace_back([&, w] {
        started.fetch_add(1);
        for (int i = 0; i < kNumClasses; i++) {
          EXPECT_TRUE(proxy.HandleRequest(ClassName((i + w * 5) % kNumClasses)).ok());
        }
      });
    }
    while (started.load() < kWorkers) {
      std::this_thread::yield();
    }
    // Land the change at a different point among the misses each round.
    std::this_thread::sleep_for(std::chrono::microseconds(25 * (round % 8)));
    version.fetch_add(1);
    proxy.InvalidateCache();
    for (auto& t : workers) {
      t.join();
    }

    // Quiescent: every cached artifact and every servable companion carries
    // the configuration of the last invalidation.
    const uint64_t current = version.load();
    for (int i = 0; i < kNumClasses; i++) {
      std::optional<CachedClass> cached =
          proxy.cache().Peek(DvmProxy::RewriteCacheKey(ClassName(i), ""));
      if (cached.has_value()) {
        ASSERT_EQ(ConfigVersionOf(cached->main_class), current) << ClassName(i);
      }
      auto companion = proxy.HandleRequest(ClassName(i) + "$cfg");
      if (companion.ok()) {
        ASSERT_EQ(ConfigVersionOf(companion->data), current) << ClassName(i);
      }
    }
  }
}

TEST_F(ProxyConcurrencyTest, AuditRingIsBoundedAndCountsDrops) {
  ProxyConfig config;
  config.audit_trail_capacity = 8;
  DvmProxy proxy(config, &library_env_, &origin_);

  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(proxy.HandleRequest(ClassName(i % kNumClasses)).ok());
  }
  EXPECT_LE(proxy.audit_trail().size(), 8u);
  EXPECT_EQ(proxy.audit_ring().dropped(), 12u);
  // The ring keeps the newest entries.
  std::vector<std::string> trail = proxy.audit_trail();
  ASSERT_FALSE(trail.empty());
  EXPECT_EQ(trail.back(), "HIT " + ClassName(19 % kNumClasses));
}

// Serves `names` from `num_threads` plain threads sharing one cursor, the way
// any multi-threaded front end calls the proxy: the server has no threads of
// its own. Responses come back in `names` order.
std::vector<Result<ProxyResponse>> FetchOnThreads(DvmProxy& proxy,
                                                  const std::vector<std::string>& names,
                                                  int num_threads) {
  std::vector<std::optional<Result<ProxyResponse>>> served(names.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; t++) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < names.size(); i = next.fetch_add(1)) {
        served[i].emplace(proxy.HandleRequest(names[i]));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::vector<Result<ProxyResponse>> responses;
  responses.reserve(names.size());
  for (std::optional<Result<ProxyResponse>>& response : served) {
    responses.push_back(std::move(*response));
  }
  return responses;
}

TEST(DvmServerThreadsTest, ThreadsServeManyClientsConcurrently) {
  MapClassProvider origin;
  for (int i = 0; i < 8; i++) {
    origin.AddClassFile(TrivialApp("app/Threads" + std::to_string(i)));
  }
  DvmServerConfig config;
  config.policy = *ParseSecurityPolicy(R"(
      <policy version="1">
        <domain sid="user" code="app/*"/>
        <allow sid="user" operation="*" target="*"/>
      </policy>)");
  DvmServer server(std::move(config), &origin);

  std::vector<std::string> requests;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; round++) {
    for (int i = 0; i < 8; i++) {
      requests.push_back("app/Threads" + std::to_string(i));
    }
  }
  int hits = 0;
  for (const Result<ProxyResponse>& response : FetchOnThreads(server.proxy(), requests, 4)) {
    ASSERT_TRUE(response.ok()) << response.error().ToString();
    hits += response->cache_hit ? 1 : 0;
  }
  EXPECT_EQ(server.proxy().requests_served(), static_cast<uint64_t>(requests.size()));
  // Every class was rewritten exactly once; every other response was served
  // from the cache (directly or after coalescing onto the in-flight rewrite).
  EXPECT_EQ(server.proxy().stats().Value("proxy.rewrites"), 8u);
  EXPECT_EQ(hits, static_cast<int>(requests.size()) - 8);
}

// The Fig. 6 organization policy: every app class in a user domain, with
// enforcement hooks on the library.
SecurityPolicy Fig6Policy() {
  return *ParseSecurityPolicy(R"(
      <policy version="1">
        <domain sid="user" code="app/*"/>
        <allow sid="user" operation="*" target="*"/>
        <hook class="java/io/File" method="open" operation="file.open" target-arg="0"/>
        <hook class="java/lang/System" method="getProperty" operation="property.get"/>
      </policy>)");
}

// A served artifact is a function of its declared inputs (origin bytes,
// trusted library, policy, configuration, platform), never of request history
// or thread interleaving: the proxy verifies each class against itself and the
// library only. The 400 Fig. 5 classes are fetched from Fig. 6 servers four
// ways: forward on a cold proxy (the reference), reversed on a cold proxy, on
// the reference proxy again from three threads once it has served the whole
// application, and from three threads on a cold proxy. Every artifact,
// companion set and certificate must match, at a pinned digest.
TEST(DvmServerThreadsTest, ConcurrentMissesMatchSequentialArtifacts) {
  MapClassProvider origin;
  std::vector<std::string> names;
  for (const AppBundle& app : BuildFig5Apps()) {
    app.InstallInto(&origin);
    for (std::string& name : app.ClassNames()) {
      names.push_back(std::move(name));
    }
  }
  ASSERT_EQ(names.size(), 400u);
  // Fig. 6 stack: reflection, verification, security, audit, and the
  // console's code-version observer.
  auto cold_server = [&origin] {
    DvmServerConfig config;
    config.policy = Fig6Policy();
    return std::make_unique<DvmServer>(std::move(config), &origin);
  };
  auto key = [](const std::string& name) { return DvmProxy::RewriteCacheKey(name, ""); };
  auto fetch_in_order = [](DvmProxy& proxy, const std::vector<std::string>& order) {
    for (const std::string& name : order) {
      ASSERT_TRUE(proxy.HandleRequest(name).ok()) << name;
    }
  };
  // Requests every class from three threads; each is a miss.
  auto fetch_on_three_threads = [&names](DvmServer& server) {
    std::vector<Result<ProxyResponse>> responses = FetchOnThreads(server.proxy(), names, 3);
    for (size_t i = 0; i < names.size(); i++) {
      ASSERT_TRUE(responses[i].ok()) << names[i];
      EXPECT_FALSE(responses[i]->cache_hit) << names[i];
    }
  };
  // What the proxy cached for every class: artifact, companions, certificate.
  auto served = [&](const DvmProxy& proxy) {
    std::map<std::string, CachedClass> cached_by_name;
    for (const std::string& name : names) {
      std::optional<CachedClass> cached = proxy.cache().Peek(key(name));
      EXPECT_TRUE(cached.has_value()) << name;
      if (cached.has_value()) {
        cached_by_name[name] = std::move(*cached);
      }
    }
    return cached_by_name;
  };

  // Forward order on a cold proxy: the reference.
  std::unique_ptr<DvmServer> server = cold_server();
  DvmProxy& proxy = server->proxy();
  fetch_in_order(proxy, names);
  const std::map<std::string, CachedClass> reference = served(proxy);
  ASSERT_EQ(reference.size(), names.size());
  Bytes artifacts;
  for (const std::string& name : names) {
    const CachedClass& cached = reference.at(name);
    EXPECT_FALSE(cached.certificate.empty()) << name;
    artifacts.insert(artifacts.end(), cached.main_class.begin(), cached.main_class.end());
  }
  // FNV-1a over the 400 artifacts in forward order. A cold proxy fetching in
  // forward order served these same bytes back when a rewrite could still
  // resolve classes the proxy had served before.
  EXPECT_EQ(artifacts.size(), 1'765'364u);
  EXPECT_EQ(Fnv1a(artifacts.data(), artifacts.size()), 0x26a34150131e28aaULL);

  // Classes whose artifact, companions and certificate all equal the
  // reference's.
  auto matching = [&](const std::map<std::string, CachedClass>& got, const char* way) {
    size_t equal = 0;
    for (const std::string& name : names) {
      auto have = got.find(name);
      if (have == got.end()) {
        continue;
      }
      const CachedClass& want = reference.at(name);
      const bool same = want.main_class == have->second.main_class &&
                        want.extra_classes == have->second.extra_classes &&
                        want.certificate == have->second.certificate;
      EXPECT_TRUE(same) << way << ": " << name;
      equal += same ? 1 : 0;
    }
    return equal;
  };

  // Reversed order on a cold proxy.
  std::unique_ptr<DvmServer> backward = cold_server();
  fetch_in_order(backward->proxy(), std::vector<std::string>(names.rbegin(), names.rend()));
  EXPECT_EQ(matching(served(backward->proxy()), "reversed"), names.size());

  // The reference proxy again, after it served the whole application, from
  // three threads.
  proxy.InvalidateCache();
  const uint64_t version_changes = server->console().code_version_changes();
  fetch_on_three_threads(*server);
  EXPECT_EQ(matching(served(proxy), "primed, 3 threads"), names.size());
  for (const std::string& name : names) {
    // The observer saw every served version, and each was the same bytes.
    EXPECT_EQ(server->console().code_versions().at(name),
              Md5::ToHex(Md5::Hash(reference.at(name).main_class)))
        << name;
  }
  EXPECT_EQ(server->console().code_version_changes(), version_changes);

  // Three threads on a cold proxy: misses overlap in any order.
  std::unique_ptr<DvmServer> threaded = cold_server();
  fetch_on_three_threads(*threaded);
  EXPECT_EQ(matching(served(threaded->proxy()), "cold, 3 threads"), names.size());

  for (DvmServer* each : {server.get(), backward.get(), threaded.get()}) {
    EXPECT_EQ(each->proxy().stats().Value("proxy.cert_emit_failures"), 0u);
  }
}

// The console's code-version inventory for the Fig. 6 fetches: every Fig. 5
// class served cold from three threads, then again after a policy
// update hooks every app's `main`, which changes the rewrite of the classes
// declaring one. The digests the served-code observer records, and the
// code-version-change events it raises, are pinned.
TEST(DvmServerThreadsTest, CodeVersionInventoryIsPinned) {
  MapClassProvider origin;
  std::vector<std::string> names;
  for (const AppBundle& app : BuildFig5Apps()) {
    app.InstallInto(&origin);
    for (std::string& name : app.ClassNames()) {
      names.push_back(std::move(name));
    }
  }
  DvmServerConfig config;
  config.policy = Fig6Policy();
  DvmServer server(std::move(config), &origin);
  auto fetch_all = [&] {
    std::vector<Result<ProxyResponse>> responses = FetchOnThreads(server.proxy(), names, 3);
    for (size_t i = 0; i < names.size(); i++) {
      ASSERT_TRUE(responses[i].ok()) << names[i];
    }
  };
  auto inventory = [&server] {
    std::string text;
    for (const auto& [name, digest] : server.console().code_versions()) {
      text += name + "=" + digest + "\n";
    }
    return Fnv1a(text);
  };

  fetch_all();
  EXPECT_EQ(server.console().code_versions().size(), names.size());
  EXPECT_EQ(inventory(), 0x23bd5b8cad33dde6ULL);
  EXPECT_EQ(server.console().code_version_changes(), 0u);

  SecurityPolicy hooked = Fig6Policy();
  SecurityHook hook;
  hook.class_pattern = "*";
  hook.method_pattern = "main";
  hook.operation = "app.run";
  hooked.hooks.push_back(hook);
  server.UpdateSecurityPolicy(std::move(hooked));
  fetch_all();
  EXPECT_EQ(inventory(), 0xfd5f285099a25ef4ULL);
  // In any order: three threads serve the second round in parallel.
  std::set<std::string> changes;
  for (const AuditEvent& event : server.console().log()) {
    if (event.kind == "code-version-change") {
      changes.insert(event.detail);
    }
  }
  EXPECT_EQ(server.console().code_version_changes(), 5u);
  EXPECT_EQ(changes, (std::set<std::string>{"app/cassowary/Main 0b867d36 -> 7c3a0849",
                                            "app/instantdb/Main b036781b -> 6f062da7",
                                            "app/javacup/Main 5992c138 -> 27089fa7",
                                            "app/jlex/Main 4e794185 -> d56432e8",
                                            "app/pizza/Main a4765a5c -> 97f945c3"}));
}

}  // namespace
}  // namespace dvm
