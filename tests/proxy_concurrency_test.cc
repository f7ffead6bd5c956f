// Multi-threaded coverage for the concurrent proxy request path: the sharded
// rewrite cache under mixed hit/miss/invalidate traffic, single-flight miss
// coalescing (pipeline runs exactly once per key), misses on distinct keys
// running in parallel (overlap, a stable per-rewrite view of the seen
// classes, seen entries kept alive across replacement, concurrent artifacts
// byte-equal to sequential ones, the publish gate), the bounded audit ring,
// the generated-class invalidation regression, and the server worker pool.
// The CI ThreadSanitizer and AddressSanitizer jobs run this binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
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

// Looks up its own class in the environment, meets the concurrent rewrite of
// the same class for the other platform (whose SeenEnv Add replaced the entry
// in between), then reads the class it was handed.
class SelfLookupFilter : public CodeFilter {
 public:
  SelfLookupFilter(Barrier* barrier, std::atomic<int>* failures)
      : barrier_(barrier), failures_(failures) {}
  std::string name() const override { return "self-lookup"; }

  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    const ClassFile* seen = ctx.env->Lookup(cls.name());
    if (!barrier_->Arrive() || seen == nullptr || seen->name() != cls.name() ||
        seen->methods.size() != cls.methods.size()) {
      failures_->fetch_add(1);
    }
    return FilterOutcome{};
  }

 private:
  Barrier* barrier_;
  std::atomic<int>* failures_;
};

// The two Lookups of `target` one rewrite of `holder` makes, with a
// concurrent miss adding `target` to SeenEnv in between.
struct ViewProbe {
  std::mutex mu;
  std::condition_variable cv;
  bool block = true;
  bool looked = false;
  bool added = false;
  std::vector<std::pair<const ClassFile*, const ClassFile*>> answers;
};

class TwoLookupsFilter : public CodeFilter {
 public:
  TwoLookupsFilter(std::string holder, std::string target, ViewProbe* probe)
      : holder_(std::move(holder)), target_(std::move(target)), probe_(probe) {}
  std::string name() const override { return "two-lookups"; }

  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    if (cls.name() != holder_) {
      return FilterOutcome{};
    }
    const ClassFile* first = ctx.env->Lookup(target_);
    {
      std::unique_lock<std::mutex> lock(probe_->mu);
      probe_->looked = true;
      probe_->cv.notify_all();
      if (probe_->block) {
        probe_->cv.wait_for(lock, kMeetTimeout, [&] { return probe_->added; });
      }
    }
    const ClassFile* second = ctx.env->Lookup(target_);
    std::lock_guard<std::mutex> lock(probe_->mu);
    probe_->answers.emplace_back(first, second);
    return FilterOutcome{};
  }

 private:
  std::string holder_;
  std::string target_;
  ViewProbe* probe_;
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
  config.cache_shards = 8;
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
    EXPECT_LE(shard.bytes, config.cache_capacity_bytes / config.cache_shards);
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

TEST_F(ProxyConcurrencyTest, RewriteSeesOneStableViewOfSeenClasses) {
  DvmProxy proxy(ProxyConfig{}, &library_env_, &origin_);
  const std::string holder = ClassName(0);
  const std::string target = ClassName(1);
  ViewProbe probe;
  proxy.AddFilter(std::make_unique<TwoLookupsFilter>(holder, target, &probe));

  // The holder's rewrite looks the target up (not yet seen), then blocks.
  std::thread rewrite([&] { EXPECT_TRUE(proxy.HandleRequest(holder).ok()); });
  {
    std::unique_lock<std::mutex> lock(probe.mu);
    ASSERT_TRUE(probe.cv.wait_for(lock, kMeetTimeout, [&] { return probe.looked; }));
  }
  // Another miss adds the target to SeenEnv meanwhile.
  EXPECT_TRUE(proxy.HandleRequest(target).ok());
  {
    std::lock_guard<std::mutex> lock(probe.mu);
    probe.added = true;
    probe.block = false;
  }
  probe.cv.notify_all();
  rewrite.join();

  // Within one rewrite the first answer held.
  ASSERT_EQ(probe.answers.size(), 1u);
  EXPECT_EQ(probe.answers[0].first, nullptr);
  EXPECT_EQ(probe.answers[0].second, nullptr);

  // The next rewrite of the holder sees the target.
  proxy.InvalidateCache();
  ASSERT_TRUE(proxy.HandleRequest(holder).ok());
  ASSERT_EQ(probe.answers.size(), 2u);
  EXPECT_NE(probe.answers[1].first, nullptr);
  EXPECT_EQ(probe.answers[1].first, probe.answers[1].second);
}

TEST_F(ProxyConcurrencyTest, SeenEntriesOutliveConcurrentReplacement) {
  DvmProxy proxy(ProxyConfig{}, &library_env_, &origin_);
  Barrier barrier(2);
  std::atomic<int> failures{0};
  proxy.AddFilter(std::make_unique<SelfLookupFilter>(&barrier, &failures));

  // Each round, one class is rewritten for two platform keys at once. Both
  // rewrites Add it to SeenEnv before either reads the entry it looked up,
  // so one of them always reads a replaced entry.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < kNumClasses; i++) {
      std::thread alpha([&] { EXPECT_TRUE(proxy.HandleRequest(ClassName(i), "alpha").ok()); });
      EXPECT_TRUE(proxy.HandleRequest(ClassName(i), "x86").ok());
      alpha.join();
      ASSERT_EQ(failures.load(), 0) << ClassName(i);
    }
    proxy.InvalidateCache();
  }
  EXPECT_EQ(proxy.stats().Value("proxy.rewrites"), 3u * 2u * kNumClasses);
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

TEST(DvmServerAsyncTest, WorkerPoolServesManyClientsConcurrently) {
  MapClassProvider origin;
  for (int i = 0; i < 8; i++) {
    origin.AddClassFile(TrivialApp("app/Async" + std::to_string(i)));
  }
  DvmServerConfig config;
  config.policy = *ParseSecurityPolicy(R"(
      <policy version="1">
        <domain sid="user" code="app/*"/>
        <allow sid="user" operation="*" target="*"/>
      </policy>)");
  config.proxy_worker_threads = 4;
  DvmServer server(std::move(config), &origin);
  ASSERT_NE(server.workers(), nullptr);
  EXPECT_EQ(server.workers()->size(), 4u);

  std::vector<std::future<Result<ProxyResponse>>> futures;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; round++) {
    for (int i = 0; i < 8; i++) {
      futures.push_back(server.HandleRequestAsync("app/Async" + std::to_string(i)));
    }
  }
  int hits = 0;
  for (auto& f : futures) {
    auto response = f.get();
    ASSERT_TRUE(response.ok()) << response.error().ToString();
    hits += response->cache_hit ? 1 : 0;
  }
  EXPECT_EQ(server.proxy().requests_served(), static_cast<uint64_t>(futures.size()));
  // f.get() returns when the promise is set, which precedes the worker's own
  // bookkeeping; Drain() waits for the pool to go quiescent.
  server.workers()->Drain();
  EXPECT_EQ(server.workers()->tasks_executed(), futures.size());
  // Every class was rewritten exactly once; every other response was served
  // from the cache (directly or after coalescing onto the in-flight rewrite).
  EXPECT_EQ(server.proxy().stats().Value("proxy.rewrites"), 8u);
  EXPECT_EQ(hits, static_cast<int>(futures.size()) - 8);

  // The synchronous fallback (no pool) still works and returns ready futures.
  server.StartWorkers(0);
  EXPECT_EQ(server.workers(), nullptr);
  auto inline_response = server.HandleRequestAsync("app/Async0").get();
  ASSERT_TRUE(inline_response.ok());
  EXPECT_TRUE(inline_response->cache_hit);
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

TEST(DvmServerAsyncTest, ConcurrentMissesMatchSequentialArtifacts) {
  MapClassProvider origin;
  std::vector<std::string> names;
  for (const AppBundle& app : BuildFig5Apps()) {
    app.InstallInto(&origin);
    for (std::string& name : app.ClassNames()) {
      names.push_back(std::move(name));
    }
  }
  // Fig. 6 stack: reflection, verification, security, audit, and the
  // console's code-version observer.
  DvmServerConfig config;
  config.policy = Fig6Policy();
  DvmServer server(std::move(config), &origin);
  DvmProxy& proxy = server.proxy();
  auto key = [](const std::string& name) { return DvmProxy::RewriteCacheKey(name, ""); };

  // Prime: after one pass SeenEnv holds the whole population, so every later
  // rewrite verifies against the same environment whatever the order.
  for (const std::string& name : names) {
    ASSERT_TRUE(proxy.HandleRequest(name).ok()) << name;
  }

  // Reference: one thread.
  proxy.InvalidateCache();
  std::map<std::string, CachedClass> sequential;
  for (const std::string& name : names) {
    ASSERT_TRUE(proxy.HandleRequest(name).ok()) << name;
    std::optional<CachedClass> cached = proxy.cache().Peek(key(name));
    ASSERT_TRUE(cached.has_value()) << name;
    sequential[name] = std::move(*cached);
  }

  // The same misses from three worker threads.
  proxy.InvalidateCache();
  const uint64_t version_changes = server.console().code_version_changes();
  server.StartWorkers(3);
  std::vector<std::future<Result<ProxyResponse>>> futures;
  for (const std::string& name : names) {
    futures.push_back(server.HandleRequestAsync(name));
  }
  for (size_t i = 0; i < names.size(); i++) {
    Result<ProxyResponse> response = futures[i].get();
    ASSERT_TRUE(response.ok()) << names[i];
    EXPECT_FALSE(response->cache_hit) << names[i];
    EXPECT_EQ(response->data, sequential[names[i]].main_class) << names[i];
  }
  server.workers()->Drain();

  for (const std::string& name : names) {
    std::optional<CachedClass> cached = proxy.cache().Peek(key(name));
    ASSERT_TRUE(cached.has_value()) << name;
    const CachedClass& expected = sequential[name];
    EXPECT_EQ(cached->main_class, expected.main_class) << name;
    EXPECT_EQ(cached->extra_classes, expected.extra_classes) << name;
    EXPECT_FALSE(cached->certificate.empty()) << name;
    EXPECT_EQ(cached->certificate, expected.certificate) << name;
    // The observer saw every served version, and each was the same bytes.
    EXPECT_EQ(server.console().code_versions().at(name),
              Md5::ToHex(Md5::Hash(expected.main_class)))
        << name;
  }
  EXPECT_EQ(server.console().code_version_changes(), version_changes);
  EXPECT_EQ(proxy.stats().Value("proxy.cert_emit_failures"), 0u);
}

}  // namespace
}  // namespace dvm
