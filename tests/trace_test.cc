// The observability layer: virtual-clock span tracing, log-bucketed latency
// histograms, the two exporters, and the end-to-end guarantees the layer
// advertises — deterministic traces for identical seeds, and proxy stage
// spans that account for every nanosecond of ProxyResponse::cpu_nanos.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/dvm/redirect_client.h"
#include "src/runtime/syslib.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/support/trace.h"
#include "src/workloads/applets.h"

namespace dvm {
namespace {

// --- Tracer -----------------------------------------------------------------------

TEST(TracerTest, ParentChildNestingAndTrackInheritance) {
  Tracer tracer;
  SpanId root = tracer.Begin("fetch", /*parent=*/0, 100, "client", /*track=*/3);
  SpanId child = tracer.Begin("attempt", root, 150, "client");
  SpanId leaf = tracer.Emit("queue", child, 150, 175, "link");
  tracer.Annotate(child, "replica", "1");
  tracer.End(child, 400);
  tracer.End(root, 500);

  std::vector<Span> spans = tracer.Finished();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by (start, id): root then child then leaf.
  EXPECT_EQ(spans[0].id, root);
  EXPECT_EQ(spans[1].id, child);
  EXPECT_EQ(spans[2].id, leaf);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, child);
  // track=0 inherits the parent's lane transitively.
  EXPECT_EQ(spans[0].track, 3u);
  EXPECT_EQ(spans[1].track, 3u);
  EXPECT_EQ(spans[2].track, 3u);
  EXPECT_EQ(spans[0].duration_nanos(), 400u);
  ASSERT_EQ(spans[1].annotations.size(), 1u);
  EXPECT_EQ(spans[1].annotations[0].first, "replica");
  EXPECT_EQ(spans[1].annotations[0].second, "1");
}

TEST(TracerTest, EndAndAnnotateOnUnknownIdAreNoOps) {
  Tracer tracer;
  tracer.End(42, 100);
  tracer.Annotate(42, "k", "v");
  EXPECT_EQ(tracer.finished_count(), 0u);
  EXPECT_EQ(tracer.open_count(), 0u);
}

TEST(TracerTest, ThreadedBeginEndKeepsEverySpan) {
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPerThread; i++) {
        uint64_t at = static_cast<uint64_t>(i) * 10;
        SpanId parent = tracer.Begin("outer " + std::to_string(t), 0, at, "test");
        tracer.Emit("inner", parent, at, at + 5, "test");
        tracer.End(parent, at + 9);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  std::vector<Span> spans = tracer.Finished();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  EXPECT_EQ(tracer.open_count(), 0u);
  // Ids are unique, and every child's parent is a real span.
  std::map<SpanId, const Span*> by_id;
  for (const Span& span : spans) {
    EXPECT_TRUE(by_id.emplace(span.id, &span).second) << "duplicate id " << span.id;
  }
  for (const Span& span : spans) {
    if (span.parent != 0) {
      ASSERT_TRUE(by_id.count(span.parent));
      EXPECT_GE(span.start_nanos, by_id[span.parent]->start_nanos);
    }
  }
}

TEST(SpanScopeTest, OpensAndClosesOnClock) {
  Tracer tracer;
  uint64_t now = 1000;
  {
    SpanScope span(&tracer, [&now] { return now; }, "work", 0, "test");
    EXPECT_NE(span.id(), 0u);
    span.Annotate("k", "v");
    now = 1750;
  }
  std::vector<Span> spans = tracer.Finished();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_nanos, 1000u);
  EXPECT_EQ(spans[0].end_nanos, 1750u);

  // Null tracer: every operation is a no-op and id() is 0.
  SpanScope off(nullptr, [] { return uint64_t{0}; }, "off");
  EXPECT_EQ(off.id(), 0u);
  off.Annotate("k", "v");
}

// --- Histogram --------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsGrowAndCover) {
  EXPECT_EQ(Histogram::BucketBound(0), 1u);
  for (size_t i = 1; i < Histogram::kBuckets; i++) {
    EXPECT_GT(Histogram::BucketBound(i), Histogram::BucketBound(i - 1));
  }
  // The top bucket covers any virtual duration the simulation produces
  // (>= 100 virtual seconds in nanos).
  EXPECT_GE(Histogram::BucketBound(Histogram::kBuckets - 1), 100u * 1'000'000'000u);
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 0u);
  EXPECT_EQ(Histogram::BucketFor(2), 1u);
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h;
  h.Record(5);
  h.Record(100);
  h.Record(3);
  Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 108u);
  EXPECT_EQ(snap.min, 3u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 36.0);

  h.Reset();
  snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.Percentile(50), 0.0);
}

// Exact percentiles over stored samples, linearly interpolated between the
// closest ranks: the reference the histogram's estimates are checked against.
class SampleSet {
 public:
  void Add(double x) { samples_.push_back(x); }
  // p in [0, 100].
  double Percentile(double p) const {
    if (samples_.empty()) {
      return 0.0;
    }
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (p <= 0.0) {
      return sorted.front();
    }
    if (p >= 100.0) {
      return sorted.back();
    }
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) {
      return sorted.back();
    }
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  }

 private:
  std::vector<double> samples_;
};

TEST(StatsTest, PercentileInterpolates) {
  SampleSet s;
  for (int i = 1; i <= 100; i++) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
}

// Quantile accuracy against the exact SampleSet on a heavy-tailed workload:
// the log-bucketed estimate must land within one bucket width of the truth.
TEST(HistogramTest, PercentilesMatchSampleSetWithinOneBucket) {
  Rng rng(1234);
  Histogram h;
  SampleSet exact;
  for (int i = 0; i < 10'000; i++) {
    uint64_t v = static_cast<uint64_t>(rng.NextLognormal(/*mean=*/50'000.0,
                                                         /*stddev=*/80'000.0));
    h.Record(v);
    exact.Add(static_cast<double>(v));
  }
  Histogram::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.count, 10'000u);
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    double estimate = snap.Percentile(p);
    double truth = exact.Percentile(p);
    uint64_t width = Histogram::BucketWidth(static_cast<uint64_t>(truth));
    EXPECT_NEAR(estimate, truth, static_cast<double>(width) + 1.0)
        << "p" << p << ": estimate " << estimate << " truth " << truth
        << " bucket width " << width;
  }
  EXPECT_LE(snap.Percentile(0), static_cast<double>(snap.min) + 1.0);
  EXPECT_GE(snap.Percentile(100), static_cast<double>(snap.max) - 1.0);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  StatsRegistry stats;
  Histogram& h = stats.Histo("test.latency");
  constexpr int kThreads = 8;
  constexpr int kRecords = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kRecords; i++) {
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  Histogram::Snapshot snap = stats.HistogramSnapshot("test.latency");
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kRecords);
  EXPECT_EQ(snap.sum, static_cast<uint64_t>(kThreads) * kRecords * (kRecords + 1) / 2);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, static_cast<uint64_t>(kRecords));
}

// --- exporters --------------------------------------------------------------------

TEST(ChromeTraceJsonTest, GoldenSmallTrace) {
  Tracer tracer;
  SpanId root = tracer.Begin("fetch a/B", 0, 1'000, "client");
  tracer.Emit("queue", root, 1'500, 2'500, "link");
  tracer.Annotate(root, "bytes", "64");
  tracer.End(root, 3'750);

  std::string json = ChromeTraceJson(tracer.Finished(), {{"seed", "7"}});
  const std::string expected =
      "{\n"
      "\"displayTimeUnit\": \"ns\",\n"
      "\"otherData\": {\"seed\": \"7\"},\n"
      "\"traceEvents\": [\n"
      "{\"name\":\"fetch a/B\",\"cat\":\"client\",\"ph\":\"X\",\"ts\":1.000,"
      "\"dur\":2.750,\"pid\":1,\"tid\":1,\"args\":{\"span\":\"1\",\"parent\":\"0\","
      "\"bytes\":\"64\"}},\n"
      "{\"name\":\"queue\",\"cat\":\"link\",\"ph\":\"X\",\"ts\":1.500,"
      "\"dur\":1.000,\"pid\":1,\"tid\":1,\"args\":{\"span\":\"2\",\"parent\":\"1\"}}\n"
      "]\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(ChromeTraceJsonTest, EscapesSpecialCharacters) {
  Tracer tracer;
  tracer.Emit("quote\" slash\\ tab\t", 0, 0, 1);
  std::string json = ChromeTraceJson(tracer.Finished());
  EXPECT_NE(json.find("quote\\\" slash\\\\ tab\\t"), std::string::npos);
}

TEST(PrometheusTextTest, GoldenCountersAndHistogram) {
  StatsRegistry stats;
  stats.Counter("proxy.requests").Add(3);
  Histogram& h = stats.Histo("proxy.request_cpu_nanos");
  h.Record(2);
  h.Record(4);

  std::string text = PrometheusText(stats, {{"actor", "p0"}});
  const std::string expected =
      "# TYPE dvm_proxy_requests counter\n"
      "dvm_proxy_requests{actor=\"p0\"} 3\n"
      "# TYPE dvm_proxy_request_cpu_nanos histogram\n"
      "dvm_proxy_request_cpu_nanos_bucket{actor=\"p0\",le=\"1\"} 0\n"
      "dvm_proxy_request_cpu_nanos_bucket{actor=\"p0\",le=\"2\"} 1\n"
      "dvm_proxy_request_cpu_nanos_bucket{actor=\"p0\",le=\"3\"} 1\n"
      "dvm_proxy_request_cpu_nanos_bucket{actor=\"p0\",le=\"4\"} 2\n"
      "dvm_proxy_request_cpu_nanos_bucket{actor=\"p0\",le=\"+Inf\"} 2\n"
      "dvm_proxy_request_cpu_nanos_sum{actor=\"p0\"} 6\n"
      "dvm_proxy_request_cpu_nanos_count{actor=\"p0\"} 2\n";
  EXPECT_EQ(text, expected);
}

// --- end-to-end: spans through the real request path ------------------------------

SecurityPolicy TracePolicy() {
  auto policy = ParseSecurityPolicy(R"(
    <policy version="1">
      <domain sid="user" code="app/*"/>
      <domain sid="user" code="applet/*"/>
      <allow sid="user" operation="*" target="*"/>
    </policy>)");
  EXPECT_TRUE(policy.ok());
  return std::move(policy).value();
}

// One fetch-mix run with faults, returning the exported Chrome JSON.
struct TraceRun {
  std::string json;
  uint64_t final_nanos = 0;
  std::vector<Span> spans;
};

TraceRun RunTracedWorkload(uint64_t seed) {
  auto applets = BuildAppletPopulation(4, seed);
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  std::vector<std::string> classes;
  for (const auto& applet : applets) {
    applet.InstallInto(&origin);
    for (const auto& name : applet.ClassNames()) {
      classes.push_back(name);
    }
  }
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv library_env;
  for (const auto& cls : library) {
    library_env.Add(&cls);
  }
  DvmServerConfig server_config;
  server_config.policy = TracePolicy();
  server_config.proxy.sign_output = true;
  DvmServer server(std::move(server_config), &origin);

  ProxyCluster cluster(3, ProxyConfig{}, &library_env, &origin);
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
  }
  FaultPlan plan;
  plan.seed = seed;
  plan.links["client-proxy"] = LinkFaults{0.05, 0, kMillisecond, /*outages=*/{}};
  FaultInjector injector(plan);
  cluster.SetFaultInjector(&injector);

  RedirectingClient client(&server, nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(&cluster);
  Tracer tracer;
  client.SetTracer(&tracer);
  for (const auto& name : classes) {
    EXPECT_TRUE(client.FetchClass(name).ok());
  }

  server.console().IngestTrace(tracer);
  TraceRun run;
  run.spans = server.console().trace_spans();
  run.json = ChromeTraceJson(run.spans, {{"seed", std::to_string(seed)}});
  run.final_nanos = client.machine().virtual_nanos();
  return run;
}

TEST(TraceEndToEndTest, IdenticalSeedsProduceByteIdenticalJson) {
  TraceRun first = RunTracedWorkload(7);
  TraceRun second = RunTracedWorkload(7);
  EXPECT_EQ(first.final_nanos, second.final_nanos);
  EXPECT_EQ(first.json, second.json);

  TraceRun other = RunTracedWorkload(8);
  EXPECT_NE(first.json, other.json);
}

TEST(TraceEndToEndTest, FetchSpansNestClientLinkAndProxyStages) {
  TraceRun run = RunTracedWorkload(7);
  ASSERT_FALSE(run.spans.empty());

  std::map<SpanId, const Span*> by_id;
  for (const Span& span : run.spans) {
    by_id[span.id] = &span;
  }
  size_t fetch_roots = 0;
  size_t proxy_spans = 0;
  size_t link_spans = 0;
  for (const Span& span : run.spans) {
    if (span.parent != 0) {
      ASSERT_TRUE(by_id.count(span.parent)) << span.name;
    } else {
      EXPECT_EQ(span.name.rfind("fetch ", 0), 0u) << span.name;
      fetch_roots++;
    }
    if (span.category == "proxy" && span.name.rfind("proxy ", 0) == 0) {
      proxy_spans++;
    }
    if (span.category == "link") {
      link_spans++;
    }
  }
  EXPECT_GT(fetch_roots, 0u);
  EXPECT_GT(proxy_spans, 0u);
  EXPECT_GT(link_spans, 0u);
}

// The acceptance invariant: the proxy's stage child spans, laid end to end,
// account for exactly ProxyResponse::cpu_nanos.
TEST(TraceEndToEndTest, ProxyStageSpansSumToCpuNanos) {
  auto applets = BuildAppletPopulation(2, /*seed=*/3);
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  applets[0].InstallInto(&origin);
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv library_env;
  for (const auto& cls : library) {
    library_env.Add(&cls);
  }
  DvmProxy proxy(ProxyConfig{}, &library_env, &origin);
  proxy.AddFilter(std::make_unique<VerificationFilter>());

  Tracer tracer;
  const std::string cls = applets[0].ClassNames()[0];
  auto response = proxy.HandleRequest(cls, "", TraceContext{&tracer, 0, /*at=*/500});
  ASSERT_TRUE(response.ok());

  std::vector<Span> spans = tracer.Finished();
  const Span* request = nullptr;
  for (const Span& span : spans) {
    if (span.name == "proxy " + cls) {
      request = &span;
    }
  }
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->start_nanos, 500u);
  EXPECT_EQ(request->duration_nanos(), response->cpu_nanos);

  uint64_t stage_sum = 0;
  uint64_t cursor = request->start_nanos;
  for (const Span& span : spans) {
    if (span.parent != request->id) {
      continue;
    }
    // Stages tile the request span: each starts where the previous ended.
    EXPECT_EQ(span.start_nanos, cursor) << span.name;
    cursor = span.end_nanos;
    stage_sum += span.duration_nanos();
  }
  EXPECT_EQ(stage_sum, response->cpu_nanos);
}

// --- AuditRing wrap/drop regression (satellite) -----------------------------------

TEST(AuditRingTest, WrapKeepsNewestAndCountsDropped) {
  constexpr size_t kCapacity = 16;
  constexpr size_t kOverflow = 5;
  AuditRing ring(kCapacity);
  for (size_t i = 0; i < kCapacity + kOverflow; i++) {
    ring.Push("event-" + std::to_string(i));
  }
  EXPECT_EQ(ring.size(), kCapacity);
  EXPECT_EQ(ring.dropped(), kOverflow);
  std::vector<std::string> events = ring.Snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  // Oldest -> newest, the kOverflow oldest gone.
  EXPECT_EQ(events.front(), "event-" + std::to_string(kOverflow));
  EXPECT_EQ(events.back(), "event-" + std::to_string(kCapacity + kOverflow - 1));
}

// --- logging fast path (satellite) ------------------------------------------------

TEST(LoggingTest, FilteredLogDoesNotEvaluateOperands) {
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));

  int evaluations = 0;
  auto expensive = [&evaluations] {
    evaluations++;
    return std::string("payload");
  };
  DVM_LOG(kDebug) << expensive();
  EXPECT_EQ(evaluations, 0);

  SetLogLevel(saved);
}

TEST(LoggingTest, LevelIsReadableWhileLoggingFromOtherThreads) {
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  std::atomic<bool> stop{false};
  std::thread logger([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      DVM_LOG(kDebug) << "spin";
    }
  });
  for (int i = 0; i < 1'000; i++) {
    SetLogLevel(i % 2 == 0 ? LogLevel::kOff : LogLevel::kError);
  }
  stop.store(true, std::memory_order_relaxed);
  logger.join();
  SetLogLevel(saved);
}

}  // namespace
}  // namespace dvm
