// Flash crowd at a million clients: one applet goes viral and the whole
// population fetches it through the proxy tier at once. The paper's §4 claim
// is that proxy-side services let one organization serve a large client pool;
// the ROADMAP north star says "millions of users". This bench drives 10^6
// open-loop clients (heavy-tailed arrivals, src/workloads/arrivals) against a
// replicated proxy cost model calibrated from one real DvmProxy exchange, and
// sweeps admission/shed policies:
//
//   no-shed    — every request admitted; the queue collapses and p99 for
//                everyone goes to the backlog length;
//   shed       — bounded queue + token bucket, priority-aware shedding
//                (verification structurally unsheddable, observability shed
//                first);
//   shed-tight — same, quarter-size queue (earlier, harder shedding).
//
// Stdout is byte-deterministic for a given seed (the --check mode asserts it
// by running the shed policy twice); wall-clock and RSS go to stderr. Every
// run also checks the event queue's order: the timer wheel aborts if it
// would run an event out of (when, sequence) order or lose one (DESIGN.md
// §12). The CI scale-smoke job runs --clients=100000 --check under a time
// budget and an RSS ceiling.
#include <cinttypes>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/dvm/admission.h"
#include "src/dvm/client_pool.h"
#include "src/proxy/proxy.h"
#include "src/runtime/syslib.h"
#include "src/services/verify_service.h"
#include "src/simnet/sim.h"
#include "src/support/hash.h"
#include "src/support/trace.h"
#include "src/workloads/applets.h"
#include "src/workloads/arrivals.h"

using namespace dvm;
using namespace dvm::bench;

namespace {

struct Options {
  uint64_t clients = 1'000'000;
  uint64_t seed = 42;
  size_t replicas = 4;
  bool check = false;
  uint64_t max_rss_mb = 0;  // 0 = no ceiling
};

struct Calibration {
  uint64_t hit_cpu_nanos = 0;
  uint64_t response_bytes = 0;
  uint64_t rewrite_cpu_nanos = 0;
};

// One real exchange through the real proxy pipeline: the viral class is
// rewritten once (miss), then every crowd request is a cache hit. The model
// uses the measured hit CPU and response size, not guessed constants.
Calibration Calibrate(uint64_t seed) {
  auto applets = BuildAppletPopulation(1, seed);
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  applets[0].InstallInto(&origin);
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv env;
  for (const auto& cls : library) {
    env.Add(&cls);
  }
  DvmProxy proxy({}, &env, &origin);
  proxy.AddFilter(std::make_unique<VerificationFilter>());
  std::string viral = applets[0].ClassNames().front();
  auto miss = proxy.HandleRequest(viral);
  auto hit = proxy.HandleRequest(viral);
  if (!miss.ok() || !hit.ok() || !hit->cache_hit) {
    std::fprintf(stderr, "calibration request failed\n");
    std::abort();
  }
  return Calibration{hit->cpu_nanos, hit->data.size(), miss->cpu_nanos};
}

struct PolicyResult {
  std::string table;        // deterministic stdout block
  uint64_t fingerprint = 0; // FNV over the block
  Histogram::Snapshot verify_latency;
  Histogram::Snapshot monitor_latency;
  uint64_t verify_started = 0;
  uint64_t verify_succeeded = 0;
  uint64_t verify_failed = 0;
  uint64_t unsheddable_sheds = 0;
  uint64_t events_run = 0;
  uint64_t spans_sampled = 0;
  size_t spans_retained = 0;
  uint64_t spans_dropped = 0;
};

// Scale-safe tracing: one client in kTraceSampleRate is traced (head-based,
// decided by a stateless hash of the client id, so sampling perturbs no RNG
// stream), and retained spans live in a bounded ring. Memory for tracing is
// O(ring), not O(clients) — that is what keeps 10^6 clients under the CI RSS
// ceiling with tracing on.
constexpr uint64_t kTraceSampleRate = 512;
constexpr size_t kSpanRingCapacity = 1024;

std::string Row(const std::string& policy, const char* service, uint64_t started,
                uint64_t succeeded, uint64_t failed, const Histogram::Snapshot& lat) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-11s %-13s %9" PRIu64 " %8.1f%% %8" PRIu64
                                  " %10s %12s\n",
                policy.c_str(), service, started,
                started == 0 ? 0.0 : 100.0 * static_cast<double>(succeeded) /
                                         static_cast<double>(started),
                failed, FmtHistPct(lat, 50, 1e6).c_str(), FmtHistPct(lat, 99, 1e6).c_str());
  return buf;
}

PolicyResult RunPolicy(const Options& opt, const Calibration& cal,
                       const std::string& policy) {
  EventQueue queue;
  std::vector<CpuServer> replicas(opt.replicas);
  std::vector<AdmissionController> admission;
  if (policy != "no-shed") {
    AdmissionConfig config;
    // Sustained admit rate tracks the replica's actual service rate.
    config.tokens_per_second = 1e9 / static_cast<double>(cal.hit_cpu_nanos);
    config.burst = 400.0;
    config.queue_capacity = policy == "shed-tight" ? 256 : 1024;
    for (size_t i = 0; i < opt.replicas; i++) {
      admission.emplace_back(config);
    }
  }

  ClientPoolConfig pool_config;
  pool_config.service_cpu_nanos = cal.hit_cpu_nanos;
  pool_config.response_bytes = cal.response_bytes;
  StatsRegistry stats;
  ClientPool pool(pool_config, &queue, &replicas, policy == "no-shed" ? nullptr : &admission,
                  &stats);
  BoundedSpanRing span_ring(kSpanRingCapacity);
  pool.EnableTracing(&span_ring, TraceSampler(opt.seed, kTraceSampleRate));

  // Same seed per policy: identical per-client traffic classes and arrival
  // times, so policy is the only variable.
  ArrivalConfig arrival_config;
  arrival_config.seed = opt.seed;
  arrival_config.base_per_second = 2000.0;
  arrival_config.surge_at = 2 * kSecond;
  arrival_config.surge_duration = 10 * kSecond;
  arrival_config.surge_factor = 400.0;
  ArrivalGenerator arrivals(arrival_config);
  Rng mix(opt.seed ^ 0x5eedf00dULL);
  for (uint64_t id = 0; id < opt.clients; id++) {
    double roll = mix.NextDouble();
    ServiceClass traffic = roll < 0.60   ? ServiceClass::kVerification
                           : roll < 0.85 ? ServiceClass::kMonitoring
                                         : ServiceClass::kProfiling;
    pool.Start(static_cast<uint32_t>(id), traffic, arrivals.Next());
  }

  // Runaway guard: every client terminates within its retry budget, so the
  // event count is bounded; anything past the bound is a scenario bug.
  queue.set_max_events(opt.clients * (ClientPoolConfig{}.retry_budget + 2) + 1024);
  queue.RunUntilEmpty();

  PolicyResult result;
  for (ServiceClass service : {ServiceClass::kVerification, ServiceClass::kMonitoring,
                               ServiceClass::kProfiling}) {
    result.table += Row(policy, ServiceClassName(service), pool.started(service),
                        pool.succeeded(service), pool.failed(service),
                        pool.Latency(service));
  }
  char extra[256];
  uint64_t shed_total = 0;
  for (auto& controller : admission) {
    shed_total += controller.shed_total();
    result.unsheddable_sheds += controller.shed_for(ShedTier::kUnsheddable);
  }
  std::snprintf(extra, sizeof(extra),
                "%-11s sheds=%" PRIu64 " events=%" PRIu64 " end=%ss\n", policy.c_str(),
                shed_total, queue.events_run(), FmtSeconds(queue.now()).c_str());
  result.table += extra;
  result.spans_sampled = pool.spans_sampled();
  result.spans_retained = span_ring.size();
  result.spans_dropped = span_ring.dropped();
  std::snprintf(extra, sizeof(extra),
                "%-11s trace: 1/%" PRIu64 " sampled=%" PRIu64 " retained=%zu dropped=%"
                PRIu64 "\n",
                policy.c_str(), kTraceSampleRate, result.spans_sampled,
                result.spans_retained, result.spans_dropped);
  result.table += extra;
  result.fingerprint = Fnv1a(result.table);
  result.verify_latency = pool.Latency(ServiceClass::kVerification);
  result.monitor_latency = pool.Latency(ServiceClass::kMonitoring);
  result.verify_started = pool.started(ServiceClass::kVerification);
  result.verify_succeeded = pool.succeeded(ServiceClass::kVerification);
  result.verify_failed = pool.failed(ServiceClass::kVerification);
  result.events_run = queue.events_run();
  return result;
}

uint64_t PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" PRIu64 " kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb / 1024;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    if (std::sscanf(argv[i], "--clients=%" PRIu64, &opt.clients) == 1) continue;
    if (std::sscanf(argv[i], "--seed=%" PRIu64, &opt.seed) == 1) continue;
    if (std::sscanf(argv[i], "--replicas=%zu", &opt.replicas) == 1) continue;
    if (std::sscanf(argv[i], "--max-rss-mb=%" PRIu64, &opt.max_rss_mb) == 1) continue;
    if (std::strcmp(argv[i], "--check") == 0) {
      opt.check = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag %s\n", argv[i]);
    return 2;
  }

  PrintHeader("Flash crowd: open-loop clients vs proxy admission control",
              "Section 4 scale claim at the north-star population");

  Calibration cal = Calibrate(opt.seed);
  std::printf("\nclients=%" PRIu64 " replicas=%zu seed=%" PRIu64
              " hit_cpu=%" PRIu64 "ns response=%" PRIu64 "B rewrite_once=%" PRIu64 "ns\n\n",
              opt.clients, opt.replicas, opt.seed, cal.hit_cpu_nanos, cal.response_bytes,
              cal.rewrite_cpu_nanos);
  std::printf("%-11s %-13s %9s %9s %8s %10s %12s\n", "policy", "traffic", "started",
              "success", "failed", "p50(ms)", "p99(ms)");

  struct timespec wall_start;
  clock_gettime(CLOCK_MONOTONIC, &wall_start);
  PolicyResult no_shed = RunPolicy(opt, cal, "no-shed");
  std::fputs(no_shed.table.c_str(), stdout);
  PolicyResult shed = RunPolicy(opt, cal, "shed");
  std::fputs(shed.table.c_str(), stdout);
  PolicyResult tight = RunPolicy(opt, cal, "shed-tight");
  std::fputs(tight.table.c_str(), stdout);
  struct timespec wall_end;
  clock_gettime(CLOCK_MONOTONIC, &wall_end);
  double wall_s = static_cast<double>(wall_end.tv_sec - wall_start.tv_sec) +
                  static_cast<double>(wall_end.tv_nsec - wall_start.tv_nsec) / 1e9;

  // Non-deterministic evidence lines go to stderr so stdout byte-compares.
  std::fprintf(stderr, "wall=%.1fs peak_rss=%" PRIu64 "MB\n", wall_s, PeakRssMb());

  if (!opt.check) {
    return 0;
  }

  bool ok = true;
  std::printf("\nChecks:\n");

  bool verify_ok = shed.verify_succeeded == shed.verify_started &&
                   shed.verify_failed == 0 && shed.unsheddable_sheds == 0 &&
                   tight.verify_failed == 0 && tight.unsheddable_sheds == 0;
  std::printf("  verification success 100%%, zero sheds, at every load level: %s\n",
              verify_ok ? "PASS" : "FAIL");
  ok &= verify_ok;

  double collapse_p99 = no_shed.monitor_latency.Percentile(99);
  double shed_p99 = shed.monitor_latency.Percentile(99);
  bool graceful = shed_p99 * 5.0 < collapse_p99;
  std::printf("  sheddable p99 degrades gracefully (%.0f ms shed vs %.0f ms collapse): %s\n",
              shed_p99 / 1e6, collapse_p99 / 1e6, graceful ? "PASS" : "FAIL");
  ok &= graceful;

  PolicyResult again = RunPolicy(opt, cal, "shed");
  bool deterministic = again.fingerprint == shed.fingerprint;
  std::printf("  identical seed reproduces byte-identical stats: %s\n",
              deterministic ? "PASS" : "FAIL");
  ok &= deterministic;

  bool trace_ok = shed.spans_sampled > 0 && shed.spans_retained <= kSpanRingCapacity &&
                  shed.spans_sampled == shed.spans_retained + shed.spans_dropped;
  std::printf("  sampled tracing stays bounded (ring %zu/%zu, %" PRIu64 " dropped): %s\n",
              shed.spans_retained, kSpanRingCapacity, shed.spans_dropped,
              trace_ok ? "PASS" : "FAIL");
  ok &= trace_ok;

  if (opt.max_rss_mb != 0) {
    uint64_t rss = PeakRssMb();
    bool rss_ok = rss <= opt.max_rss_mb;
    std::printf("  peak RSS within ceiling (%" PRIu64 " MB <= %" PRIu64 " MB): %s\n", rss,
                opt.max_rss_mb, rss_ok ? "PASS" : "FAIL");
    ok &= rss_ok;
  }

  return ok ? 0 : 1;
}
