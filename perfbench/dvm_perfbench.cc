// Host-clock benchmark of the DVM request path: proxy miss -> verify ->
// certify -> install -> execute, measured with std::chrono::steady_clock
// through the public DvmServer / DvmProxy / DvmClient / ProxyCluster API.
// Nothing here touches the virtual clock: every figure binary and byte-diff
// export stays as it is.
//
//   dvm_perfbench --workload <cold_fetch|parallel_fetch|warm_launch|
//                             replica_catchup|all>
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Workloads (all closed loops; each draws its inputs from --seed):
//   cold_fetch       one thread, every request a miss on a fresh Fig. 6 server
//   parallel_fetch   3 threads, misses interleaved with ~8 hits per miss
//   warm_launch      the five Fig. 5 apps launched on fresh clients, all hits
//   replica_catchup  a fresh replica applies a whole certified commit log
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 the run spends half its time untraced and half traced, and the
// last line carries the per-layer metrics derived from host-time spans kept
// in a Tracer (written once, at exit, to --trace-out as Chrome trace JSON).
// perfbench/README.md maps every metric to the layer and workload it serves.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/bytecode/serializer.h"
#include "src/dvm/dvm.h"
#include "src/dvm/redirect_client.h"
#include "src/dvm/replication.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/services/reflect_service.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/support/hash.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "src/verifier/certificate.h"
#include "src/verifier/verifier.h"
#include "src/workloads/applets.h"
#include "src/workloads/apps.h"

namespace dvm::perfbench {
namespace {

// --- host clock, process numbers, statistics --------------------------------

uint64_t HostNanos() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - epoch)
                                   .count());
}

double Seconds(uint64_t nanos) { return static_cast<double>(nanos) / 1e9; }
double Millis(uint64_t nanos) { return static_cast<double>(nanos) / 1e6; }

// Peak resident set (VmHWM), read the way bench_flashcrowd --max-rss-mb does.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    uint64_t kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %" SCNu64 " kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

// CPU rotation. On a shared host the speed of one CPU swings by up to ~1.8x
// for tens of seconds while its neighbours stay quiet (another tenant busy on
// the same physical core). Each pass therefore runs pinned to the next CPU of
// the process's affinity set, so a stall hits only that CPU's passes.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
        if (CPU_ISSET(cpu, &set)) {
          out.push_back(cpu);
        }
      }
    }
    return out;
  }();
  return cpus;
}

// Pins the calling thread to the `slot`-th allowed CPU (mod their count).
void PinToSlot(uint64_t slot) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: unpinned on failure
}

// Linear interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

uint64_t Mix(uint64_t h, const Bytes& data) {
  h ^= Fnv1a(data.data(), data.size());
  return h * 0x100000001b3ULL;
}

// --- provenance ----------------------------------------------------------------

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::vector<std::pair<std::string, std::string>> Provenance(uint64_t seed) {
  return {{"build_type", PERFBENCH_BUILD_TYPE},
          {"opt_flags", PERFBENCH_OPT_FLAGS},
          {"optimized", kOptimized ? "true" : "false"},
          {"ndebug", kNdebug ? "true" : "false"},
          {"threaded_dispatch", PERFBENCH_THREADED_DISPATCH ? "true" : "false"},
          {"compiler", PERFBENCH_COMPILER},
          {"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"seed", std::to_string(seed)}};
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// --- inputs ---------------------------------------------------------------------

// The class population cold_fetch, parallel_fetch and replica_catchup request:
// the 400 Fig. 5 classes plus applets from BuildAppletPopulation making up
// ~10% of requests, each class once, in seeded order. The applet draw uses a
// fixed seed: its heavy-tailed sizes would otherwise swamp every per-run
// figure (one 400 KB applet costs as much as a hundred Fig. 5 classes), so
// the run seed varies the request order, the hit targets and the thread
// interleaving instead.
constexpr uint64_t kAppletSeed = 1999;

struct Population {
  std::vector<AppBundle> apps;
  std::vector<AppBundle> applets;
  std::vector<std::string> order;
  MapClassProvider origin;
};

std::unique_ptr<Population> BuildPopulation(uint64_t seed) {
  auto pop = std::make_unique<Population>();
  pop->apps = BuildFig5Apps(1);
  size_t app_classes = 0;
  for (const AppBundle& app : pop->apps) {
    app_classes += app.classes.size();
  }
  size_t applet_classes = 0;
  // The draw is a prefix of the population; 16 applets cover the ~10%.
  for (AppBundle& applet : BuildAppletPopulation(16, kAppletSeed)) {
    if (applet_classes * 9 >= app_classes) {
      break;
    }
    applet_classes += applet.classes.size();
    pop->applets.push_back(std::move(applet));
  }
  for (const auto* bundles : {&pop->apps, &pop->applets}) {
    for (const AppBundle& bundle : *bundles) {
      bundle.InstallInto(&pop->origin);
      for (std::string& name : bundle.ClassNames()) {
        pop->order.push_back(std::move(name));
      }
    }
  }
  Rng rng(seed ^ 0x5eed0fd3c0ffeeULL);
  for (size_t i = pop->order.size(); i > 1; i--) {
    std::swap(pop->order[i - 1], pop->order[rng.Uniform(i)]);
  }
  return pop;
}

// The Fig. 6 server: reflection, verification, security and audit stacked,
// cache on (so certificates are emitted), the permissive Fig. 6 policy.
DvmServerConfig Fig6Config() {
  DvmServerConfig config;
  config.policy = bench::PermissivePolicy();
  return config;
}

// Guest output of each bundle on a MonolithicClient: the independent path
// Figure 6 compares the DVM against. Empty optional = the reference run failed.
std::optional<std::map<std::string, std::vector<std::string>>> RecordReference(
    const std::vector<const AppBundle*>& bundles, ClassProvider* origin) {
  std::map<std::string, std::vector<std::string>> reference;
  for (const AppBundle* bundle : bundles) {
    MonolithicClient client(origin, bench::PermissivePolicy(), MonolithicMachineConfig(),
                            MakeEthernet10Mb());
    Result<CallOutcome> out = client.RunApp(bundle->main_class);
    if (!out.ok() || out->threw) {
      return std::nullopt;
    }
    reference[bundle->main_class] = client.machine().printed();
  }
  return reference;
}

// --- measurement plumbing ------------------------------------------------------

// What the passes of a run report.
struct Samples {
  // Latency of each timed operation: a miss (cold_fetch), a hit
  // (parallel_fetch), an app launch (warm_launch), a record install
  // (replica_catchup).
  std::vector<double> op_ms;
  std::vector<double> pass_ms;  // warm_launch, replica_catchup: whole-pass time
  // parallel_fetch: misses per wall second, one value per pass.
  std::vector<double> rate;
  std::vector<double> wall_ms;  // wall time of each pass, gates included
  uint64_t passes = 0;
};

// Per-operation latency for workloads whose every pass makes the same
// operations in the same order: operation i's fastest repeat over the passes.
// These passes are single-threaded and deterministic, so repeats differ only
// by host noise, and that noise only ever adds time: other tenants of a shared
// host slow whole passes at random by 1.0-1.9x. The fastest repeat estimates
// the operation's own cost, and it spreads less across runs than the median
// repeat does (perfbench/README.md).
std::vector<double> FastestOps(const Samples& s) {
  const size_t per_pass = s.op_ms.size() / std::max<uint64_t>(1, s.passes);
  std::vector<double> fastest(per_pass);
  for (size_t i = 0; i < per_pass; i++) {
    fastest[i] = s.op_ms[i];
    for (size_t p = 1; p < s.passes; p++) {
      fastest[i] = std::min(fastest[i], s.op_ms[p * per_pass + i]);
    }
  }
  return fastest;
}

// The highest of p99 / p97.5 / p95 that leaves at least ten samples beyond
// it; p90 when none does.
double TailPercentile(size_t samples) {
  for (double p : {99.0, 97.5, 95.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) {
      return p;
    }
  }
  return 90.0;
}

struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Check(bool ok) {
    attempted++;
    failed += ok ? 0 : 1;
  }
};

// Per-layer sums gathered in traced passes (span durations live in the Tracer).
using LayerSums = std::map<std::string, double>;

struct PassEnv {
  Tracer* tracer = nullptr;  // null = untraced pass
  SpanId parent = 0;
  Samples* samples = nullptr;
  Counts* counts = nullptr;
  LayerSums* sums = nullptr;  // only in traced passes
};

void Add(PassEnv& env, const std::string& key, double value) {
  if (env.sums != nullptr) {
    (*env.sums)[key] += value;
  }
}

// Runs `fn`, records it as span `name` under `parent` when tracing, and
// returns its result.
template <typename F>
auto Timed(Tracer* tracer, const char* name, SpanId parent, F&& fn) {
  uint64_t start = HostNanos();
  auto result = fn();
  TraceEmit(tracer, name, parent, start, HostNanos(), "host");
  return result;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  // Everything a run needs before timing starts; repeated, timed as setup_s.
  virtual void Setup(Counts& counts) = 0;
  // Passes run before measuring whose samples are discarded.
  virtual int warmup_passes() const { return 1; }
  // True when every pass makes the same operations in the same order, so
  // latencies are taken per operation (FastestOps).
  virtual bool repeats_ops() const { return true; }
  virtual void Pass(PassEnv& env) = 0;
};

// --- cold_fetch ----------------------------------------------------------------

// Filters in the Fig. 6 server's stacking order, named after the services
// module's metrics.
struct StackedFilters {
  explicit StackedFilters(const SecurityPolicy* policy) {
    filters.emplace_back("services.reflection", std::make_unique<ReflectionFilter>());
    filters.emplace_back("services.verification", std::make_unique<VerificationFilter>());
    filters.emplace_back("services.security", std::make_unique<SecurityFilter>(policy));
    filters.emplace_back("services.audit", std::make_unique<AuditFilter>());
  }
  std::vector<std::pair<const char*, std::unique_ptr<CodeFilter>>> filters;
};

// Replays one miss's layer calls on the same inputs, in the proxy's order, as
// child spans of the miss. seen_env_ mirrors the proxy's environment: every
// class parsed so far this pass, in front of the library.
class MissReplay {
 public:
  explicit MissReplay(const ClassEnv* library)
      : library_(library), policy_(bench::PermissivePolicy()), stack_(&policy_) {}

  void Run(PassEnv& env, SpanId miss, const Bytes& origin_bytes) {
    Tracer* t = env.tracer;
    Result<ClassFile> parsed =
        Timed(t, "bytecode.read", miss, [&] { return ReadClassFile(origin_bytes); });
    env.counts->Check(parsed.ok());
    if (!parsed.ok()) {
      return;
    }
    seen_.push_back(std::make_unique<ClassFile>(parsed.value()));
    seen_env_.Add(seen_.back().get());
    ChainedClassEnv filter_env(&seen_env_, library_);
    FilterContext ctx;
    ctx.env = &filter_env;
    ctx.platform = "x86";
    ClassFile cls = std::move(parsed).value();
    for (auto& [name, filter] : stack_.filters) {
      Result<FilterOutcome> outcome = Timed(t, name, miss, [&] { return filter->Apply(cls, ctx); });
      env.counts->Check(outcome.ok());
      if (!outcome.ok()) {
        return;
      }
      Add(env, "services.checks", static_cast<double>(outcome->checks_performed));
      if (outcome->replacement.has_value()) {
        cls = std::move(*outcome->replacement);
      }
    }
    Result<Bytes> artifact = Timed(t, "bytecode.write", miss, [&] { return WriteClassFile(cls); });
    env.counts->Check(artifact.ok());
    if (!artifact.ok()) {
      return;
    }
    Add(env, "bytecode.origin_kb", static_cast<double>(origin_bytes.size()) / 1024.0);
    Add(env, "bytecode.artifact_kb", static_cast<double>(artifact->size()) / 1024.0);

    // EmitCertificate: re-read the artifact, prove it, serialize the proof,
    // then parse it back and self-validate.
    Result<ClassFile> main =
        Timed(t, "bytecode.read", miss, [&] { return ReadClassFile(artifact.value()); });
    env.counts->Check(main.ok());
    if (!main.ok()) {
      return;
    }
    MapClassEnv artifact_env;
    artifact_env.Add(&main.value());
    ChainedClassEnv cert_env(&artifact_env, library_);
    ClassCertificate cert;
    Result<VerifiedClass> verified = Timed(t, "verifier.cert_fixpoint", miss, [&] {
      return VerifyClass(main.value(), cert_env, &cert);
    });
    env.counts->Check(verified.ok());
    if (!verified.ok()) {
      return;
    }
    Add(env, "verifier.static_checks", static_cast<double>(verified->stats.TotalStaticChecks()));
    Bytes cert_bytes =
        Timed(t, "verifier.cert_serialize", miss, [&] { return SerializeCertificate(cert); });
    Add(env, "verifier.cert_kb", static_cast<double>(cert_bytes.size()) / 1024.0);
    Result<ClassCertificate> reparsed =
        Timed(t, "verifier.cert_parse", miss, [&] { return ParseCertificate(cert_bytes); });
    env.counts->Check(reparsed.ok());
    if (!reparsed.ok()) {
      return;
    }
    ValidateStats stats;
    Status valid = Timed(t, "verifier.cert_validate", miss, [&] {
      return ValidateCertificate(main.value(), cert_env, reparsed.value(), &stats);
    });
    env.counts->Check(valid.ok());
    Add(env, "verifier.validate_checks", static_cast<double>(stats.TotalChecks()));
  }

 private:
  const ClassEnv* library_;
  SecurityPolicy policy_;
  StackedFilters stack_;
  std::vector<std::unique_ptr<ClassFile>> seen_;
  MapClassEnv seen_env_;
};

void AddProxyCounters(PassEnv& env, const DvmProxy& proxy) {
  for (const char* name : {"proxy.rewrites", "proxy.cert_emits", "proxy.cert_emit_failures",
                           "proxy.cert_validations", "proxy.cert_rejects", "proxy.cert_missing",
                           "proxy.lock_acquisitions", "proxy.coalesced"}) {
    Add(env, name, static_cast<double>(proxy.stats().Value(name)));
  }
  Add(env, "proxy.cache_hits", static_cast<double>(proxy.cache().hits()));
  Add(env, "proxy.cache_misses", static_cast<double>(proxy.cache().misses()));
}

class ColdFetch : public Workload {
 public:
  explicit ColdFetch(uint64_t seed) : seed_(seed), library_(BuildSystemLibrary()) {
    for (const ClassFile& cls : library_) {
      library_env_.Add(&cls);
    }
  }
  const char* name() const override { return "cold_fetch"; }

  void Setup(Counts& counts) override { pop_ = BuildPopulation(seed_); }

  void Pass(PassEnv& env) override {
    DvmServer server(Fig6Config(), &pop_->origin);
    DvmProxy& proxy = server.proxy();
    std::unique_ptr<MissReplay> replay;
    if (env.tracer != nullptr) {
      replay = std::make_unique<MissReplay>(&library_env_);
    }
    uint64_t digest = 0xcbf29ce484222325ULL;
    for (const std::string& cls : pop_->order) {
      uint64_t start = HostNanos();
      Result<ProxyResponse> response = proxy.HandleRequest(cls, "x86");
      uint64_t end = HostNanos();
      env.samples->op_ms.push_back(Millis(end - start));
      bool ok = response.ok() && !response->cache_hit;
      env.counts->Check(ok);
      if (!ok) {
        continue;
      }
      digest = Mix(digest ^ Fnv1a(cls), response->data);
      if (replay != nullptr) {
        SpanId miss = TraceEmit(env.tracer, "proxy.miss", env.parent, start, end, "host");
        Result<Bytes> origin_bytes = pop_->origin.FetchClass(cls);
        env.counts->Check(origin_bytes.ok());
        if (origin_bytes.ok()) {
          replay->Run(env, miss, origin_bytes.value());
        }
      }
    }
    // Gate: one thread, fresh server, same order => byte-identical artifacts.
    if (digest_ == 0) {
      digest_ = digest;
    }
    env.counts->Check(digest == digest_);
    if (env.sums != nullptr) {
      AddProxyCounters(env, proxy);
    }
  }

 private:
  uint64_t seed_;
  std::vector<ClassFile> library_;
  MapClassEnv library_env_;
  std::unique_ptr<Population> pop_;
  uint64_t digest_ = 0;
};

// --- parallel_fetch ------------------------------------------------------------

constexpr int kParallelThreads = 3;

class ParallelFetch : public Workload {
 public:
  explicit ParallelFetch(uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "parallel_fetch"; }
  // Hit targets and thread interleaving differ from pass to pass.
  bool repeats_ops() const override { return false; }

  void Setup(Counts& counts) override {
    pop_ = BuildPopulation(seed_);
    std::vector<const AppBundle*> bundles;
    for (const auto* group : {&pop_->apps, &pop_->applets}) {
      for (const AppBundle& bundle : *group) {
        bundles.push_back(&bundle);
      }
    }
    auto reference = RecordReference(bundles, &pop_->origin);
    counts.Check(reference.has_value());
    reference_ = reference.value_or(decltype(reference_){});
    bundles_ = std::move(bundles);
  }

  void Pass(PassEnv& env) override {
    DvmServer server(Fig6Config(), &pop_->origin);
    DvmProxy& proxy = server.proxy();
    std::mutex completed_mu;
    std::vector<std::string> completed;  // classes whose miss has returned
    struct ThreadOut {
      std::vector<double> hit_ms;
      Counts counts;
    };
    std::vector<ThreadOut> outs(kParallelThreads);
    std::latch start(kParallelThreads + 1);
    auto client = [&](int t) {
      // Beside the pass's main thread, which only waits.
      PinToSlot(env.samples->passes + static_cast<uint64_t>(t) + 1);
      ThreadOut& out = outs[static_cast<size_t>(t)];
      Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t) + 1 + env.samples->passes);
      start.arrive_and_wait();
      for (size_t i = static_cast<size_t>(t); i < pop_->order.size(); i += kParallelThreads) {
        const std::string& cls = pop_->order[i];
        uint64_t t0 = HostNanos();
        Result<ProxyResponse> miss = proxy.HandleRequest(cls, "x86");
        uint64_t t1 = HostNanos();
        TraceEmit(env.tracer, "proxy.miss", env.parent, t0, t1, "host");
        out.counts.Check(miss.ok() && !miss->cache_hit);
        std::string target;
        {
          std::lock_guard<std::mutex> lock(completed_mu);
          completed.push_back(cls);
        }
        for (int64_t h = rng.Range(6, 10); h > 0; h--) {
          {
            std::lock_guard<std::mutex> lock(completed_mu);
            target = completed[rng.Uniform(completed.size())];
          }
          uint64_t h0 = HostNanos();
          Result<ProxyResponse> hit = proxy.HandleRequest(target, "x86");
          uint64_t h1 = HostNanos();
          TraceEmit(env.tracer, "proxy.hit", env.parent, h0, h1, "host");
          out.hit_ms.push_back(Millis(h1 - h0));
          out.counts.Check(hit.ok() && hit->cache_hit);
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kParallelThreads; t++) {
      threads.emplace_back(client, t);
    }
    uint64_t cpu0 = ProcessCpuNanos();
    uint64_t wall0 = HostNanos();
    start.arrive_and_wait();
    for (std::thread& thread : threads) {
      thread.join();
    }
    uint64_t wall = HostNanos() - wall0;
    uint64_t cpu = ProcessCpuNanos() - cpu0;
    for (ThreadOut& out : outs) {
      env.samples->op_ms.insert(env.samples->op_ms.end(), out.hit_ms.begin(), out.hit_ms.end());
      env.counts->attempted += out.counts.attempted;
      env.counts->failed += out.counts.failed;
    }
    env.samples->rate.push_back(static_cast<double>(pop_->order.size()) / Seconds(wall));
    Add(env, "proxy.cpu_ns", static_cast<double>(cpu));
    Add(env, "proxy.wall_ns", static_cast<double>(wall));
    if (env.sums != nullptr) {
      AddProxyCounters(env, proxy);
    }
    // Gate: artifacts depend on request history, so no byte-identity check;
    // every app must instead behave exactly as on the monolithic reference.
    for (const AppBundle* bundle : bundles_) {
      DvmClient check(&server, DvmMachineConfig(), MakeEthernet10Mb());
      Result<CallOutcome> out = check.RunApp(bundle->main_class);
      env.counts->Check(out.ok() && !out->threw &&
                        check.machine().printed() == reference_[bundle->main_class]);
    }
  }

 private:
  uint64_t seed_;
  std::unique_ptr<Population> pop_;
  std::vector<const AppBundle*> bundles_;
  std::map<std::string, std::vector<std::string>> reference_;
};

// --- warm_launch ---------------------------------------------------------------

// Guest work scale for warm_launch: large enough that execution, not class
// loading, is most of a launch.
constexpr int kWarmScale = 2;

void AddRuntimeCounters(PassEnv& env, const RuntimeCounters& c) {
  const std::pair<const char*, uint64_t> counters[] = {
      {"runtime.instructions", c.instructions},
      {"runtime.classes_loaded", c.classes_loaded},
      {"runtime.quickened_sites", c.quickened_sites},
      {"runtime.tier_compiles", c.tier_compiles},
      {"runtime.osr_entries", c.osr_entries},
      {"runtime.tier_deopts", c.tier_deopts},
      {"runtime.gc_runs", c.gc_runs},
      {"runtime.allocated_bytes", c.allocated_bytes},
      {"runtime.dynamic_verify_checks", c.dynamic_verify_checks},
      {"runtime.security_checks", c.security_checks},
      {"runtime.audit_events", c.audit_events}};
  for (const auto& [name, value] : counters) {
    Add(env, name, static_cast<double>(value));
  }
}

class WarmLaunch : public Workload {
 public:
  const char* name() const override { return "warm_launch"; }

  void Setup(Counts& counts) override {
    server_.reset();
    apps_ = BuildFig5Apps(kWarmScale);
    origin_ = std::make_unique<MapClassProvider>();
    std::vector<const AppBundle*> bundles;
    for (const AppBundle& app : apps_) {
      app.InstallInto(origin_.get());
      bundles.push_back(&app);
    }
    auto reference = RecordReference(bundles, origin_.get());
    counts.Check(reference.has_value());
    reference_ = reference.value_or(decltype(reference_){});
    // Fill the cache the way Figure 6's uncached run does: one client per app.
    server_ = std::make_unique<DvmServer>(Fig6Config(), origin_.get());
    for (const AppBundle& app : apps_) {
      DvmClient client(server_.get(), DvmMachineConfig(), MakeEthernet10Mb());
      Result<CallOutcome> out = client.RunApp(app.main_class);
      counts.Check(out.ok() && !out->threw && client.machine().printed() == reference_[app.main_class]);
    }
  }

  void Pass(PassEnv& env) override {
    Tracer* t = env.tracer;
    DvmProxy& proxy = server_->proxy();
    const uint64_t misses_before = proxy.cache().misses();
    const uint64_t hits_before = proxy.cache().hits();
    const uint64_t locks_before = proxy.stats().Value("proxy.lock_acquisitions");
    uint64_t busy = 0;
    for (const AppBundle& app : apps_) {
      uint64_t start = HostNanos();
      SpanId launch = TraceBegin(t, "warm_launch.launch " + app.name, env.parent, start, "host");
      auto client = Timed(t, "dvm.client_init", launch, [&] {
        return std::make_unique<DvmClient>(server_.get(), DvmMachineConfig(), MakeEthernet10Mb());
      });
      if (t != nullptr) {
        // Traced only: replay each class fetch (a hit) and load the app's
        // classes eagerly so fetch, load and run get separate spans.
        for (const std::string& cls : app.ClassNames()) {
          bool ok = Timed(t, "dvm.fetch", launch, [&] { return client->FetchClass(cls).ok(); });
          env.counts->Check(ok);
        }
        bool loaded = Timed(t, "runtime.load", launch, [&] {
          bool all = true;
          for (const std::string& cls : app.ClassNames()) {
            all &= client->machine().EnsureLoaded(cls).ok();
          }
          return all;
        });
        env.counts->Check(loaded);
      }
      uint64_t run_start = HostNanos();
      Result<CallOutcome> out = client->RunApp(app.main_class);
      uint64_t end = HostNanos();
      TraceEmit(t, "runtime.run", launch, run_start, end, "host");
      TraceEnd(t, launch, end);
      busy += end - start;
      env.samples->op_ms.push_back(Millis(end - start));
      env.counts->Check(out.ok() && !out->threw &&
                        client->machine().printed() == reference_[app.main_class]);
      if (env.sums != nullptr) {
        AddRuntimeCounters(env, client->machine().counters());
      }
    }
    env.samples->pass_ms.push_back(Millis(busy));
    // Gate: the warm server never misses.
    env.counts->Check(proxy.cache().misses() == misses_before);
    Add(env, "proxy.cache_hits", static_cast<double>(proxy.cache().hits() - hits_before));
    Add(env, "proxy.lock_acquisitions",
        static_cast<double>(proxy.stats().Value("proxy.lock_acquisitions") - locks_before));
  }

 private:
  std::vector<AppBundle> apps_;
  std::unique_ptr<MapClassProvider> origin_;
  std::unique_ptr<DvmServer> server_;
  std::map<std::string, std::vector<std::string>> reference_;
};

// --- replica_catchup -------------------------------------------------------------

class ReplicaCatchup : public Workload {
 public:
  explicit ReplicaCatchup(uint64_t seed)
      : seed_(seed), library_(BuildSystemLibrary()), policy_(bench::PermissivePolicy()) {
    for (const ClassFile& cls : library_) {
      library_env_.Add(&cls);
    }
  }
  const char* name() const override { return "replica_catchup"; }
  int warmup_passes() const override { return 2; }

  void Setup(Counts& counts) override {
    cluster_.reset();
    pop_ = BuildPopulation(seed_);
    cluster_ = std::make_unique<ProxyCluster>(2, ProxyConfig{}, &library_env_, &pop_->origin);
    for (size_t i = 0; i < cluster_->size(); i++) {
      StackedFilters stack(&policy_);
      for (auto& [name, filter] : stack.filters) {
        cluster_->replica(i).AddFilter(std::move(filter));
      }
    }
    cluster_->EnableReplication();
    ReplicationCoordinator* repl = cluster_->replication();
    SimTime now = 0;
    for (const std::string& cls : pop_->order) {
      now += kSecond;
      bool ok = cluster_->replica(0).HandleRequest(cls, "x86").ok() &&
                repl->ReplicateArtifact(0, cls, "x86", now).committed;
      counts.Check(ok);
    }
    artifact_records_ = 0;
    for (const CommitRecord& record : repl->cluster_log().records()) {
      artifact_records_ += record.type == CommitRecordType::kArtifact ? 1 : 0;
    }
  }

  void Pass(PassEnv& env) override {
    Tracer* t = env.tracer;
    const std::vector<CommitRecord>& log = cluster_->replication()->cluster_log().records();
    uint64_t start = HostNanos();
    auto fresh = std::make_unique<DvmProxy>(ProxyConfig{}, &library_env_, &pop_->origin);
    uint64_t replay_nanos = 0;  // traced replays, kept out of the catch-up time
    for (const CommitRecord& record : log) {
      uint64_t a0 = HostNanos();
      fresh->ApplyCommitRecord(record);
      uint64_t a1 = HostNanos();
      env.samples->op_ms.push_back(Millis(a1 - a0));
      if (t != nullptr) {
        SpanId apply = TraceEmit(t, "proxy.apply_record", env.parent, a0, a1, "host");
        ReplayInstall(env, apply, record);
        replay_nanos += HostNanos() - a1;
      }
    }
    uint64_t elapsed = HostNanos() - start - replay_nanos;
    env.samples->pass_ms.push_back(Millis(elapsed));

    // Gates: every artifact installed on a verified proof, and the fresh
    // replica's cache byte-equals the rewriting replica's.
    const StatsRegistry& stats = fresh->stats();
    env.counts->Check(fresh->replicated_installs() == artifact_records_);
    env.counts->Check(stats.Value("proxy.cert_rejects") == 0 &&
                      stats.Value("proxy.cert_missing") == 0);
    bool equal = true;
    for (const CommitRecord& record : log) {
      if (record.type != CommitRecordType::kArtifact) {
        continue;
      }
      auto want = cluster_->replica(0).cache().Peek(record.cache_key);
      auto got = fresh->cache().Peek(record.cache_key);
      equal &= want.has_value() && got.has_value() && want->main_class == got->main_class &&
               want->extra_classes == got->extra_classes &&
               want->certificate == got->certificate && want->epoch == got->epoch;
    }
    env.counts->Check(equal);
    if (env.sums != nullptr) {
      AddProxyCounters(env, *fresh);
    }
  }

 private:
  // Traced only: the install check's layer calls, replayed on the record.
  void ReplayInstall(PassEnv& env, SpanId apply, const CommitRecord& record) {
    Tracer* t = env.tracer;
    Result<ClassCertificate> cert =
        Timed(t, "verifier.cert_parse", apply, [&] { return ParseCertificate(record.certificate); });
    Result<ClassFile> main =
        Timed(t, "bytecode.read", apply, [&] { return ReadClassFile(record.main_class); });
    env.counts->Check(cert.ok() && main.ok());
    if (!cert.ok() || !main.ok()) {
      return;
    }
    MapClassEnv artifact_env;
    artifact_env.Add(&main.value());
    ChainedClassEnv cert_env(&artifact_env, &library_env_);
    ValidateStats stats;
    Status valid = Timed(t, "verifier.cert_validate", apply, [&] {
      return ValidateCertificate(main.value(), cert_env, cert.value(), &stats);
    });
    env.counts->Check(valid.ok());
    Add(env, "verifier.validate_checks", static_cast<double>(stats.TotalChecks()));
    Add(env, "verifier.cert_kb", static_cast<double>(record.certificate.size()) / 1024.0);
  }

  uint64_t seed_;
  std::vector<ClassFile> library_;
  MapClassEnv library_env_;
  SecurityPolicy policy_;
  std::unique_ptr<Population> pop_;
  std::unique_ptr<ProxyCluster> cluster_;
  uint64_t artifact_records_ = 0;
};

// --- run loop and report -------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::string workload;
  Counts counts;
  std::vector<Metric> metrics;
  std::vector<Metric> summary;  // the same numbers under the workload's own names
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "cold_fetch") return std::make_unique<ColdFetch>(seed);
  if (name == "parallel_fetch") return std::make_unique<ParallelFetch>(seed);
  if (name == "warm_launch") return std::make_unique<WarmLaunch>();
  if (name == "replica_catchup") return std::make_unique<ReplicaCatchup>(seed);
  return nullptr;
}

// Runs passes until `seconds` of wall time have gone (at least four passes).
void Measure(Workload& w, double seconds, PassEnv env) {
  const uint64_t deadline = HostNanos() + static_cast<uint64_t>(seconds * 1e9);
  while (env.samples->passes < 4 || HostNanos() < deadline) {
    SpanId pass =
        TraceBegin(env.tracer, std::string(w.name()) + ".pass", 0, HostNanos(), "host");
    env.parent = pass;
    PinToSlot(env.samples->passes);
    const uint64_t start = HostNanos();
    w.Pass(env);
    const uint64_t end = HostNanos();
    TraceEnd(env.tracer, pass, end);
    env.samples->wall_ms.push_back(Millis(end - start));
    env.samples->passes++;
  }
}

// Per-layer metrics from the traced passes: span means by name plus the
// layer sums, normalised per pass or per operation.
std::vector<Metric> LayerMetrics(const Tracer& tracer, const LayerSums& sums, const Samples& traced) {
  std::map<std::string, std::vector<double>> durations;
  std::map<SpanId, uint64_t> child_nanos;
  std::vector<Span> spans = tracer.Finished();
  for (const Span& span : spans) {
    durations[span.name].push_back(static_cast<double>(span.duration_nanos()));
    child_nanos[span.parent] += span.duration_nanos();
  }
  std::vector<double> unaccounted;
  for (const Span& span : spans) {
    if (span.name == "proxy.miss" && child_nanos.count(span.id) > 0) {
      unaccounted.push_back(static_cast<double>(span.duration_nanos()) -
                            static_cast<double>(child_nanos[span.id]));
    }
  }
  auto mean_us = [&](const std::string& name) { return Mean(durations[name]) / 1e3; };
  auto sum = [&](const std::string& name) {
    auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  };
  const double passes = std::max<double>(1.0, static_cast<double>(traced.passes));
  const double misses = std::max<double>(1.0, static_cast<double>(durations["proxy.miss"].size()));
  const double records =
      std::max<double>(1.0, static_cast<double>(durations["proxy.apply_record"].size()));
  // Checks and sizes are per miss in cold_fetch and per record in replica_catchup.
  const double per = durations["proxy.apply_record"].empty() ? misses : records;
  double run_nanos = 0;
  for (double d : durations["runtime.run"]) {
    run_nanos += d;
  }
  const double instructions = sum("runtime.instructions");

  std::vector<Metric> m = {
      {"bytecode.read_us", mean_us("bytecode.read"), "us"},
      {"bytecode.write_us", mean_us("bytecode.write"), "us"},
      {"bytecode.origin_kb", sum("bytecode.origin_kb") / misses, "KiB"},
      {"bytecode.artifact_kb", sum("bytecode.artifact_kb") / misses, "KiB"},
      {"services.reflection_us", mean_us("services.reflection"), "us"},
      {"services.verification_us", mean_us("services.verification"), "us"},
      {"services.security_us", mean_us("services.security"), "us"},
      {"services.audit_us", mean_us("services.audit"), "us"},
      {"services.checks", sum("services.checks") / misses, "count"},
      {"verifier.cert_fixpoint_us", mean_us("verifier.cert_fixpoint"), "us"},
      {"verifier.cert_serialize_us", mean_us("verifier.cert_serialize"), "us"},
      {"verifier.cert_parse_us", mean_us("verifier.cert_parse"), "us"},
      {"verifier.cert_validate_us", mean_us("verifier.cert_validate"), "us"},
      {"verifier.static_checks", sum("verifier.static_checks") / misses, "count"},
      {"verifier.validate_checks", sum("verifier.validate_checks") / per, "count"},
      {"verifier.cert_kb", sum("verifier.cert_kb") / per, "KiB"},
      {"proxy.miss_us", mean_us("proxy.miss"), "us"},
      {"proxy.hit_us", mean_us("proxy.hit"), "us"},
      {"proxy.hit_us_p99", Percentile(durations["proxy.hit"], 99.0) / 1e3, "us"},
      {"proxy.apply_record_us", mean_us("proxy.apply_record"), "us"},
      {"proxy.miss_unaccounted_us", Mean(unaccounted) / 1e3, "us"},
      {"proxy.cpu_per_wall",
       sum("proxy.wall_ns") > 0 ? sum("proxy.cpu_ns") / sum("proxy.wall_ns") : 0.0, "ratio"},
  };
  for (const char* name : {"proxy.rewrites", "proxy.cert_emits", "proxy.cert_emit_failures",
                           "proxy.cert_validations", "proxy.cert_rejects", "proxy.cert_missing",
                           "proxy.lock_acquisitions", "proxy.coalesced", "proxy.cache_hits",
                           "proxy.cache_misses"}) {
    m.push_back({name, sum(name) / passes, "count"});
  }
  m.push_back({"dvm.client_init_us", mean_us("dvm.client_init"), "us"});
  m.push_back({"dvm.fetch_us", mean_us("dvm.fetch"), "us"});
  m.push_back({"runtime.load_us", mean_us("runtime.load"), "us"});
  m.push_back({"runtime.run_ms", Mean(durations["runtime.run"]) / 1e6, "ms"});
  m.push_back({"runtime.ns_per_instr", instructions > 0 ? run_nanos / instructions : 0.0, "ns"});
  for (const char* name :
       {"runtime.instructions", "runtime.classes_loaded", "runtime.quickened_sites",
        "runtime.tier_compiles", "runtime.osr_entries", "runtime.tier_deopts", "runtime.gc_runs",
        "runtime.allocated_bytes", "runtime.dynamic_verify_checks", "runtime.security_checks",
        "runtime.audit_events"}) {
    m.push_back({name, sum(name) / passes,
                 std::strcmp(name, "runtime.allocated_bytes") == 0 ? "B" : "count"});
  }
  return m;
}

// The timed operations of a run, summarised over every measured pass.
struct OpStats {
  std::vector<double> latencies_ms;  // per operation (FastestOps) or pooled
  double p50_ms = 0;
  double tail_ms = 0;
  double ops_per_s = 0;
};

OpStats Summarise(const Workload& w, const Samples& s) {
  OpStats out;
  if (w.repeats_ops()) {
    // One latency per operation; work per second of operation time.
    out.latencies_ms = FastestOps(s);
    double total_ms = 0;
    for (double ms : out.latencies_ms) {
      total_ms += ms;
    }
    out.ops_per_s = total_ms > 0 ? static_cast<double>(out.latencies_ms.size()) * 1e3 / total_ms : 0;
  } else {
    // parallel_fetch: every hit of every pass; misses per wall second of a pass.
    out.latencies_ms = s.op_ms;
    out.ops_per_s = Median(s.rate);
  }
  out.p50_ms = Percentile(out.latencies_ms, 50);
  out.tail_ms = Percentile(out.latencies_ms, TailPercentile(out.latencies_ms.size()));
  return out;
}

// The end-to-end metrics under the names each workload is discussed by.
std::vector<Metric> Summary(const std::string& workload, const Samples& s, const OpStats& ops) {
  if (workload == "cold_fetch") {
    return {{"miss_ms_p50", ops.p50_ms, "ms"},
            {"miss_ms_p90", Percentile(ops.latencies_ms, 90), "ms"}};
  }
  if (workload == "parallel_fetch") {
    return {{"parallel_miss_per_s", ops.ops_per_s, "1/s"},
            {"parallel_hit_us_p99", Percentile(ops.latencies_ms, 99) * 1e3, "us"}};
  }
  if (workload == "warm_launch") {
    return {{"warm_pass_ms", Median(s.pass_ms), "ms"}};
  }
  return {{"catchup_ms", Median(s.pass_ms), "ms"}};
}

Report RunWorkload(const std::string& name, const Options& opt, Tracer* tracer) {
  Report report;
  report.workload = name;
  std::unique_ptr<Workload> w = MakeWorkload(name, opt.seed);

  // Set up several times; the last set-up's state is the one measured.
  std::vector<double> setup_s;
  uint64_t setup_total = 0;
  while (setup_s.size() < 3 || (setup_total < 2'000'000'000ULL && setup_s.size() < 31)) {
    uint64_t start = HostNanos();
    PinToSlot(setup_s.size());
    w->Setup(report.counts);
    uint64_t elapsed = HostNanos() - start;
    setup_total += elapsed;
    setup_s.push_back(Seconds(elapsed));
  }

  Samples warmup;
  PassEnv env{nullptr, 0, &warmup, &report.counts, nullptr};
  for (int i = 0; i < w->warmup_passes(); i++) {
    w->Pass(env);
    warmup.passes++;
  }

  Samples untraced;
  env.samples = &untraced;
  Measure(*w, opt.trace ? opt.seconds / 2 : opt.seconds, env);
  const OpStats plain = Summarise(*w, untraced);

  report.summary = Summary(name, untraced, plain);
  if (!opt.trace) {
    report.metrics = {{"setup_s", Median(setup_s), "s"},
                      {"op_ms_p50", plain.p50_ms, "ms"},
                      {"op_ms_tail", plain.tail_ms, "ms"},
                      {"ops_per_s", plain.ops_per_s, "1/s"},
                      {"peak_rss_mb", PeakRssMb(), "MB"}};
    return report;
  }
  Samples traced;
  LayerSums sums;
  env = PassEnv{tracer, 0, &traced, &report.counts, &sums};
  const uint64_t cpu0 = ProcessCpuNanos();
  const uint64_t wall0 = HostNanos();
  Measure(*w, opt.seconds / 2, env);
  if (sums.count("proxy.wall_ns") == 0) {
    sums["proxy.cpu_ns"] = static_cast<double>(ProcessCpuNanos() - cpu0);
    sums["proxy.wall_ns"] = static_cast<double>(HostNanos() - wall0);
  }
  report.metrics = LayerMetrics(*tracer, sums, traced);
  // Tracing overhead: the traced pass, spans and replays included, minus the
  // untraced one; then each timed end-to-end number traced minus untraced.
  const OpStats with_spans = Summarise(*w, traced);
  report.metrics.push_back(
      {"trace.overhead_ms", Median(traced.wall_ms) - Median(untraced.wall_ms), "ms"});
  report.metrics.push_back({"trace.op_ms_p50_delta", with_spans.p50_ms - plain.p50_ms, "ms"});
  report.metrics.push_back({"trace.op_ms_tail_delta", with_spans.tail_ms - plain.tail_ms, "ms"});
  report.metrics.push_back(
      {"trace.ops_per_s_delta", with_spans.ops_per_s - plain.ops_per_s, "1/s"});
  return report;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); i++) {
    out += (i > 0 ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: dvm_perfbench --workload "
               "<cold_fetch|parallel_fetch|warm_launch|replica_catchup|all> --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) {
    return Usage();
  }
  std::vector<std::string> workloads = {opt.workload};
  if (opt.workload == "all") {
    workloads = {"cold_fetch", "parallel_fetch", "warm_launch", "replica_catchup"};
  } else if (MakeWorkload(opt.workload, opt.seed) == nullptr) {
    return Usage();
  }
  const auto provenance = Provenance(opt.seed);
  std::string prov_json = "{";
  for (size_t i = 0; i < provenance.size(); i++) {
    prov_json += (i > 0 ? ", " : "") + JsonString(provenance[i].first) + ": " +
                 JsonString(provenance[i].second);
  }
  prov_json += "}";
  std::printf("provenance %s\n", prov_json.c_str());
  if (!kOptimized) {
    std::fprintf(stderr, "dvm_perfbench: refusing to report numbers from an unoptimized build\n");
    return 3;
  }

  Tracer tracer;
  std::vector<Report> reports;
  for (const std::string& name : workloads) {
    reports.push_back(RunWorkload(name, opt, &tracer));
    const Report& r = reports.back();
    std::printf("%s attempted=%" PRIu64 " failed=%" PRIu64, r.workload.c_str(), r.counts.attempted,
                r.counts.failed);
    for (const auto* list : {&r.summary, &r.metrics}) {
      for (const Metric& m : *list) {
        std::printf(" %s=%s%s", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    out << ChromeTraceJson(tracer.Finished(), provenance);
  }

  Counts total;
  std::vector<Metric> metrics;
  for (const Report& r : reports) {
    total.attempted += r.counts.attempted;
    total.failed += r.counts.failed;
    const std::string prefix = workloads.size() > 1 ? r.workload + "." : "";
    for (const auto* list : {&r.summary, &r.metrics}) {
      if (list == &r.summary && workloads.size() == 1) {
        continue;
      }
      for (const Metric& m : *list) {
        metrics.push_back({prefix + m.name, m.value, m.unit});
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              total.failed == 0 ? "true" : "false", total.attempted, total.failed,
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace dvm::perfbench

int main(int argc, char** argv) { return dvm::perfbench::Main(argc, argv); }
