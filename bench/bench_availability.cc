// Availability under faults: the repo's first robustness trajectory numbers.
// The paper's answer to "the proxy is a single point of failure" is
// replication (§2); this bench measures what that buys when replicas actually
// die and links actually drop. Sweeps replica-kill schedules and per-link
// drop rates over a redirecting client fetching an applet population through
// a 3-replica rendezvous-routed cluster, and reports p50/p99 fetch latency,
// success rate, and the failover/timeout/fail-closed counters.
//
// Acceptance properties demonstrated:
//   - one replica killed mid-run: success stays 100% via failover, p99
//     inflation bounded by the request deadline + backoff;
//   - all replicas down: verification-dependent fetches fail closed (zero
//     unverified classes served), fail-closed counter == rejection count;
//   - identical seeds reproduce identical fault traces and virtual clocks.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/dvm/redirect_client.h"
#include "src/runtime/syslib.h"
#include "src/services/slo_monitor.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/support/stats.h"
#include "src/workloads/applets.h"

using namespace dvm;
using namespace dvm::bench;

namespace {

constexpr size_t kReplicas = 3;

struct Scenario {
  MapClassProvider* origin;
  MapClassEnv* env;
  DvmServer* server;
  std::vector<std::string> classes;
};

struct RunResult {
  size_t attempts = 0;
  size_t successes = 0;
  // Snapshot of the log-bucketed fetch-latency histogram (nanos); quantiles
  // are accurate to one bucket width (~2-4% relative error).
  Histogram::Snapshot latency;
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  uint64_t fail_closed = 0;
  uint64_t dropped = 0;
  uint64_t trace_fingerprint = 0;
  uint64_t final_nanos = 0;
  // Burn-rate SLO monitor output: every ALERT/CLEAR with its virtual
  // timestamp. Byte-compared across same-seed runs.
  std::string slo_log;
  size_t slo_alerts = 0;
};

// SLO monitor settings: evaluate a burn-rate window every 16 fetches. The
// healthy fetch path costs ~1.4s p99 (verification pipeline + 10 Mb/s access
// link), and the log-bucketed histogram quantizes that window's p99 up to at
// most ~2.1s — so the ceiling sits at 3s: no healthy window can page, only a
// multi-second degradation can. The success rule pages when a window's
// success ratio drops below 99% (ppm scale).
constexpr size_t kSloWindow = 16;
constexpr uint64_t kP99CeilingNanos = 3 * kSecond;
constexpr uint64_t kMinSuccessPpm = 990'000;

// Fetches every class once through a fresh cluster + client under `plan`.
RunResult RunSweep(Scenario& s, const FaultPlan& plan) {
  ProxyCluster cluster(kReplicas, ProxyConfig{}, s.env, s.origin);
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
  }
  FaultInjector injector(plan);
  cluster.SetFaultInjector(&injector);

  RedirectingClient client(s.server, nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(&cluster);

  RunResult result;
  StatsRegistry stats;
  Histogram& latency = stats.Histo("bench.fetch_nanos");
  StatCounter& fetch_ok = stats.Counter("bench.fetch_ok");
  StatCounter& fetch_total = stats.Counter("bench.fetch_total");
  AdministrationConsole console;
  SloMonitor slo("client", &console);
  slo.AddRule(P99CeilingRule("fetch-p99", "bench.fetch_nanos", kP99CeilingNanos,
                             /*min_events=*/kSloWindow / 2));
  slo.AddRule(MinSuccessRule("fetch-success", "bench.fetch_ok", "bench.fetch_total",
                             kMinSuccessPpm, /*min_events=*/kSloWindow / 2));
  slo.Evaluate(stats.FullSnapshot(), client.machine().virtual_nanos());
  for (const auto& name : s.classes) {
    uint64_t before = client.machine().virtual_nanos();
    auto bytes = client.FetchClass(name);
    uint64_t after = client.machine().virtual_nanos();
    result.attempts++;
    fetch_total.Add();
    if (bytes.ok()) {
      result.successes++;
      latency.Record(after - before);
      fetch_ok.Add();
    }
    if (result.attempts % kSloWindow == 0) {
      slo.Evaluate(stats.FullSnapshot(), after);
    }
  }
  slo.Evaluate(stats.FullSnapshot(), client.machine().virtual_nanos());
  result.slo_log = slo.TransitionLog();
  for (const auto& event : console.log()) {
    result.slo_alerts += event.kind == "slo-alert" ? 1 : 0;
  }
  result.latency = latency.TakeSnapshot();
  result.timeouts = client.timeouts();
  result.retries = client.retries();
  result.failovers = client.failovers();
  result.fail_closed = client.fail_closed_rejections();
  result.dropped = injector.dropped();
  result.trace_fingerprint = injector.TraceFingerprint();
  result.final_nanos = client.machine().virtual_nanos();
  return result;
}

std::string Pct(size_t num, size_t den) {
  return FmtDouble(den == 0 ? 0.0 : 100.0 * static_cast<double>(num) / den, 1) + "%";
}

void PrintResult(const std::string& label, const RunResult& r) {
  PrintRow({label, Pct(r.successes, r.attempts),
            FmtHistPct(r.latency, 50, 1e6), FmtHistPct(r.latency, 99, 1e6),
            std::to_string(r.timeouts), std::to_string(r.retries),
            std::to_string(r.failovers), std::to_string(r.fail_closed)},
           12);
}

}  // namespace

int main() {
  PrintHeader("Availability under replica failures and message loss",
              "Section 2 replication claim, made falsifiable");

  auto applets = BuildAppletPopulation(40, /*seed=*/31);
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
  MapClassEnv env;
  for (const auto& cls : library) {
    env.Add(&cls);
  }
  DvmServerConfig server_config;
  server_config.policy = PermissivePolicy();
  server_config.proxy.sign_output = true;
  DvmServer server(std::move(server_config), &origin);

  Scenario scenario{&origin, &env, &server, classes};

  std::printf("\n%zu classes, %zu replicas, verification pipeline, fail-closed policy\n\n",
              classes.size(), kReplicas);
  PrintRow({"Scenario", "Success", "p50(ms)", "p99(ms)", "Timeout", "Retry", "Failover",
            "FailClosed"},
           12);

  // Baseline: no faults.
  FaultPlan healthy;
  healthy.seed = 97;
  RunResult baseline = RunSweep(scenario, healthy);
  PrintResult("baseline", baseline);

  // One replica killed mid-run (at half the baseline's virtual duration).
  FaultPlan kill_one = healthy;
  kill_one.replica_outages[1] = {{baseline.final_nanos / 2, kSimTimeForever}};
  RunResult killed = RunSweep(scenario, kill_one);
  PrintResult("kill-1@mid", killed);

  // Two replicas killed mid-run: the last survivor absorbs everything.
  FaultPlan kill_two = kill_one;
  kill_two.replica_outages[2] = {{baseline.final_nanos / 2, kSimTimeForever}};
  RunResult killed2 = RunSweep(scenario, kill_two);
  PrintResult("kill-2@mid", killed2);

  // Message-drop sweep on the client's access link.
  for (double drop : {0.05, 0.20, 0.40}) {
    FaultPlan lossy = healthy;
    lossy.links["client-proxy"] = LinkFaults{drop, 0, 2 * kMillisecond, /*outages=*/{}};
    RunResult r = RunSweep(scenario, lossy);
    PrintResult("drop-" + FmtDouble(drop, 2), r);
  }

  // Total outage: every replica down from t=0.
  FaultPlan blackout = healthy;
  for (size_t i = 0; i < kReplicas; i++) {
    blackout.replica_outages[i] = {{0, kSimTimeForever}};
  }
  RunResult dark = RunSweep(scenario, blackout);
  PrintResult("all-down", dark);

  bool ok = true;

  std::printf("\nChecks:\n");
  bool failover_ok = killed.successes == killed.attempts && killed.failovers > 0;
  std::printf("  kill-1 success rate stays 100%% via failover: %s\n",
              failover_ok ? "PASS" : "FAIL");
  ok &= failover_ok;

  double p99_inflation =
      (killed.latency.Percentile(99) - baseline.latency.Percentile(99)) / 1e6;
  bool p99_ok = p99_inflation < 600.0;  // deadline (250 ms) + backoff + slack
  std::printf("  kill-1 p99 inflation bounded (%.1f ms < 600 ms): %s\n", p99_inflation,
              p99_ok ? "PASS" : "FAIL");
  ok &= p99_ok;

  bool closed_ok = dark.successes == 0 && dark.fail_closed == dark.attempts;
  std::printf("  all-down fails closed (0 unverified classes executed, "
              "%llu rejections == %zu attempts): %s\n",
              static_cast<unsigned long long>(dark.fail_closed), dark.attempts,
              closed_ok ? "PASS" : "FAIL");
  ok &= closed_ok;

  bool slo_quiet = baseline.slo_alerts == 0;
  std::printf("  baseline trips no SLO alerts: %s\n", slo_quiet ? "PASS" : "FAIL");
  ok &= slo_quiet;

  bool slo_burn = dark.slo_alerts > 0 &&
                  dark.slo_log.find("ALERT fetch-success") != std::string::npos;
  std::printf("  all-down trips the fetch-success burn-rate alert: %s\n",
              slo_burn ? "PASS" : "FAIL");
  ok &= slo_burn;
  if (!dark.slo_log.empty()) {
    std::printf("  all-down SLO transitions (virtual nanos):\n%s", dark.slo_log.c_str());
  }

  RunResult killed_again = RunSweep(scenario, kill_one);
  bool deterministic = killed_again.trace_fingerprint == killed.trace_fingerprint &&
                       killed_again.final_nanos == killed.final_nanos &&
                       killed_again.slo_log == killed.slo_log;
  std::printf("  identical seed reproduces identical trace, clock, and SLO log: %s\n",
              deterministic ? "PASS" : "FAIL");
  ok &= deterministic;

  std::printf("\nRendezvous routing redistributes only the dead replica's shard; the\n"
              "deadline + capped backoff bound each fetch's worst case; verification\n"
              "and security fail closed by construction, so an outage can delay code\n"
              "but never let unverified code run.\n");
  return ok ? 0 : 1;
}
