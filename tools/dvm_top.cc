// dvm_top: one-shot "top" for a DVM fleet. Drives a deterministic applet
// workload through a replicated proxy cluster, has every replica publish its
// stats-registry snapshot to the AdministrationConsole (the paper's §3.3
// central monitoring point), runs the applet mix on a profiled interpreter,
// and renders the fleet dashboard: per-replica health and divergence, the
// fleet-merged counters, SLO status, and the sampled hot-method table.
// Everything rides the virtual clock, so identical seeds render byte-identical
// dashboards — CI can diff two runs.
//
//   dvm_top --seed=7 --applets=16 --replicas=3
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/dvm/redirect_client.h"
#include "src/runtime/machine.h"
#include "src/runtime/profile.h"
#include "src/runtime/syslib.h"
#include "src/services/fleet_metrics.h"
#include "src/services/security_service.h"
#include "src/services/slo_monitor.h"
#include "src/services/verify_service.h"
#include "src/support/stats.h"
#include "src/workloads/applets.h"

using namespace dvm;

namespace {

struct Options {
  uint64_t seed = 7;
  int applets = 16;
  size_t replicas = 3;
};

void Usage() {
  std::fprintf(stderr, "usage: dvm_top [--seed=N] [--applets=N] [--replicas=N]\n");
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto eq = arg.find('=');
    std::string key = arg.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--applets") {
      opts->applets = std::atoi(value.c_str());
    } else if (key == "--replicas") {
      opts->replicas = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (key == "--help" || key == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return false;
    }
  }
  if (opts->applets < 1 || opts->replicas < 1) {
    std::fprintf(stderr, "--applets and --replicas must be >= 1\n");
    return false;
  }
  return true;
}

void PrintCounterRow(const char* name,
                     const std::map<size_t, ReplicaSnapshot>& snaps) {
  std::printf("  %-28s", name);
  for (const auto& [replica, snap] : snaps) {
    std::printf(" %10" PRIu64, snap.stats.CounterValue(name));
  }
  std::printf("\n");
}

SecurityPolicy TopPolicy() {
  auto policy = ParseSecurityPolicy(R"(
    <policy version="1">
      <domain sid="user" code="app/*"/>
      <domain sid="user" code="applet/*"/>
      <allow sid="user" operation="*" target="*"/>
    </policy>)");
  if (!policy.ok()) {
    std::abort();
  }
  return std::move(policy).value();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    return 2;
  }

  // --- fleet workload (deterministic in seed) --------------------------------
  auto applets = BuildAppletPopulation(opts.applets, opts.seed);
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
  server_config.policy = TopPolicy();
  server_config.proxy.sign_output = true;
  DvmServer server(std::move(server_config), &origin);

  ProxyCluster cluster(opts.replicas, ProxyConfig{}, &env, &origin);
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
  }
  RedirectingClient client(&server, nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(&cluster);

  AdministrationConsole console;
  FleetMetricsPublisher publisher(nullptr, &console);
  SloMonitor slo("client", &console);
  slo.AddRule(P99CeilingRule("fetch-p99", "redirect.fetch_nanos",
                             /*ceiling=*/150 * kMillisecond, /*min_events=*/4));

  size_t failures = 0;
  auto publish_round = [&] {
    uint64_t now = client.machine().virtual_nanos();
    for (size_t i = 0; i < cluster.size(); i++) {
      publisher.Publish(i, cluster.replica(i).stats(), now);
    }
    slo.Evaluate(client.stats().FullSnapshot(), now);
  };
  // Cold pass (full pipeline on each rendezvous owner), then a warm pass over
  // the first half (cache hits) — with a fleet snapshot round after each.
  for (const auto& name : classes) {
    failures += client.FetchClass(name).ok() ? 0 : 1;
  }
  publish_round();
  for (size_t i = 0; i < classes.size() / 2; i++) {
    failures += client.FetchClass(classes[i]).ok() ? 0 : 1;
  }
  publish_round();

  // --- profiled guest execution ---------------------------------------------
  // The same applet population runs on a local profiled interpreter: the
  // hot-method view the profiling service exports.
  MapClassProvider local;
  InstallSystemLibrary(local);
  for (const auto& applet : applets) {
    applet.InstallInto(&local);
  }
  Machine vm(MachineConfig{}, &local);
  ExecutionProfiler profiler;
  vm.SetProfiler(&profiler);
  size_t guest_failures = 0;
  for (const auto& applet : applets) {
    auto run = vm.RunMain(applet.main_class);
    guest_failures += run.ok() && !run->threw ? 0 : 1;
  }
  vm.SetProfiler(nullptr);

  // --- dashboard -------------------------------------------------------------
  uint64_t now = client.machine().virtual_nanos();
  std::printf("dvm_top — fleet snapshot @ virtual %.3fs  seed=%" PRIu64
              "  replicas=%zu  classes=%zu  fetch_failures=%zu\n\n",
              static_cast<double>(now) / 1e9, opts.seed, opts.replicas,
              classes.size(), failures);

  const std::map<size_t, ReplicaSnapshot>& snaps = console.replica_snapshots();
  std::printf("== replicas (%zu reporting) ==\n  %-28s", snaps.size(), "counter");
  for (const auto& [replica, snap] : snaps) {
    std::printf("   replica%zu", replica);
  }
  std::printf("\n");
  for (const char* name : {"proxy.rewrites", "proxy.generated_hits", "proxy.coalesced",
                           "proxy.lock_acquisitions"}) {
    PrintCounterRow(name, snaps);
  }
  std::printf("  %-28s", "snapshot_age_ms");
  for (const auto& [replica, snap] : snaps) {
    std::printf(" %10" PRIu64, (now - snap.taken_at) / kMillisecond);
  }
  std::printf("\n\n== divergence ==\n%s", console.DivergenceView().c_str());

  StatsSnapshot fleet = console.FleetMerged();
  std::printf("\n== fleet (merged, %" PRIu64 " snapshots ingested, %" PRIu64
              " published) ==\n",
              console.snapshots_ingested(), publisher.published());
  for (const auto& [name, value] : fleet.counters) {
    std::printf("  %-40s %12" PRIu64 "\n", name.c_str(), value);
  }

  std::printf("\n== slo ==\n  rules=1 firing=%zu evaluations=%" PRIu64 "\n",
              slo.firing_count(), slo.evaluations());
  std::string transitions = slo.TransitionLog();
  std::printf("%s", transitions.empty() ? "  (no transitions)\n" : transitions.c_str());

  std::printf("\n== hot methods (guest: %d applets, %zu failed, %" PRIu64
              " samples @ %" PRIu64 "ns) ==\n%s",
              opts.applets, guest_failures, profiler.samples(),
              profiler.sample_period_nanos(),
              MethodProfileTable(CollectMethodProfile(vm.registry()), 12).c_str());

  std::printf("\n== console ==\n  audit_events=%" PRIu64 " dropped=%" PRIu64
              " spans=%" PRIu64 " span_drops=%" PRIu64 "\n",
              console.events_received(), console.events_dropped(),
              console.spans_ingested(), console.spans_dropped());
  return 0;
}
