// dvm_trace: run a scripted workload on the virtual clock and export its
// execution trace (Chrome trace_event JSON, loadable in chrome://tracing or
// https://ui.perfetto.dev) plus a Prometheus-style metrics snapshot of every
// counter and histogram. Because the whole run rides the deterministic
// virtual clock, identical seeds produce byte-identical output files — CI
// runs this twice and diffs the bytes.
//
//   dvm_trace --workload=fig6 --seed=7 --out=trace.json --metrics=metrics.txt
//
// The fig6 workload replays the end-to-end fetch mix: a population of
// Internet applets pulled through a 3-replica signing proxy cluster by a
// redirecting client, with a fault plan (one replica killed mid-run, a lossy
// access link) so the trace shows failover, backoff, deadline waits, and the
// proxy pipeline stages next to healthy cache-hit traffic. The completed
// spans are ingested by the AdministrationConsole (the paper's §3.3 central
// monitoring point) and exported from there.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/dvm/redirect_client.h"
#include "src/runtime/syslib.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/support/trace.h"
#include "src/workloads/applets.h"

using namespace dvm;

namespace {

struct Options {
  std::string workload = "fig6";
  uint64_t seed = 7;
  std::string out = "-";      // Chrome trace JSON ("-" = stdout)
  std::string metrics;        // Prometheus text (empty = skip, "-" = stdout)
  int applets = 24;
  size_t replicas = 3;
};

void Usage() {
  std::fprintf(stderr,
               "usage: dvm_trace [--workload=fig6] [--seed=N] [--out=FILE|-]\n"
               "                 [--metrics=FILE|-] [--applets=N] [--replicas=N]\n");
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto eq = arg.find('=');
    std::string key = arg.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      opts->workload = value;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--out") {
      opts->out = value;
    } else if (key == "--metrics") {
      opts->metrics = value;
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
  if (opts->workload != "fig6") {
    std::fprintf(stderr, "unknown workload: %s (supported: fig6)\n", opts->workload.c_str());
    return false;
  }
  if (opts->applets < 1 || opts->replicas < 1) {
    std::fprintf(stderr, "--applets and --replicas must be >= 1\n");
    return false;
  }
  return true;
}

SecurityPolicy TracePolicy() {
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

bool WriteOutput(const std::string& path, const std::string& data) {
  if (path == "-") {
    std::fwrite(data.data(), 1, data.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    return 2;
  }

  // --- workload setup (all deterministic in opts.seed) -----------------------
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
  MapClassEnv library_env;
  for (const auto& cls : library) {
    library_env.Add(&cls);
  }

  DvmServerConfig server_config;
  server_config.policy = TracePolicy();
  server_config.proxy.sign_output = true;
  DvmServer server(std::move(server_config), &origin);

  ProxyCluster cluster(opts.replicas, ProxyConfig{}, &library_env, &origin);
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
  }

  // Fault plan: replica 1 (when present) is down for a fixed virtual window
  // mid-run, and the client's access link drops 3% of messages with up to
  // 1 ms of injected delay. Fixed windows + seeded streams keep every
  // decision reproducible.
  FaultPlan plan;
  plan.seed = opts.seed;
  if (opts.replicas > 1) {
    plan.replica_outages[1] = {{3 * kSecond, 10 * kSecond}};
  }
  plan.links["client-proxy"] = LinkFaults{0.03, 0, kMillisecond, /*outages=*/{}};
  FaultInjector injector(plan);
  cluster.SetFaultInjector(&injector);

  RedirectingClient client(&server, nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(&cluster);
  Tracer tracer;
  client.SetTracer(&tracer);

  // --- scripted fetch mix ----------------------------------------------------
  // Every class once (cold: full pipeline per rendezvous owner), then the
  // first half again (warm: cache hits), the fig6 cold-vs-cached contrast.
  size_t failures = 0;
  for (const auto& name : classes) {
    if (!client.FetchClass(name).ok()) {
      failures++;
    }
  }
  for (size_t i = 0; i < classes.size() / 2; i++) {
    if (!client.FetchClass(classes[i]).ok()) {
      failures++;
    }
  }

  // --- export ----------------------------------------------------------------
  // The console is the trace sink: completed spans are filed centrally next
  // to the audit log, then exported from there.
  AdministrationConsole& console = server.console();
  console.IngestTrace(tracer);

  std::vector<std::pair<std::string, std::string>> metadata = {
      {"workload", opts.workload},
      {"seed", std::to_string(opts.seed)},
      {"classes", std::to_string(classes.size())},
      {"fetches", std::to_string(classes.size() + classes.size() / 2)},
      {"replicas", std::to_string(opts.replicas)},
      {"spans", std::to_string(console.spans_ingested())},
      {"fault_trace_fingerprint", std::to_string(injector.TraceFingerprint())},
  };
  std::string json = ChromeTraceJson(console.trace_spans(), metadata);
  if (!WriteOutput(opts.out, json)) {
    return 1;
  }

  if (!opts.metrics.empty()) {
    std::string text = PrometheusText(client.stats(), {{"actor", "client"}});
    for (size_t i = 0; i < cluster.size(); i++) {
      text += PrometheusText(cluster.replica(i).stats(),
                             {{"actor", "replica" + std::to_string(i)}});
    }
    if (!WriteOutput(opts.metrics, text)) {
      return 1;
    }
  }

  std::fprintf(stderr,
               "dvm_trace: %zu fetches (%zu failed), %llu spans, clock %.3f virtual s, "
               "fingerprint %llu\n",
               classes.size() + classes.size() / 2, failures,
               static_cast<unsigned long long>(console.spans_ingested()),
               static_cast<double>(client.machine().virtual_nanos()) / 1e9,
               static_cast<unsigned long long>(injector.TraceFingerprint()));
  return 0;
}
