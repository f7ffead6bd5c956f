// Figure 10: sustained proxy throughput versus number of simultaneous clients,
// with proxy caching DISABLED (worst case: every request is parsed,
// instrumented and regenerated). Clients fetch distinct applets from the
// simulated Internet through a single proxy host with 64 MB of memory.
//
// Expected shape: throughput grows linearly to ~250 clients, then degrades as
// the proxy's memory is exhausted and it starts paging; per-kB client latency
// stays roughly flat (1.0-1.2 s/kB) while the proxy is healthy.
//
// Everything printed is virtual time, so the output is byte-identical from
// run to run (bench/golden/bench_fig10_scaling.txt). Host-time throughput of
// the concurrent request path is perfbench's `parallel_fetch` workload.
#include <algorithm>
#include <queue>

#include "bench/bench_util.h"
#include "src/proxy/proxy.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/simnet/sim.h"
#include "src/workloads/applets.h"

namespace dvm {
namespace {

struct ScalingResult {
  double throughput_bytes_per_sec = 0;
  double latency_sec_per_kb = 0;
  // Per-fetch latency distribution (nanos per kB), log-bucketed.
  Histogram::Snapshot latency_per_kb;
};

// Discrete-event run: each of `num_clients` fetches `fetches_per_client`
// distinct applets back-to-back. The proxy CPU is a shared FIFO server whose
// service time inflates once memory is overcommitted.
ScalingResult RunScaling(int num_clients, int fetches_per_client,
                         const std::vector<AppBundle>& applets) {
  // Origin: every applet's classes, reachable over the 1999 Internet.
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  for (const auto& applet : applets) {
    applet.InstallInto(&origin);
  }

  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv library_env;
  for (const auto& cls : library) {
    library_env.Add(&cls);
  }
  ProxyConfig config;
  config.enable_cache = false;  // paper: worst case, caching disabled
  // The scaling run uses a cheaper per-byte CPU model than the end-to-end
  // benchmarks: the paper's own constants disagree across experiments (a
  // proxy that costs 265 ms per 20 KB applet cannot also sustain 250 WAN
  // clients CPU-bound), and its analysis attributes the Figure 10 knee to
  // MEMORY exhaustion, not CPU. We calibrate CPU so that, as in the paper,
  // memory is the binding constraint at ~250 clients. See EXPERIMENTS.md.
  config.nanos_per_byte_parse = 2'600;
  config.nanos_per_byte_emit = 900;
  DvmProxy proxy(config, &library_env, &origin);
  proxy.AddFilter(std::make_unique<VerificationFilter>());
  proxy.AddFilter(std::make_unique<AuditFilter>());

  // Per-connection WAN bandwidth of the era: ~1 KB/s per fetch stream, which
  // is what yields the paper's ~1.0-1.2 s/kB client latency.
  WanModel wan(/*seed=*/99, /*mean_latency_ms=*/600.0, /*stddev_latency_ms=*/400.0,
               /*bytes_per_second=*/1'050.0);
  CpuServer proxy_cpu;

  struct ClientState {
    int fetch = 0;         // applet round
    size_t class_index = 0;  // class within the current applet
    SimTime fetch_start = 0;
    uint64_t fetch_bytes = 0;
    SimLink link = MakeEthernet10Mb();
  };
  std::vector<ClientState> clients(static_cast<size_t>(num_clients));

  // Two event phases per class: kArriveAtProxy (after the WAN fetch; CPU jobs
  // must enter the shared FIFO server in global time order) and kDelivered.
  enum class Phase { kStartClass, kArriveAtProxy };
  struct Event {
    SimTime when;
    int client;
    Phase phase;
    uint64_t cpu_nanos;   // valid for kArriveAtProxy
    uint64_t data_bytes;  // valid for kArriveAtProxy
    bool operator>(const Event& other) const { return when > other.when; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (int c = 0; c < num_clients; c++) {
    queue.push({0, c, Phase::kStartClass, 0, 0});
  }

  uint64_t total_bytes = 0;
  StatsRegistry stats;
  Histogram& latency_per_kb = stats.Histo("bench.fetch_nanos_per_kb");
  SimTime makespan = 0;
  // All clients stay active through the run; in-flight requests hold proxy
  // workspace (this is what exhausts the 64 MB past ~250 clients).
  double thrash = proxy.ThrashFactor(static_cast<size_t>(num_clients));

  auto applet_of = [&](const ClientState& client, int client_id) -> const AppBundle& {
    size_t index = static_cast<size_t>(client_id * fetches_per_client + client.fetch) %
                   applets.size();
    return applets[index];
  };

  while (!queue.empty()) {
    Event event = queue.top();
    queue.pop();
    ClientState& client = clients[static_cast<size_t>(event.client)];

    if (event.phase == Phase::kStartClass) {
      if (client.fetch >= fetches_per_client) {
        continue;
      }
      const AppBundle& applet = applet_of(client, event.client);
      if (client.class_index == 0) {
        client.fetch_start = event.when;
        client.fetch_bytes = 0;
      }
      const std::string cls = applet.classes[client.class_index].name();
      auto response = proxy.HandleRequest(cls);
      if (!response.ok()) {
        std::abort();
      }
      SimTime cpu = static_cast<SimTime>(static_cast<double>(response->cpu_nanos) * thrash);
      SimTime arrive = event.when + wan.FetchDuration(response->origin_bytes);
      queue.push({arrive, event.client, Phase::kArriveAtProxy, cpu,
                  response->data.size()});
      continue;
    }

    // kArriveAtProxy: popped in global time order, so the FIFO CPU queue sees
    // arrivals correctly.
    SimTime done_cpu = proxy_cpu.Execute(event.when, event.cpu_nanos);
    SimTime delivered = client.link.Deliver(done_cpu, event.data_bytes);
    client.fetch_bytes += event.data_bytes;
    client.class_index++;
    const AppBundle& applet = applet_of(client, event.client);
    if (client.class_index >= applet.classes.size()) {
      total_bytes += client.fetch_bytes;
      latency_per_kb.Record((delivered - client.fetch_start) * 1024 / client.fetch_bytes);
      makespan = std::max(makespan, delivered);
      client.fetch++;
      client.class_index = 0;
    }
    queue.push({delivered, event.client, Phase::kStartClass, 0, 0});
  }

  ScalingResult result;
  result.throughput_bytes_per_sec =
      static_cast<double>(total_bytes) / (static_cast<double>(makespan) / 1e9);
  result.latency_per_kb = latency_per_kb.TakeSnapshot();
  // Mean is exact (the histogram keeps the true sum); only quantiles quantize.
  result.latency_sec_per_kb = result.latency_per_kb.Mean() / 1e9;
  return result;
}

}  // namespace
}  // namespace dvm

int main() {
  using namespace dvm;
  using namespace dvm::bench;

  PrintHeader("Proxy throughput vs number of clients (caching disabled)", "Figure 10");
  PrintRow({"Clients", "Thruput(B/s)", "s/kB", "perClient(B/s)"});

  auto applets = BuildAppletPopulation(120, /*seed=*/5);
  const int kFetches = 2;
  Histogram::Snapshot knee;
  for (int clients : {1, 10, 25, 50, 100, 150, 200, 250, 300, 350}) {
    ScalingResult r = RunScaling(clients, kFetches, applets);
    PrintRow({std::to_string(clients), FmtDouble(r.throughput_bytes_per_sec, 0),
              FmtDouble(r.latency_sec_per_kb, 2),
              FmtDouble(r.throughput_bytes_per_sec / clients, 0)});
    if (clients == 250) {
      knee = r.latency_per_kb;
    }
  }
  std::printf("\nAt the 250-client knee: p50 %s s/kB, p99 %s s/kB (log-bucketed histogram).\n",
              FmtHistPct(knee, 50, 1e9, 2).c_str(), FmtHistPct(knee, 99, 1e9, 2).c_str());
  std::printf("\nPaper shape: linear scaling to ~250 simultaneous clients, degradation\n"
              "after the proxy's 64 MB is exhausted; latency ~1.0-1.2 s/kB in range.\n");
  return 0;
}
