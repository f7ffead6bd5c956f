// Control-plane replication under partition and rejoin: what the 2PC
// epoch/artifact rounds and the commit log buy when a replica actually misses
// a policy update. An EventQueue drives a fixed schedule over an applet
// population fetched through a 3-replica cluster:
//
//   warm          — every class rewritten once, artifacts pushed fleet-wide;
//   (outage)      — replica 2 goes dark for a scheduled window;
//   epoch commit  — the policy epoch advances by a 2PC round among the
//                   live members (the dark replica misses it);
//   re-instrument — the fleet re-rewrites under the new epoch;
//   rejoin-probe  — replica 2 is back up but *behind*: with replication it
//                   fails closed (stale-epoch refusals, clients fail over);
//                   the no-replication baseline silently serves its stale
//                   old-policy cache — the bug the epoch gate exists to stop;
//   rejoin        — replica 2 replays the commit-log suffix (baseline: the
//                   operator flushes its cache and it recomputes);
//   post-rejoin   — steady state: with replication every replica serves the
//                   replayed artifacts with zero new rewrites.
//
// --check gates: 100% fetch success in both modes; byte-identical artifacts,
// equal epochs and equal log digests on every replica after rejoin; the
// behind-epoch replica fails closed (stale refusals > 0, zero stale serves)
// while the baseline demonstrably serves stale; recovery is replay, not
// recompute (0 post-rejoin rewrites vs > 0 baseline); and a same-seed rerun
// reproduces bit-identical control-plane and fault-trace fingerprints.
//
// Stdout is byte-deterministic for a given seed (--check reruns it), and the
// EventQueue checks its own (when, sequence) order on every event it runs
// (DESIGN.md §12). The CI replication-smoke job runs --check under a time
// budget.
#include <cinttypes>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/bytecode/serializer.h"
#include "src/dvm/redirect_client.h"
#include "src/dvm/replication.h"
#include "src/runtime/syslib.h"
#include "src/verifier/verifier.h"
#include "src/services/fleet_metrics.h"
#include "src/services/slo_monitor.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/support/trace.h"
#include "src/workloads/applets.h"

using namespace dvm;
using namespace dvm::bench;

namespace {

constexpr size_t kReplicas = 3;
constexpr size_t kLagger = 2;  // the replica that misses the epoch

// Queue-time schedule. Client fetch phases fast-forward the client's virtual
// clock to the phase start, and every phase is placed so the client's clock
// never crosses the next boundary mid-phase (rewrite CPU + transfers +
// timeout charges stay well inside the gaps).
constexpr SimTime kWarmAt = 1 * kMillisecond;
constexpr SimTime kOutageStart = 60 * kSecond;
constexpr SimTime kEpochAt = 70 * kSecond;
constexpr SimTime kRefetchAt = 71 * kSecond;
constexpr SimTime kOutageEnd = 200 * kSecond;
constexpr SimTime kProbeAt = 210 * kSecond;
constexpr SimTime kRejoinAt = 220 * kSecond;
constexpr SimTime kPostAt = 221 * kSecond;

struct Options {
  uint64_t seed = 23;
  int applets = 10;
  bool check = false;
};

struct Scenario {
  MapClassProvider* origin;
  MapClassEnv* env;
  DvmServer* server;
  std::vector<std::string> classes;
  std::vector<std::string> mains;
};

struct RunOutcome {
  uint64_t attempts = 0;
  uint64_t successes = 0;
  bool epoch_committed = false;
  uint64_t committed_epoch = 0;
  size_t replayed = 0;
  uint64_t total_rewrites = 0;
  uint64_t postrejoin_rewrites = 0;
  uint64_t stale_epoch_rejections = 0;
  // Cache hits served by the lagging replica while it was behind the epoch:
  // stale old-policy artifacts. Zero with replication (it fails closed).
  uint64_t stale_serves = 0;
  bool artifacts_identical = true;
  bool epochs_equal = true;
  bool logs_equal = true;
  // Proof-carrying artifacts (replicated mode only): every pushed commit
  // record must carry a certificate, every install must proof-check, and the
  // lagger's one-pass replay validation must beat re-running the full
  // verifier over the same artifacts (measured in discrete checks).
  bool certs_on_every_artifact = true;
  uint64_t cert_validations = 0;
  uint64_t cert_rejects = 0;
  uint64_t cert_missing = 0;
  uint64_t lagger_validate_checks = 0;
  uint64_t reverify_checks = 0;
  uint64_t control_fingerprint = 0;
  uint64_t trace_fingerprint = 0;
  // Fleet observability (replicated mode only): the console's merged
  // Prometheus export must equal a by-hand merge of the per-replica
  // snapshots, partition windows must drop snapshots (divergence is the
  // signal), and the epoch-staleness SLO transition log is byte-compared
  // across same-seed runs.
  std::string slo_log;
  bool fleet_merge_ok = false;
  uint64_t snapshots_published = 0;
  uint64_t snapshots_dropped = 0;
  uint64_t snapshot_bytes = 0;  // carried by the control mesh, outside control_fingerprint
  size_t slo_firing_at_end = 0;
};

// Runs the schedule with or without the replication layer; appends one table
// row per client phase to `rows`.
RunOutcome Run(Scenario& s, const Options& opt, bool replicated,
               std::vector<std::vector<std::string>>* rows) {
  ProxyCluster cluster(kReplicas, ProxyConfig{}, s.env, s.origin);
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
  }
  FaultPlan plan;
  plan.seed = opt.seed;
  plan.replica_outages[kLagger].push_back({kOutageStart, kOutageEnd});
  FaultInjector injector(plan);
  cluster.SetFaultInjector(&injector);
  if (replicated) {
    cluster.EnableReplication();
  }
  ReplicationCoordinator* repl = cluster.replication();

  RedirectingClient client(s.server, nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(&cluster);

  RunOutcome out;
  EventQueue queue;

  // Fleet observability plane: each replica periodically snapshots its stats
  // registry (stamped with its policy epoch) and ships it to the console on
  // replica 0 over the same control mesh the 2PC rounds use — so the outage
  // window drops snapshots exactly like it drops votes. The lagging replica
  // runs an epoch-staleness SLO monitor against its own snapshots.
  AdministrationConsole console;
  FleetMetricsPublisher publisher(replicated ? &repl->control_plane() : nullptr,
                                  &console);
  SloMonitor slo("replica-2", &console);
  if (replicated) {
    slo.AddRule(MaxGapRule("policy-epoch-staleness", "repl.policy_epoch",
                           "repl.committed_epoch", /*max_gap=*/0));
  }
  auto stamped_snapshot = [&](size_t i) {
    StatsSnapshot snap = cluster.replica(i).stats().FullSnapshot();
    // "repl.*" sorts after every "proxy.*" counter, so the vector stays
    // name-sorted for exact Merge/Delta.
    snap.counters.emplace_back("repl.committed_epoch", repl->committed_epoch());
    snap.counters.emplace_back("repl.policy_epoch", cluster.replica(i).policy_epoch());
    return snap;
  };
  auto publish_fleet = [&](SimTime now) {
    if (!replicated) {
      return;
    }
    for (size_t i = 0; i < cluster.size(); i++) {
      StatsSnapshot snap = stamped_snapshot(i);
      if (i == kLagger) {
        slo.Evaluate(snap, now);
      }
      publisher.PublishSnapshot(i, std::move(snap), now);
    }
  };

  auto total_rewrites = [&] {
    uint64_t total = 0;
    for (size_t i = 0; i < cluster.size(); i++) {
      total += cluster.replica(i).stats().Value("proxy.rewrites");
    }
    return total;
  };
  auto total_hits = [&] {
    uint64_t total = 0;
    for (size_t i = 0; i < cluster.size(); i++) {
      total += cluster.replica(i).cache().hits();
    }
    return total;
  };
  auto sync_clock = [&](SimTime now) {
    if (client.machine().virtual_nanos() < now) {
      client.machine().AddNanos(now - client.machine().virtual_nanos());
    }
  };
  auto fetch_all = [&](const std::string& label) {
    const uint64_t rw0 = total_rewrites();
    const uint64_t hit0 = total_hits();
    const uint64_t stale0 = client.stale_epoch_rejections();
    const uint64_t to0 = client.timeouts();
    uint64_t ok = 0;
    for (const auto& name : s.classes) {
      out.attempts++;
      if (client.FetchClass(name).ok()) {
        ok++;
        out.successes++;
      }
    }
    rows->push_back({(replicated ? "repl/" : "base/") + label,
                     std::to_string(s.classes.size()), std::to_string(ok),
                     std::to_string(total_rewrites() - rw0), std::to_string(total_hits() - hit0),
                     std::to_string(client.stale_epoch_rejections() - stale0),
                     std::to_string(client.timeouts() - to0)});
  };

  queue.Schedule(kWarmAt, [&] {
    sync_clock(kWarmAt);
    fetch_all("warm");
    publish_fleet(kWarmAt);
  });
  queue.Schedule(kEpochAt, [&] {
    if (replicated) {
      out.epoch_committed = repl->CommitPolicyEpoch(queue.now()).committed;
    } else {
      // The pre-replication world: the invalidation reaches the replicas that
      // are up; the dark one keeps its old-policy cache and nobody can tell.
      for (size_t i = 0; i < cluster.size(); i++) {
        if (cluster.ReplicaUp(i, queue.now())) {
          cluster.replica(i).InvalidateCache();
        }
      }
      out.epoch_committed = true;
    }
    publish_fleet(kEpochAt);
  });
  queue.Schedule(kRefetchAt, [&] {
    sync_clock(kRefetchAt);
    fetch_all("re-instrument");
    publish_fleet(kRefetchAt);
  });
  queue.Schedule(kProbeAt, [&] {
    sync_clock(kProbeAt);
    const uint64_t lagger_hits = cluster.replica(kLagger).cache().hits();
    fetch_all("rejoin-probe");
    out.stale_serves = cluster.replica(kLagger).cache().hits() - lagger_hits;
    publish_fleet(kProbeAt);
  });
  queue.Schedule(kRejoinAt, [&] {
    if (replicated) {
      out.replayed = repl->Rejoin(kLagger, queue.now());
    } else {
      // No commit log: the only remedy for a possibly-stale cache is a flush,
      // after which every artifact is recomputed on demand.
      cluster.replica(kLagger).InvalidateCache();
    }
    publish_fleet(kRejoinAt);
  });
  queue.Schedule(kPostAt, [&] {
    sync_clock(kPostAt);
    const uint64_t rw0 = total_rewrites();
    fetch_all("post-rejoin");
    out.postrejoin_rewrites = total_rewrites() - rw0;
    publish_fleet(kPostAt);
  });
  queue.RunUntilEmpty();

  if (replicated) {
    // Final round already ran with every link up, so the console's merged
    // view must now be exactly the union of the live registries.
    StatsSnapshot manual;
    for (size_t i = 0; i < cluster.size(); i++) {
      manual.Merge(stamped_snapshot(i));
    }
    out.fleet_merge_ok =
        console.FleetPrometheus() == PrometheusText(manual, {{"scope", "fleet"}});
    out.slo_log = slo.TransitionLog();
    out.snapshots_published = publisher.published();
    out.snapshots_dropped = publisher.dropped();
    out.snapshot_bytes = publisher.bytes_shipped();
    out.slo_firing_at_end = slo.firing_count();
  }

  out.total_rewrites = total_rewrites();
  out.stale_epoch_rejections = client.stale_epoch_rejections();
  out.trace_fingerprint = injector.TraceFingerprint();
  if (replicated) {
    out.committed_epoch = repl->committed_epoch();
    out.control_fingerprint = repl->Fingerprint();
    for (size_t i = 0; i < cluster.size(); i++) {
      out.epochs_equal &= cluster.replica(i).policy_epoch() == repl->committed_epoch();
      out.logs_equal &= repl->replica_log(i).Digest() == repl->cluster_log().Digest();
    }
    for (const auto& name : s.classes) {
      const std::string key = DvmProxy::RewriteCacheKey(name, "");
      auto reference = cluster.replica(0).cache().Peek(key);
      if (!reference.has_value()) {
        out.artifacts_identical = false;
        continue;
      }
      for (size_t i = 1; i < cluster.size(); i++) {
        auto got = cluster.replica(i).cache().Peek(key);
        out.artifacts_identical &= got.has_value() &&
                                   got->main_class == reference->main_class &&
                                   got->epoch == reference->epoch;
      }
    }

    // Certificate plane accounting. The lagger proof-checked every artifact
    // it installed — the warm pushes live, the missed suffix during replay —
    // which is exactly the set of kArtifact records in the cluster log, so
    // re-running the full verifier over those same records prices what the
    // replay would have cost without certificates.
    for (size_t i = 0; i < cluster.size(); i++) {
      out.cert_validations += cluster.replica(i).stats().Value("proxy.cert_validations");
      out.cert_rejects += cluster.replica(i).stats().Value("proxy.cert_rejects");
      out.cert_missing += cluster.replica(i).stats().Value("proxy.cert_missing");
    }
    out.lagger_validate_checks =
        cluster.replica(kLagger).stats().Value("proxy.cert_validate_checks");
    for (const CommitRecord& record : repl->cluster_log().records()) {
      if (record.type != CommitRecordType::kArtifact) {
        continue;
      }
      out.certs_on_every_artifact &= !record.certificate.empty();
      auto main = ReadClassFile(record.main_class);
      if (!main.ok()) {
        out.certs_on_every_artifact = false;
        continue;
      }
      std::vector<ClassFile> companions;
      companions.reserve(record.extra_classes.size());
      for (const auto& [name, bytes] : record.extra_classes) {
        auto parsed = ReadClassFile(bytes);
        if (parsed.ok()) {
          companions.push_back(std::move(parsed).value());
        }
      }
      const ArtifactEnv reverify_env(s.env, main.value(), companions);
      auto reverified = VerifyClass(main.value(), reverify_env);
      if (reverified.ok()) {
        out.reverify_checks += reverified->stats.TotalStaticChecks();
      }
    }
  }
  return out;
}

bool Gate(const char* what, bool pass) {
  std::printf("  %-68s %s\n", what, pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    if (std::sscanf(argv[i], "--seed=%" PRIu64, &opt.seed) == 1) continue;
    if (std::sscanf(argv[i], "--applets=%d", &opt.applets) == 1) continue;
    if (std::strcmp(argv[i], "--check") == 0) {
      opt.check = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag %s\n", argv[i]);
    return 2;
  }

  PrintHeader("Replicated control plane: partition, rejoin, and log replay",
              "Section 2 replication claim — policy epochs made consistent");

  auto applets = BuildAppletPopulation(opt.applets, opt.seed);
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  std::vector<std::string> classes;
  std::vector<std::string> mains;
  for (const auto& applet : applets) {
    applet.InstallInto(&origin);
    mains.push_back(applet.main_class);
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
  Scenario scenario{&origin, &env, &server, classes, mains};

  std::printf("\n%zu classes, %zu replicas, replica %zu dark [%" PRIu64 "s, %" PRIu64
              "s), seed=%" PRIu64 "\n\n",
              classes.size(), kReplicas, kLagger, kOutageStart / kSecond,
              kOutageEnd / kSecond, opt.seed);

  std::vector<std::vector<std::string>> rows;
  RunOutcome repl = Run(scenario, opt, /*replicated=*/true, &rows);
  RunOutcome base = Run(scenario, opt, /*replicated=*/false, &rows);

  PrintRow({"Phase", "Fetches", "OK", "Rewrites", "Hits", "StaleRej", "Timeouts"}, 20);
  for (const auto& row : rows) {
    PrintRow(row, 20);
  }

  std::printf("\nreplicated: epoch=%" PRIu64 " replayed=%zu rewrites=%" PRIu64
              " post_rejoin_rewrites=%" PRIu64 " stale_refusals=%" PRIu64
              " stale_serves=%" PRIu64 "\n",
              repl.committed_epoch, repl.replayed, repl.total_rewrites,
              repl.postrejoin_rewrites, repl.stale_epoch_rejections, repl.stale_serves);
  std::printf("baseline:   rewrites=%" PRIu64 " post_rejoin_rewrites=%" PRIu64
              " stale_serves=%" PRIu64 "\n",
              base.total_rewrites, base.postrejoin_rewrites, base.stale_serves);
  std::printf("control_fingerprint=%016" PRIx64 " trace_fingerprint=%016" PRIx64 "\n",
              repl.control_fingerprint, repl.trace_fingerprint);
  std::printf("certificates: validations=%" PRIu64 " rejects=%" PRIu64 " missing=%" PRIu64
              " lagger_validate_checks=%" PRIu64 " reverify_checks=%" PRIu64 "\n",
              repl.cert_validations, repl.cert_rejects, repl.cert_missing,
              repl.lagger_validate_checks, repl.reverify_checks);
  std::printf("fleet: snapshots=%" PRIu64 " dropped_in_partition=%" PRIu64
              " snapshot_bytes=%" PRIu64 "\n",
              repl.snapshots_published, repl.snapshots_dropped, repl.snapshot_bytes);
  std::printf("slo transitions (virtual nanos):\n%s", repl.slo_log.c_str());

  bool ok = true;
  std::printf("\nChecks:\n");
  ok &= Gate("every fetch succeeds in both modes",
             repl.successes == repl.attempts && base.successes == base.attempts);
  ok &= Gate("2PC epoch round commits among the live members",
             repl.epoch_committed && repl.committed_epoch == 1);
  ok &= Gate("after rejoin: same committed epoch on every replica", repl.epochs_equal);
  ok &= Gate("after rejoin: equal commit-log digests on every replica", repl.logs_equal);
  ok &= Gate("after rejoin: byte-identical artifacts on every replica",
             repl.artifacts_identical);
  ok &= Gate("behind-epoch replica fails closed (refusals > 0, 0 stale serves)",
             repl.stale_epoch_rejections > 0 && repl.stale_serves == 0);
  ok &= Gate("baseline demonstrably serves stale old-policy artifacts",
             base.stale_serves > 0);
  ok &= Gate("recovery is log replay, not recompute (0 post-rejoin rewrites)",
             repl.replayed > 0 && repl.postrejoin_rewrites == 0 &&
                 base.postrejoin_rewrites > 0);
  ok &= Gate("replication does fewer total rewrites than flush-and-recompute",
             repl.total_rewrites < base.total_rewrites);
  ok &= Gate("every pushed artifact carries a verification certificate",
             repl.certs_on_every_artifact);
  ok &= Gate("every replicated install proof-checked (0 rejects, 0 missing)",
             repl.cert_validations > 0 && repl.cert_rejects == 0 &&
                 repl.cert_missing == 0);
  ok &= Gate("one-pass replay validation beats full re-verification",
             repl.lagger_validate_checks > 0 &&
                 repl.lagger_validate_checks < repl.reverify_checks);
  ok &= Gate("fleet-merged Prometheus equals merge of per-replica snapshots",
             repl.fleet_merge_ok);
  ok &= Gate("partition drops snapshots (console keeps the stale view)",
             repl.snapshots_dropped > 0 &&
                 repl.snapshots_dropped < repl.snapshots_published);
  ok &= Gate("epoch-staleness SLO fired during the miss and cleared on rejoin",
             repl.slo_log.find("ALERT policy-epoch-staleness") != std::string::npos &&
                 repl.slo_log.find("CLEAR policy-epoch-staleness") != std::string::npos &&
                 repl.slo_firing_at_end == 0);

  if (opt.check) {
    std::vector<std::vector<std::string>> rerun_rows;
    RunOutcome again = Run(scenario, opt, /*replicated=*/true, &rerun_rows);
    ok &= Gate("same seed reproduces identical control + trace fingerprints",
               again.control_fingerprint == repl.control_fingerprint &&
                   again.trace_fingerprint == repl.trace_fingerprint &&
                   again.successes == repl.successes);
    ok &= Gate("SLO transitions at identical virtual timestamps on rerun",
               again.slo_log == repl.slo_log && !repl.slo_log.empty());
  }

  std::printf("\nA policy change is a fleet-wide commit: either every in-sync replica\n"
              "re-instruments under the new epoch, or the round aborts and the fleet\n"
              "fails closed. A replica that misses the round cannot prove currency,\n"
              "so it refuses until the commit log replays it back to byte-identical\n"
              "state — no stale hook sets, and no redundant re-rewriting either.\n");
  return ok ? 0 : 1;
}
