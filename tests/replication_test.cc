// Tests for the replicated proxy control plane (src/dvm/replication.h):
// 2PC epoch and artifact rounds over the ControlPlane mesh, fleet-wide
// fail-closed on abort, 2PC in-doubt (lost decision) staleness, commit-log
// recovery by replay, replay idempotence, and same-seed determinism — plus
// the cluster-wide UpdateSecurityPolicy entry point with and without
// replication enabled.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/bytecode/builder.h"
#include "src/dvm/redirect_client.h"
#include "src/dvm/replication.h"
#include "src/policy/xml.h"
#include "src/proxy/proxy.h"
#include "src/runtime/syslib.h"
#include "src/services/fleet_metrics.h"
#include "src/services/monitor_service.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/simnet/multicast.h"
#include "src/simnet/sim.h"

namespace dvm {
namespace {

ClassFile TrivialApp(const std::string& name) {
  ClassBuilder cb(name, "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V");
  m.PushString("ran").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  auto built = cb.Build();
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

SecurityPolicy OpenPolicy() {
  return *ParseSecurityPolicy(R"(
      <policy version="1">
        <domain sid="user" code="app/*"/>
        <allow sid="user" operation="*" target="*"/>
      </policy>)");
}

std::string Cls(int i) { return "app/C" + std::to_string(i); }

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : library_(BuildSystemLibrary()) {
    InstallSystemLibrary(origin_);
    for (int i = 0; i < 12; i++) {
      origin_.AddClassFile(TrivialApp(Cls(i)));
    }
    origin_.AddClassFile(TrivialApp("app/Main"));
    for (const auto& cls : library_) {
      env_.Add(&cls);
    }
    DvmServerConfig config;
    config.policy = OpenPolicy();
    config.proxy.sign_output = true;
    server_ = std::make_unique<DvmServer>(std::move(config), &origin_);
    cluster_ = std::make_unique<ProxyCluster>(3, ProxyConfig{}, &env_, &origin_);
    for (size_t i = 0; i < cluster_->size(); i++) {
      cluster_->replica(i).AddFilter(std::make_unique<VerificationFilter>());
    }
  }

  uint64_t TotalRewrites() const {
    uint64_t total = 0;
    for (size_t i = 0; i < cluster_->size(); i++) {
      total += cluster_->replica(i).stats().Value("proxy.rewrites");
    }
    return total;
  }

  MapClassProvider origin_;
  std::vector<ClassFile> library_;
  MapClassEnv env_;
  std::unique_ptr<DvmServer> server_;
  std::unique_ptr<ProxyCluster> cluster_;
};

TEST_F(ReplicationTest, ArtifactPushConvergesPeerCaches) {
  cluster_->EnableReplication();
  ReplicationCoordinator* repl = cluster_->replication();

  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());
  ASSERT_TRUE(client.FetchClass("app/Main").ok());
  EXPECT_EQ(repl->stats().Value("repl.artifact_pushes"), 1u);

  // The serving replica rewrote once; the committed push installed the same
  // bytes into both peers.
  const std::string key = DvmProxy::RewriteCacheKey("app/Main", "");
  const size_t source = cluster_->RankReplicas("app/Main")[0];
  auto src = cluster_->replica(source).cache().Peek(key);
  ASSERT_TRUE(src.has_value());
  for (size_t i = 0; i < cluster_->size(); i++) {
    auto got = cluster_->replica(i).cache().Peek(key);
    ASSERT_TRUE(got.has_value()) << "replica " << i;
    EXPECT_EQ(got->main_class, src->main_class) << "replica " << i;
    EXPECT_EQ(got->epoch, src->epoch) << "replica " << i;
    if (i != source) {
      EXPECT_EQ(cluster_->replica(i).replicated_installs(), 1u);
    }
  }
  EXPECT_EQ(TotalRewrites(), 1u);

  // One rewrite serves the whole fleet: kill the source and the failover
  // replica answers from its pushed copy without re-running the pipeline.
  cluster_->SetReplicaUp(source, false);
  ASSERT_TRUE(client.FetchClass("app/Main").ok());
  EXPECT_EQ(TotalRewrites(), 1u);
  EXPECT_EQ(client.stale_epoch_rejections(), 0u);
}

TEST_F(ReplicationTest, EpochCommitInvalidatesEveryReplica) {
  cluster_->EnableReplication();
  ReplicationCoordinator* repl = cluster_->replication();
  server_->AttachCluster(cluster_.get());

  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(client.FetchClass(Cls(i)).ok());
  }

  // Cluster-wide policy update: one 2PC epoch round, every replica
  // invalidated and advanced in the same decision.
  ASSERT_TRUE(server_->UpdateSecurityPolicy(OpenPolicy(), client.machine().virtual_nanos()));
  EXPECT_EQ(repl->committed_epoch(), 1u);
  EXPECT_FALSE(repl->epoch_pending());
  EXPECT_EQ(repl->stats().Value("repl.epoch_commits"), 1u);
  for (size_t i = 0; i < cluster_->size(); i++) {
    EXPECT_EQ(cluster_->replica(i).policy_epoch(), 1u) << "replica " << i;
    EXPECT_EQ(cluster_->replica(i).cache().entries(), 0u) << "replica " << i;
  }

  // A client failing over right after the update can only ever see a
  // new-epoch rewrite: old artifacts are gone fleet-wide.
  ASSERT_TRUE(client.FetchClass(Cls(6)).ok());
  EXPECT_EQ(client.stale_epoch_rejections(), 0u);
  const std::string key = DvmProxy::RewriteCacheKey(Cls(6), "");
  auto entry = cluster_->replica(cluster_->RankReplicas(Cls(6))[0]).cache().Peek(key);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->epoch, 1u);
}

TEST_F(ReplicationTest, PartitionDuringPrepareAbortsFleetWide) {
  // Cut the coordinator's control link to replica 1 for the first second: the
  // prepare leg is lost, the vote deadline passes, the round aborts.
  FaultPlan plan;
  plan.seed = 7;
  plan.links[ControlPlane::LinkName(0, 1)].outages.push_back({0, 1 * kSecond});
  FaultInjector injector(plan);
  cluster_->SetFaultInjector(&injector);
  cluster_->EnableReplication();
  ReplicationCoordinator* repl = cluster_->replication();

  RoundResult round = repl->CommitPolicyEpoch(500 * kMillisecond);
  EXPECT_FALSE(round.committed);
  EXPECT_EQ(round.participants, 3u);
  EXPECT_TRUE(repl->epoch_pending());
  EXPECT_EQ(repl->committed_epoch(), 0u);
  EXPECT_EQ(repl->stats().Value("repl.aborts"), 1u);
  EXPECT_EQ(repl->stats().Value("repl.timeouts"), 1u);

  // Abort is fleet-wide fail-closed: even the replicas that voted ACK cannot
  // prove which policy is current, so nobody serves.
  for (size_t i = 0; i < cluster_->size(); i++) {
    EXPECT_FALSE(repl->CanServe(i, 600 * kMillisecond)) << "replica " << i;
  }

  // A client sees typed unavailability — stale-epoch refusals at every
  // replica, then the fail-closed verdict — never an old-epoch artifact.
  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());
  auto bytes = client.FetchClass("app/Main");
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.error().code, ErrorCode::kUnavailable);
  EXPECT_GT(client.stale_epoch_rejections(), 0u);
  EXPECT_EQ(client.fail_closed_rejections(), 1u);
  EXPECT_EQ(TotalRewrites(), 0u);  // no replica served anything

  // After the partition heals, retrying commits the *same* pending proposal
  // and reopens the fleet.
  RoundResult retry = repl->CommitPolicyEpoch(2 * kSecond);
  EXPECT_TRUE(retry.committed);
  EXPECT_EQ(retry.epoch, round.epoch);
  EXPECT_FALSE(repl->epoch_pending());
  EXPECT_EQ(repl->committed_epoch(), 1u);
  for (size_t i = 0; i < cluster_->size(); i++) {
    EXPECT_TRUE(repl->CanServe(i, 2 * kSecond)) << "replica " << i;
  }
}

TEST_F(ReplicationTest, LostDecisionMarksAckedPeerStaleUntilRejoin) {
  // Open a partition on ctrl-0-1 *between* the prepare (sent at t=0, arrives
  // ~215 us) and the decision (sent after the votes, ~420 us): replica 1 ACKs
  // the prepare and then never learns the outcome — classic 2PC in-doubt.
  FaultPlan plan;
  plan.seed = 9;
  plan.links[ControlPlane::LinkName(0, 1)].outages.push_back({300'000, kSimTimeForever});
  FaultInjector injector(plan);
  cluster_->SetFaultInjector(&injector);
  cluster_->EnableReplication();
  ReplicationCoordinator* repl = cluster_->replication();

  RoundResult round = repl->CommitPolicyEpoch(0);
  ASSERT_TRUE(round.committed);  // every member voted ACK before the cut
  EXPECT_EQ(round.acks, 2u);
  EXPECT_EQ(repl->committed_epoch(), 1u);
  EXPECT_EQ(repl->stats().Value("repl.stale_marks"), 1u);

  // The in-doubt replica fails closed; the rest of the fleet is current.
  EXPECT_TRUE(repl->stale(1));
  EXPECT_FALSE(repl->InSync(1));
  EXPECT_FALSE(repl->CanServe(1, kSecond));
  EXPECT_EQ(repl->applied_epoch(1), 0u);
  EXPECT_TRUE(repl->CanServe(0, kSecond));
  EXPECT_TRUE(repl->CanServe(2, kSecond));
  EXPECT_EQ(repl->applied_epoch(2), 1u);

  // Clients keep succeeding: fetches routed at the stale replica are refused
  // fast and fail over; rounds exclude it, so pushes commit between 0 and 2.
  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());
  std::vector<std::string> fetched;
  for (int i = 0; i < 12; i++) {
    ASSERT_TRUE(client.FetchClass(Cls(i)).ok()) << Cls(i);
    fetched.push_back(Cls(i));
  }
  EXPECT_GT(client.stale_epoch_rejections(), 0u);
  const uint64_t rewrites_on_1 = cluster_->replica(1).stats().Value("proxy.rewrites");
  EXPECT_EQ(rewrites_on_1, 0u);

  // Rejoin replays the log suffix — the epoch it missed plus every pushed
  // artifact — instead of re-running the pipeline.
  size_t replayed = repl->Rejoin(1, 2 * kSecond);
  EXPECT_EQ(replayed, repl->cluster_log().records().size());
  EXPECT_FALSE(repl->stale(1));
  EXPECT_TRUE(repl->InSync(1));
  EXPECT_TRUE(repl->CanServe(1, 2 * kSecond));
  EXPECT_EQ(repl->applied_epoch(1), repl->committed_epoch());
  EXPECT_EQ(repl->replica_log(1).Digest(), repl->cluster_log().Digest());
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.rewrites"), rewrites_on_1);
  EXPECT_GT(cluster_->replica(1).replicated_installs(), 0u);

  // Byte-identical convergence with the replicas that stayed in the rounds.
  for (const std::string& name : fetched) {
    const std::string key = DvmProxy::RewriteCacheKey(name, "");
    auto a = cluster_->replica(2).cache().Peek(key);
    auto b = cluster_->replica(1).cache().Peek(key);
    ASSERT_TRUE(a.has_value()) << name;
    ASSERT_TRUE(b.has_value()) << name;
    EXPECT_EQ(a->main_class, b->main_class) << name;
    EXPECT_EQ(a->epoch, b->epoch) << name;
  }

  // Replay is idempotent: a second rejoin finds nothing to do.
  EXPECT_EQ(repl->Rejoin(1, 3 * kSecond), 0u);
  EXPECT_EQ(repl->replica_log(1).Digest(), repl->cluster_log().Digest());
}

TEST_F(ReplicationTest, OutageReplicaCatchesUpByLogReplay) {
  FaultPlan plan;
  plan.seed = 11;
  plan.replica_outages[2].push_back({0, 10 * kSecond});
  FaultInjector injector(plan);
  cluster_->SetFaultInjector(&injector);
  cluster_->EnableReplication();
  ReplicationCoordinator* repl = cluster_->replication();

  // Pre-epoch artifact (committed between the two live members), then an
  // epoch bump that invalidates it, then two post-epoch artifacts — a log
  // whose *order* matters for convergence.
  ASSERT_TRUE(cluster_->replica(0).HandleRequest(Cls(0)).ok());
  EXPECT_TRUE(repl->ReplicateArtifact(0, Cls(0), "", 1 * kMillisecond).committed);
  EXPECT_TRUE(repl->CommitPolicyEpoch(2 * kMillisecond).committed);
  ASSERT_TRUE(cluster_->replica(0).HandleRequest(Cls(1)).ok());
  EXPECT_TRUE(repl->ReplicateArtifact(0, Cls(1), "", 3 * kMillisecond).committed);
  ASSERT_TRUE(cluster_->replica(1).HandleRequest(Cls(2)).ok());
  EXPECT_TRUE(repl->ReplicateArtifact(1, Cls(2), "", 4 * kMillisecond).committed);
  ASSERT_EQ(repl->cluster_log().records().size(), 4u);

  // Back up after the outage window, but behind the log: fails closed.
  EXPECT_FALSE(repl->InSync(2));
  EXPECT_FALSE(repl->CanServe(2, 11 * kSecond));

  size_t replayed = repl->Rejoin(2, 11 * kSecond);
  EXPECT_EQ(replayed, 4u);
  EXPECT_EQ(repl->stats().Value("repl.replayed_records"), 4u);
  EXPECT_TRUE(repl->CanServe(2, 11 * kSecond));
  EXPECT_EQ(repl->applied_epoch(2), repl->committed_epoch());
  EXPECT_EQ(repl->replica_log(2).Digest(), repl->cluster_log().Digest());

  // Recovery never ran the pipeline: every artifact arrived as an install.
  EXPECT_EQ(cluster_->replica(2).stats().Value("proxy.rewrites"), 0u);
  EXPECT_EQ(cluster_->replica(2).replicated_installs(), 3u);

  // Ordered replay reproduced the epoch invalidation: the pre-epoch artifact
  // is absent everywhere, the post-epoch artifacts are byte-identical.
  EXPECT_FALSE(cluster_->replica(2).cache().Peek(DvmProxy::RewriteCacheKey(Cls(0), ""))
                   .has_value());
  for (int i = 1; i <= 2; i++) {
    const std::string key = DvmProxy::RewriteCacheKey(Cls(i), "");
    auto a = cluster_->replica(0).cache().Peek(key);
    auto b = cluster_->replica(2).cache().Peek(key);
    ASSERT_TRUE(a.has_value()) << Cls(i);
    ASSERT_TRUE(b.has_value()) << Cls(i);
    EXPECT_EQ(a->main_class, b->main_class) << Cls(i);
    EXPECT_EQ(a->epoch, b->epoch) << Cls(i);
  }

  EXPECT_EQ(repl->Rejoin(2, 12 * kSecond), 0u);
}

TEST_F(ReplicationTest, NakVoteAbortsRoundAndRetryCommits) {
  cluster_->EnableReplication();
  ReplicationCoordinator* repl = cluster_->replication();

  repl->ForceNakOnce(1);
  RoundResult round = repl->CommitPolicyEpoch(0);
  EXPECT_FALSE(round.committed);
  EXPECT_EQ(repl->stats().Value("repl.naks"), 1u);
  EXPECT_TRUE(repl->epoch_pending());
  // A NAK is an answered round, not an in-doubt one: the voter saw the abort
  // decision and stays in sync — but the fleet still fails closed until the
  // proposal commits.
  EXPECT_TRUE(repl->InSync(1));
  EXPECT_FALSE(repl->CanServe(2, kMillisecond));

  RoundResult retry = repl->CommitPolicyEpoch(kMillisecond);
  EXPECT_TRUE(retry.committed);
  EXPECT_EQ(retry.epoch, round.epoch);
  EXPECT_EQ(repl->committed_epoch(), 1u);
  EXPECT_TRUE(repl->CanServe(2, 2 * kMillisecond));
}

TEST_F(ReplicationTest, PolicyUpdateWithoutReplicationClearsEveryReplica) {
  // The pre-replication cluster path: AttachCluster makes UpdateSecurityPolicy
  // invalidate every replica synchronously (the old bug invalidated only the
  // server's own proxy, leaving replicas serving old-policy rewrites).
  server_->AttachCluster(cluster_.get());
  for (size_t i = 0; i < cluster_->size(); i++) {
    ASSERT_TRUE(cluster_->replica(i).HandleRequest(Cls(static_cast<int>(i))).ok());
    EXPECT_GT(cluster_->replica(i).cache().entries(), 0u);
  }

  ASSERT_TRUE(server_->UpdateSecurityPolicy(OpenPolicy()));
  for (size_t i = 0; i < cluster_->size(); i++) {
    EXPECT_EQ(cluster_->replica(i).cache().entries(), 0u) << "replica " << i;
  }

  // Failover right after the update cannot surface a pre-update artifact:
  // whichever replica answers has to rewrite fresh.
  const uint64_t rewrites_before = TotalRewrites();
  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());
  ASSERT_TRUE(client.FetchClass(Cls(0)).ok());
  EXPECT_EQ(TotalRewrites(), rewrites_before + 1);
}

// How RunLossyScenario's replicas publish fleet metrics over the control
// mesh: not at all, their registries, or their registries plus one counter.
enum class FleetPublishing { kNone, kRegistries, kExtraCounter };

// Builds a fresh 3-replica cluster over a lossy, jittery control mesh, runs a
// fixed script (pushes, epoch rounds with retries, rejoins), and returns the
// coordinator fingerprint. Same seed must give bit-identical control-plane
// state.
uint64_t RunLossyScenario(uint64_t seed, FleetPublishing fleet = FleetPublishing::kNone) {
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  for (int i = 0; i < 6; i++) {
    origin.AddClassFile(TrivialApp(Cls(i)));
  }
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv env;
  for (const auto& cls : library) {
    env.Add(&cls);
  }
  ProxyCluster cluster(3, ProxyConfig{}, &env, &origin);
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
  }
  FaultPlan plan;
  plan.seed = seed;
  plan.default_link = LinkFaults{0.2, 0, kMillisecond, /*outages=*/{}};
  FaultInjector injector(plan);
  cluster.SetFaultInjector(&injector);
  cluster.EnableReplication();
  ReplicationCoordinator* repl = cluster.replication();
  AdministrationConsole console;
  FleetMetricsPublisher publisher(&repl->control_plane(), &console);
  auto publish = [&](SimTime at) {
    for (size_t r = 0; r < cluster.size() && fleet != FleetPublishing::kNone; r++) {
      StatsSnapshot snap = cluster.replica(r).stats().FullSnapshot();
      if (fleet == FleetPublishing::kExtraCounter) {
        snap.counters.emplace_back("zz.extra", r);  // sorts last
      }
      publisher.PublishSnapshot(r, std::move(snap), at);
    }
  };

  SimTime now = kMillisecond;
  for (int i = 0; i < 3; i++) {
    const size_t source = static_cast<size_t>(i) % cluster.size();
    (void)cluster.replica(source).HandleRequest(Cls(i));
    repl->ReplicateArtifact(source, Cls(i), "", now);
    now += kMillisecond;
  }
  // The snapshots leave between rounds, as bench_replication's do.
  now += 100 * kMillisecond;
  publish(now);
  now += 100 * kMillisecond;
  for (int attempt = 0; attempt < 4; attempt++) {
    if (repl->CommitPolicyEpoch(now).committed) {
      break;
    }
    now += 100 * kMillisecond;
  }
  for (size_t r = 0; r < cluster.size(); r++) {
    if (!repl->InSync(r)) {
      repl->Rejoin(r, now);
    }
  }
  return repl->Fingerprint();
}

TEST(ReplicationDeterminismTest, SameSeedRunsProduceIdenticalFingerprints) {
  const uint64_t a = RunLossyScenario(5);
  const uint64_t b = RunLossyScenario(5);
  EXPECT_EQ(a, b);
}

// The fingerprint folds the coordinator's own traffic only: a fleet metric
// snapshot that grows by one counter crosses the same mesh in more bytes and
// must not move it.
TEST(ReplicationDeterminismTest, FleetMetricCountersDoNotMoveTheFingerprint) {
  const uint64_t registries = RunLossyScenario(5, FleetPublishing::kRegistries);
  EXPECT_EQ(RunLossyScenario(5, FleetPublishing::kExtraCounter), registries);
}

}  // namespace
}  // namespace dvm
