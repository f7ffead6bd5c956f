// Tests for the discrete-event substrate and the fault/failover layer:
// EventQueue ordering, SimLink FIFO serialization, FaultInjector determinism,
// rendezvous routing, and redirect-client failover / fail-closed semantics.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/bytecode/builder.h"
#include "src/dvm/redirect_client.h"
#include "src/runtime/syslib.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/simnet/sim.h"

namespace dvm {
namespace {

// --- EventQueue ------------------------------------------------------------------

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(30, [&] { order.push_back(3); });
  queue.Schedule(10, [&] { order.push_back(1); });
  queue.Schedule(20, [&] { order.push_back(2); });
  queue.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 30u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, TiesBreakByScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 16; i++) {
    queue.Schedule(5, [&order, i] { order.push_back(i); });
  }
  queue.RunUntilEmpty();
  std::vector<int> expected;
  for (int i = 0; i < 16; i++) {
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CallbacksMayScheduleFurtherEvents) {
  EventQueue queue;
  std::vector<SimTime> fired_at;
  queue.Schedule(1, [&] {
    fired_at.push_back(queue.now());
    queue.Schedule(7, [&] { fired_at.push_back(queue.now()); });
  });
  queue.Schedule(4, [&] { fired_at.push_back(queue.now()); });
  queue.RunUntilEmpty();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{1, 4, 7}));
}

TEST(EventQueueTest, RunNextReturnsFalseWhenEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.RunNext());
}

// --- SimLink FIFO ----------------------------------------------------------------

TEST(SimLinkTest, SerializesContendingMessages) {
  // 1000 bytes/s, 5 ns propagation: a 1000-byte message transmits in 1 s.
  SimLink link(1000.0, 5);
  SimTime first = link.Deliver(0, 1000);
  SimTime second = link.Deliver(0, 1000);
  EXPECT_EQ(first, kSecond + 5);
  // The second message queues behind the first's transmission.
  EXPECT_EQ(second, 2 * kSecond + 5);
  EXPECT_EQ(link.bytes_carried(), 2000u);
  EXPECT_EQ(link.busy_until(), 2 * kSecond);
}

TEST(SimLinkTest, IdleLinkAddsNoQueueingDelay) {
  SimLink link(1000.0, 5);
  ASSERT_EQ(link.Deliver(0, 1000), kSecond + 5);
  // Offered after the link drained: only transmission + propagation.
  EXPECT_EQ(link.Deliver(3 * kSecond, 500), 3 * kSecond + kSecond / 2 + 5);
}

// --- FaultInjector ---------------------------------------------------------------

FaultPlan LossyPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.links["uplink"] = LinkFaults{0.3, 1 * kMillisecond, 9 * kMillisecond, /*outages=*/{}};
  plan.default_link = LinkFaults{0.1, 0, 0, /*outages=*/{}};
  plan.replica_outages[1] = {{10 * kSecond, 20 * kSecond}};
  return plan;
}

TEST(FaultInjectorTest, SameSeedProducesIdenticalTrace) {
  FaultInjector a(LossyPlan(42));
  FaultInjector b(LossyPlan(42));
  for (int i = 0; i < 500; i++) {
    SimTime now = static_cast<SimTime>(i) * kMillisecond;
    EXPECT_EQ(a.ShouldDrop("uplink", now), b.ShouldDrop("uplink", now));
    EXPECT_EQ(a.ExtraDelay("uplink", now), b.ExtraDelay("uplink", now));
    EXPECT_EQ(a.ShouldDrop("other", now), b.ShouldDrop("other", now));
  }
  EXPECT_EQ(a.TraceFingerprint(), b.TraceFingerprint());
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_EQ(a.decisions(), b.decisions());
  EXPECT_GT(a.dropped(), 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(LossyPlan(42));
  FaultInjector b(LossyPlan(43));
  for (int i = 0; i < 200; i++) {
    a.ShouldDrop("uplink", i);
    b.ShouldDrop("uplink", i);
  }
  EXPECT_NE(a.TraceFingerprint(), b.TraceFingerprint());
}

TEST(FaultInjectorTest, PerLinkStreamsAreIndependent) {
  // Consuming draws on one link must not shift another link's sequence.
  FaultInjector a(LossyPlan(7));
  FaultInjector b(LossyPlan(7));
  std::vector<bool> a_draws;
  std::vector<bool> b_draws;
  for (int i = 0; i < 100; i++) {
    a_draws.push_back(a.ShouldDrop("uplink", i));
  }
  for (int i = 0; i < 100; i++) {
    b.ShouldDrop("other", i);  // extra traffic on an unrelated link
    b_draws.push_back(b.ShouldDrop("uplink", i));
  }
  EXPECT_EQ(a_draws, b_draws);
}

TEST(FaultInjectorTest, DropRateTracksProbability) {
  FaultPlan plan;
  plan.seed = 11;
  plan.default_link.drop_probability = 0.3;
  FaultInjector injector(plan);
  int drops = 0;
  for (int i = 0; i < 10000; i++) {
    drops += injector.ShouldDrop("l", i) ? 1 : 0;
  }
  EXPECT_GT(drops, 2600);
  EXPECT_LT(drops, 3400);
}

TEST(FaultInjectorTest, ReplicaOutageScheduleIsHonored) {
  FaultInjector injector(LossyPlan(1));
  EXPECT_TRUE(injector.ReplicaUp(1, 0));
  EXPECT_TRUE(injector.ReplicaUp(1, 10 * kSecond - 1));
  EXPECT_FALSE(injector.ReplicaUp(1, 10 * kSecond));
  EXPECT_FALSE(injector.ReplicaUp(1, 20 * kSecond - 1));
  EXPECT_TRUE(injector.ReplicaUp(1, 20 * kSecond));
  // Unlisted replicas are always up.
  EXPECT_TRUE(injector.ReplicaUp(0, 15 * kSecond));
}

// --- AvailabilityPolicy ----------------------------------------------------------

TEST(AvailabilityPolicyTest, VerificationAndSecurityArePinnedClosed) {
  AvailabilityPolicy policy;
  EXPECT_FALSE(policy.SetMode(ServiceClass::kVerification, AvailabilityMode::kFailOpen).ok());
  EXPECT_FALSE(policy.SetMode(ServiceClass::kSecurity, AvailabilityMode::kFailOpen).ok());
  EXPECT_TRUE(policy.SetMode(ServiceClass::kMonitoring, AvailabilityMode::kFailOpen).ok());
  EXPECT_EQ(policy.ModeFor(ServiceClass::kVerification), AvailabilityMode::kFailClosed);
  EXPECT_EQ(policy.ModeFor(ServiceClass::kMonitoring), AvailabilityMode::kFailOpen);
  // Unconfigured services default closed.
  EXPECT_EQ(policy.ModeFor(ServiceClass::kProfiling), AvailabilityMode::kFailClosed);
}

TEST(AvailabilityPolicyTest, StrictestRequiredServiceWins) {
  AvailabilityPolicy policy;
  ASSERT_TRUE(policy.SetMode(ServiceClass::kMonitoring, AvailabilityMode::kFailOpen).ok());
  EXPECT_EQ(policy.EffectiveMode({ServiceClass::kMonitoring}), AvailabilityMode::kFailOpen);
  EXPECT_EQ(policy.EffectiveMode({ServiceClass::kMonitoring, ServiceClass::kVerification}),
            AvailabilityMode::kFailClosed);
}

// --- rendezvous routing ----------------------------------------------------------

std::vector<ClassFile> Library() { return BuildSystemLibrary(); }

TEST(ProxyClusterTest, RendezvousRemapsOnlyTheDeadReplicasShard) {
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  std::vector<ClassFile> library = Library();
  MapClassEnv env;
  for (const auto& cls : library) {
    env.Add(&cls);
  }
  ProxyCluster cluster(3, ProxyConfig{}, &env, &origin);

  std::vector<std::string> names;
  for (int i = 0; i < 300; i++) {
    names.push_back("app/Class" + std::to_string(i));
  }
  std::vector<size_t> before;
  for (const auto& name : names) {
    before.push_back(cluster.RankReplicas(name)[0]);
  }
  // All three replicas win some keys.
  std::set<size_t> owners(before.begin(), before.end());
  EXPECT_EQ(owners.size(), 3u);

  cluster.SetReplicaUp(0, false);
  size_t remapped_to[3] = {0, 0, 0};
  for (size_t i = 0; i < names.size(); i++) {
    DvmProxy& routed = cluster.Route(names[i]);
    size_t now_at = 0;
    for (size_t r = 0; r < cluster.size(); r++) {
      if (&cluster.replica(r) == &routed) {
        now_at = r;
      }
    }
    if (before[i] != 0) {
      // Keys the dead replica never owned keep their owner.
      EXPECT_EQ(now_at, before[i]) << names[i];
    } else {
      EXPECT_NE(now_at, 0u);
      remapped_to[now_at]++;
    }
  }
  // The dead replica's shard spreads over BOTH survivors, not just one
  // (modulo routing would have remapped the entire keyspace instead).
  EXPECT_GT(remapped_to[1], 0u);
  EXPECT_GT(remapped_to[2], 0u);
}

// --- redirect client failover ----------------------------------------------------

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

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() : library_(Library()) {
    InstallSystemLibrary(origin_);
    for (int i = 0; i < 12; i++) {
      origin_.AddClassFile(TrivialApp("app/C" + std::to_string(i)));
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

  MapClassProvider origin_;
  std::vector<ClassFile> library_;
  MapClassEnv env_;
  std::unique_ptr<DvmServer> server_;
  std::unique_ptr<ProxyCluster> cluster_;
};

TEST_F(FailoverTest, KilledReplicaFailsOverAndChargesTimeouts) {
  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());

  // Warm run with everything up.
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(client.FetchClass("app/C" + std::to_string(i)).ok());
  }
  EXPECT_EQ(client.timeouts(), 0u);
  uint64_t nanos_before_kill = client.machine().virtual_nanos();

  // Kill one replica mid-run; every fetch must still succeed.
  cluster_->SetReplicaUp(1, false);
  for (int i = 6; i < 12; i++) {
    auto bytes = client.FetchClass("app/C" + std::to_string(i));
    ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
  }
  EXPECT_GT(client.failovers(), 0u);
  EXPECT_GT(client.timeouts(), 0u);
  EXPECT_EQ(client.fail_closed_rejections(), 0u);
  // The timeout cost landed on the virtual clock.
  EXPECT_GT(client.machine().virtual_nanos(), nanos_before_kill + 250 * kMillisecond);
  // Named counters mirror the accessors.
  EXPECT_EQ(client.stats().Value("redirect.timeouts"), client.timeouts());
  EXPECT_EQ(client.stats().Value("redirect.failovers"), client.failovers());
}

TEST_F(FailoverTest, WholeClusterDownFailsClosedAndRunsNothing) {
  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());
  for (size_t i = 0; i < cluster_->size(); i++) {
    cluster_->SetReplicaUp(i, false);
  }

  auto bytes = client.FetchClass("app/Main");
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.error().code, ErrorCode::kUnavailable);

  auto out = client.RunApp("app/Main");
  // Fail closed: the app never starts and nothing executes.
  EXPECT_TRUE(!out.ok() || out->threw);
  EXPECT_TRUE(client.machine().printed().empty());
  EXPECT_GT(client.fail_closed_rejections(), 0u);
  EXPECT_EQ(client.stats().Value("redirect.fail_closed_rejections"),
            client.fail_closed_rejections());
  EXPECT_EQ(client.redirects(), 0u);
}

TEST_F(FailoverTest, MonitoringOnlyDeploymentMayFailOpen) {
  // The direct mirror serves raw unsigned bytes.
  MapClassProvider direct;
  InstallSystemLibrary(direct);
  direct.AddClassFile(TrivialApp("app/Main"));

  RedirectingClient client(server_.get(), &direct, DvmMachineConfig(), MakeEthernet10Mb());
  RedirectConfig config;
  config.required_services = {ServiceClass::kMonitoring};
  ASSERT_TRUE(
      config.availability.SetMode(ServiceClass::kMonitoring, AvailabilityMode::kFailOpen).ok());
  client.UseCluster(cluster_.get(), config);
  for (size_t i = 0; i < cluster_->size(); i++) {
    cluster_->SetReplicaUp(i, false);
  }

  // Unsigned direct code is normally redirected; with the cluster gone and
  // only observability at stake, the degraded direct fetch is allowed.
  auto bytes = client.FetchClass("app/Main");
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
  EXPECT_GT(client.fail_open_serves(), 0u);
  EXPECT_EQ(client.fail_closed_rejections(), 0u);
}

TEST_F(FailoverTest, ScheduledOutageFromFaultPlanDrivesHealth) {
  FaultPlan plan;
  plan.seed = 5;
  plan.replica_outages[0] = {{0, kSimTimeForever}};
  plan.replica_outages[1] = {{0, kSimTimeForever}};
  plan.replica_outages[2] = {{0, kSimTimeForever}};
  FaultInjector injector(plan);
  cluster_->SetFaultInjector(&injector);

  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());
  auto bytes = client.FetchClass("app/Main");
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(cluster_->UpReplicas(0), 0u);
}

TEST_F(FailoverTest, OverloadedClusterShedsObservabilityWithTypedRejection) {
  // Starve the token bucket completely: every sheddable offer is rejected
  // with a retry-after hint (capped at max_retry_after).
  AdmissionConfig admission;
  admission.tokens_per_second = 0.5;
  admission.burst = 0.0;
  admission.max_retry_after = 2 * kSecond;
  cluster_->EnableAdmission(admission);

  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  RedirectConfig config;
  config.traffic_class = ServiceClass::kMonitoring;
  config.required_services = {ServiceClass::kMonitoring};
  client.UseCluster(cluster_.get(), config);

  uint64_t before = client.machine().virtual_nanos();
  auto bytes = client.FetchClass("app/Main");
  ASSERT_FALSE(bytes.ok());
  // Overload is not an outage: the rejection is typed kOverloaded, not
  // kUnavailable, so the caller backs off instead of failing over.
  EXPECT_EQ(bytes.error().code, ErrorCode::kOverloaded);
  EXPECT_EQ(client.admission_sheds(), config.retry_budget);
  EXPECT_EQ(client.overloaded_rejections(), 1u);
  EXPECT_EQ(client.stats().Value("redirect.shedded"), config.retry_budget);
  EXPECT_EQ(client.stats().Value("redirect.overloaded"), 1u);
  // The retry-after hint (2 s, far above the 400 ms backoff cap) raised each
  // of the budget's five waits — but every wait is capped at the 250 ms
  // request deadline, so the hint steers (via the avoid list) without ever
  // making an attempt unschedulable.
  EXPECT_GE(client.machine().virtual_nanos() - before, 5 * config.request_deadline);
  EXPECT_LT(client.machine().virtual_nanos() - before, 5 * 2 * kSecond);
  // A shed avoid-lists the replica for the hint horizon, so the retries
  // spread across the fleet's controllers instead of hammering one.
  size_t controllers_hit = 0;
  for (size_t i = 0; i < cluster_->size(); i++) {
    controllers_hit += cluster_->admission(i)->shed_for(ShedTier::kShedFirst) > 0 ? 1 : 0;
  }
  EXPECT_GE(controllers_hit, 2u);
  EXPECT_EQ(client.fail_closed_rejections(), 0u);
}

TEST_F(FailoverTest, VerificationTrafficRidesThroughOverload) {
  // Same starved bucket: fail-closed traffic is structurally unsheddable and
  // must be served on the first attempt.
  AdmissionConfig admission;
  admission.tokens_per_second = 0.5;
  admission.burst = 0.0;
  cluster_->EnableAdmission(admission);

  RedirectingClient client(server_.get(), nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(cluster_.get());  // default traffic class: verification

  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(client.FetchClass("app/C" + std::to_string(i)).ok());
  }
  EXPECT_EQ(client.admission_sheds(), 0u);
  EXPECT_EQ(client.overloaded_rejections(), 0u);
  for (size_t i = 0; i < cluster_->size(); i++) {
    EXPECT_EQ(cluster_->admission(i)->shed_for(ShedTier::kUnsheddable), 0u);
  }
}

TEST_F(FailoverTest, DirectMissesAreCountedAndCharged) {
  // Direct source exists but lacks the app classes entirely.
  MapClassProvider direct;
  RedirectingClient client(server_.get(), &direct, DvmMachineConfig(), MakeEthernet10Mb());

  uint64_t before = client.machine().virtual_nanos();
  ASSERT_TRUE(client.FetchClass("app/Main").ok());
  EXPECT_EQ(client.direct_misses(), 1u);
  EXPECT_EQ(client.stats().Value("redirect.direct_misses"), 1u);
  // The failed round trip cost at least two propagation delays.
  EXPECT_GT(client.machine().virtual_nanos(), before + 2 * MakeEthernet10Mb().latency());
}

}  // namespace
}  // namespace dvm
