// Tests for the scale layer: the hierarchical timer wheel against its
// specification (every schedule runs as the stable sort of what was
// scheduled, by (when, schedule order)), the queue's always-on order checks,
// the saturating time conversions, the runaway guard, the slab/freelist
// bound, admission control's shed-priority policy, and the pooled
// million-client ClientPool.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/dvm/admission.h"
#include "src/dvm/client_pool.h"
#include "src/dvm/retry.h"
#include "src/simnet/sim.h"
#include "src/support/rng.h"

namespace dvm {
namespace {

// --- wheel vs specification ------------------------------------------------------

struct Recorded {
  uint64_t id;
  SimTime at;
  bool operator==(const Recorded& other) const { return id == other.id && at == other.at; }
};

// The specification each differential test checks the wheel against: heap
// order is the stable sort of everything scheduled by firing time, so ties
// run in schedule order, each at its own time.
std::vector<Recorded> HeapOrder(std::vector<Recorded> scheduled) {
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const Recorded& a, const Recorded& b) { return a.at < b.at; });
  return scheduled;
}

// Logs every event in schedule order and every execution (event id, clock
// reading) in run order.
class Recorder {
 public:
  // Schedules event `id` at `when`; `then` (if any) runs inside the callback,
  // after the execution is logged.
  void Add(SimTime when, uint64_t id, std::function<void()> then = nullptr) {
    scheduled_.push_back({id, when});
    queue_.Schedule(when, [this, id, then = std::move(then)] {
      ran_.push_back({id, queue_.now()});
      if (then) {
        then();
      }
    });
  }

  std::vector<Recorded> Expected() const { return HeapOrder(scheduled_); }

  EventQueue& queue() { return queue_; }
  const std::vector<Recorded>& ran() const { return ran_; }

 private:
  EventQueue queue_;
  std::vector<Recorded> scheduled_;
  std::vector<Recorded> ran_;
};

TEST(TimerWheelDifferentialTest, RandomScheduleMatchesHeapExactly) {
  // Mixed magnitudes: same-tick ties, nearby ticks, far ticks crossing many
  // wheel levels.
  Rng rng(2024);
  Recorder recorder;
  for (uint64_t id = 0; id < 4000; id++) {
    uint64_t magnitude = rng.Uniform(14);  // up to ~10^13 ns, beyond level 0-5
    recorder.Add(rng.Uniform(10) + (rng.Next() % (1ULL << (magnitude * 4 % 44))), id);
  }
  recorder.queue().RunUntilEmpty();
  ASSERT_EQ(recorder.ran().size(), 4000u);
  EXPECT_EQ(recorder.ran(), recorder.Expected());
  EXPECT_EQ(recorder.queue().now(), recorder.Expected().back().at);
}

TEST(TimerWheelDifferentialTest, NestedSchedulingFromCallbacksMatches) {
  // Callbacks schedule follow-ups relative to the virtual clock — the pattern
  // every simulation loop uses. Sequence numbers are assigned at Schedule
  // time, so follow-ups tied with earlier events run after them.
  Recorder recorder;
  EventQueue& queue = recorder.queue();
  Rng rng(7);
  for (uint64_t id = 0; id < 64; id++) {
    recorder.Add(rng.Uniform(1000), id, [&, id] {
      if (id % 3 != 0) {
        // Two generations of follow-up events, some landing on tied times.
        recorder.Add(queue.now() + (id % 5) * 100, id + 1000,
                     [&, id] { recorder.Add(queue.now(), id + 2000); });
      }
    });
  }
  queue.RunUntilEmpty();
  EXPECT_EQ(recorder.ran().size(), 64u + 2 * 42u);
  EXPECT_EQ(recorder.ran(), recorder.Expected());
}

TEST(TimerWheelDifferentialTest, TiesRunInScheduleOrderAcrossLevels) {
  // Ties filed from different wheel levels (one direct, one cascaded from a
  // higher level) must still fire in schedule order.
  Recorder recorder;
  SimTime far = 50'000'000;  // several level-1 rotations out
  recorder.Add(far, 0);
  recorder.Add(1000, 10, [&] { recorder.Add(far, 1); });  // same time, later sequence
  recorder.queue().RunUntilEmpty();
  EXPECT_EQ(recorder.ran(), recorder.Expected());
  EXPECT_EQ(recorder.ran(), (std::vector<Recorded>{{10, 1000}, {0, far}, {1, far}}));
}

TEST(TimerWheelDifferentialTest, FarFutureEventsBeyondHorizonOverflowAndRun) {
  // The wheel spans ~19.5 hours; these sit days out and exercise the
  // overflow list and the rebase path.
  Recorder recorder;
  const SimTime day = 86'400ULL * kSecond;
  std::vector<SimTime> whens = {5,          3 * day,      3 * day,  90 * day,
                                2 * kSecond, 3 * day + 1, 400 * day};
  for (uint64_t id = 0; id < whens.size(); id++) {
    recorder.Add(whens[id], id);
  }
  recorder.queue().RunUntilEmpty();
  EXPECT_EQ(recorder.ran(), recorder.Expected());
  EXPECT_EQ(recorder.queue().now(), 400 * day);
}

TEST(TimerWheelDifferentialTest, RawCallbackPathMatchesFunctionPath) {
  // Raw and std::function callbacks share one sequence, so ties between them
  // run in schedule order too.
  struct Capture {
    EventQueue* queue;
    std::vector<Recorded>* ran;
  };
  auto fire = +[](void* ctx, uint64_t arg) {
    auto* capture = static_cast<Capture*>(ctx);
    capture->ran->push_back({arg, capture->queue->now()});
  };
  EventQueue queue;
  std::vector<Recorded> scheduled;
  std::vector<Recorded> ran;
  Capture capture{&queue, &ran};
  Rng rng(99);
  for (uint64_t id = 0; id < 512; id++) {
    SimTime when = rng.Uniform(1 << 12);  // dense: many raw/function ties
    scheduled.push_back({id, when});
    if (id % 2 == 0) {
      queue.Schedule(when, fire, &capture, id);
    } else {
      queue.Schedule(when, [&ran, &queue, id] { ran.push_back({id, queue.now()}); });
    }
  }
  queue.RunUntilEmpty();
  ASSERT_EQ(ran.size(), scheduled.size());
  EXPECT_EQ(ran, HeapOrder(scheduled));
}

// --- RunUntil / guard / pool -----------------------------------------------------

TEST(EventQueueRunUntilTest, RunsThroughDeadlineAndAdvancesClock) {
  EventQueue queue;
  std::vector<uint64_t> ran;
  for (uint64_t id = 0; id < 10; id++) {
    queue.Schedule(id * 100, [&ran, id] { ran.push_back(id); });
  }
  EXPECT_EQ(queue.RunUntil(450), 5u);  // ids 0..4 (when 0..400)
  EXPECT_EQ(ran.size(), 5u);
  EXPECT_EQ(queue.now(), 450u);  // clock lands on the deadline, not the last event
  EXPECT_EQ(queue.pending(), 5u);
  // An event due exactly at the passed deadline runs after the ones already
  // pending there.
  queue.Schedule(450, [&ran] { ran.push_back(99); });
  EXPECT_EQ(queue.RunUntil(10'000), 6u);
  EXPECT_EQ(ran, (std::vector<uint64_t>{0, 1, 2, 3, 4, 99, 5, 6, 7, 8, 9}));
  EXPECT_EQ(queue.now(), 10'000u);
  // Idle window: no events, clock still advances.
  EXPECT_EQ(queue.RunUntil(20'000), 0u);
  EXPECT_EQ(queue.now(), 20'000u);
}

TEST(EventQueueGuardDeathTest, RunawayScheduleAbortsLoudly) {
  auto runaway = [] {
    EventQueue queue;
    queue.set_max_events(100);
    // Self-perpetuating event: a scenario bug that would otherwise spin
    // forever must die with a diagnostic instead.
    std::function<void()> tick = [&] { queue.Schedule(queue.now() + 10, tick); };
    queue.Schedule(0, tick);
    queue.RunUntilEmpty();
  };
  EXPECT_DEATH(runaway(), "runaway scenario");
}

TEST(EventQueueGuardDeathTest, SchedulingInThePastAbortsInEveryBuild) {
  auto from_callback = [] {
    EventQueue queue;
    queue.Schedule(1000, [&queue] { queue.Schedule(999, [] {}); });
    queue.RunUntilEmpty();
  };
  EXPECT_DEATH(from_callback(), "scheduled in the past — when=999 ns is before now=1000 ns");
  // RunUntil moves the clock to its deadline even when no event was due, so
  // an event before that deadline is in the past too.
  auto before_deadline = [] {
    EventQueue queue;
    queue.RunUntil(5000);
    queue.Schedule(4999, [] {});
  };
  EXPECT_DEATH(before_deadline(), "when=4999 ns is before now=5000 ns");
}

TEST(EventQueuePoolTest, FreelistBoundsSlabByPeakPendingNotTotal) {
  EventQueue queue;
  // 64 events in flight at any moment, 64 * 256 scheduled in total: the slab
  // must track the peak, not the volume.
  uint64_t fired = 0;
  for (int wave = 0; wave < 256; wave++) {
    for (int i = 0; i < 64; i++) {
      queue.Schedule(queue.now() + 1 + static_cast<SimTime>(i), [&fired] { fired++; });
    }
    while (queue.pending() > 0) {
      queue.RunNext();
    }
  }
  EXPECT_EQ(fired, 64u * 256u);
  EXPECT_LE(queue.pool_capacity(), 64u);
  EXPECT_EQ(queue.events_run(), 64u * 256u);
}

TEST(SaturatingNanosTest, ClampsInsteadOfWrapping) {
  EXPECT_EQ(SaturatingNanos(-5.0), 0u);
  EXPECT_EQ(SaturatingNanos(std::nan("")), 0u);
  EXPECT_EQ(SaturatingNanos(0.0), 0u);
  EXPECT_EQ(SaturatingNanos(1234.9), 1234u);
  EXPECT_EQ(SaturatingNanos(1e19), kSimTimeForever);
  EXPECT_EQ(SaturatingNanos(std::numeric_limits<double>::infinity()), kSimTimeForever);
}

TEST(SaturatingNanosTest, LinkAndWanDurationsSaturate) {
  // A petabyte on a 1 B/s link used to wrap the double→uint64 cast into a
  // small bogus duration; now it clamps to "never".
  SimLink link(1.0, 0);
  EXPECT_EQ(link.TransmissionTime(1ULL << 62), kSimTimeForever);
  EXPECT_EQ(SimLink(1000.0, 0).TransmissionTime(2000), 2 * kSecond);
  WanModel wan(1, 2198.0, 3752.0, /*bytes_per_second=*/0.001);
  EXPECT_EQ(wan.FetchDuration(1ULL << 62), kSimTimeForever);
}

// --- admission control / shed policy ---------------------------------------------

TEST(ShedPolicyTest, TiersFollowAvailabilityPolicy) {
  // Fail-closed classes are structurally unsheddable; observability sheds
  // before quality-of-service.
  EXPECT_EQ(ShedTierFor(ServiceClass::kVerification), ShedTier::kUnsheddable);
  EXPECT_EQ(ShedTierFor(ServiceClass::kSecurity), ShedTier::kUnsheddable);
  EXPECT_EQ(ShedTierFor(ServiceClass::kMonitoring), ShedTier::kShedFirst);
  EXPECT_EQ(ShedTierFor(ServiceClass::kProfiling), ShedTier::kShedFirst);
  EXPECT_EQ(ShedTierFor(ServiceClass::kCompilation), ShedTier::kShedLater);
  EXPECT_EQ(ShedTierFor(ServiceClass::kOptimization), ShedTier::kShedLater);
}

TEST(AdmissionControllerTest, VerificationIsNeverShedAtAnyDepth) {
  AdmissionConfig config;
  config.queue_capacity = 8;
  config.tokens_per_second = 1000.0;
  config.burst = 4.0;
  AdmissionController admission(config);
  // Flood far past the queue bound and the token supply: every verification
  // offer is still admitted.
  for (int i = 0; i < 10'000; i++) {
    EXPECT_TRUE(admission.Offer(ServiceClass::kVerification, 0).admitted);
  }
  EXPECT_EQ(admission.queue_depth(), 10'000u);
  EXPECT_EQ(admission.shed_for(ShedTier::kUnsheddable), 0u);
  EXPECT_EQ(admission.shed_total(), 0u);
  // Sheddable traffic at that depth is rejected with a retry hint.
  auto decision = admission.Offer(ServiceClass::kMonitoring, 0);
  EXPECT_FALSE(decision.admitted);
  EXPECT_GT(decision.retry_after, 0u);
  EXPECT_LE(decision.retry_after, config.max_retry_after);
}

TEST(AdmissionControllerTest, ObservabilityShedsBeforeQualityOfService) {
  AdmissionConfig config;
  config.queue_capacity = 100;   // shed-first bound 50, shed-later bound 90
  config.tokens_per_second = 1e9;
  config.burst = 1e9;            // tokens never the limiting factor here
  AdmissionController admission(config);
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(admission.Offer(ServiceClass::kCompilation, 0).admitted);
  }
  // Depth 60: between the two bounds — monitoring turned away, compilation
  // still admitted.
  EXPECT_FALSE(admission.Offer(ServiceClass::kMonitoring, 0).admitted);
  EXPECT_TRUE(admission.Offer(ServiceClass::kCompilation, 0).admitted);
  EXPECT_EQ(admission.shed_for(ShedTier::kShedFirst), 1u);
  EXPECT_EQ(admission.shed_for(ShedTier::kShedLater), 0u);
}

TEST(AdmissionControllerTest, TokenBucketRefillsAndHintCoversTheWait) {
  AdmissionConfig config;
  config.tokens_per_second = 1000.0;  // 1 token per millisecond
  config.burst = 2.0;
  config.queue_capacity = 1'000'000;  // depth not the limiting factor here
  AdmissionController admission(config);
  EXPECT_TRUE(admission.Offer(ServiceClass::kMonitoring, 0).admitted);
  EXPECT_TRUE(admission.Offer(ServiceClass::kMonitoring, 0).admitted);
  auto rejected = admission.Offer(ServiceClass::kMonitoring, 0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_GE(rejected.retry_after, kMillisecond);
  // Honoring the hint gets the next offer admitted.
  EXPECT_TRUE(admission.Offer(ServiceClass::kMonitoring, rejected.retry_after).admitted);
}

TEST(AdmissionControllerTest, CompleteFreesQueueSlots) {
  AdmissionConfig config;
  config.queue_capacity = 10;  // shed-first bound 5
  config.tokens_per_second = 1e9;
  config.burst = 1e9;
  AdmissionController admission(config);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(admission.Offer(ServiceClass::kMonitoring, 0).admitted);
  }
  EXPECT_FALSE(admission.Offer(ServiceClass::kMonitoring, 0).admitted);
  admission.Complete(0);
  EXPECT_TRUE(admission.Offer(ServiceClass::kMonitoring, 0).admitted);
  EXPECT_EQ(admission.queue_depth(), 5u);
}

TEST(AdmissionControllerTest, RetryAfterHintIsCapped) {
  AdmissionConfig config;
  config.queue_capacity = 4;
  config.tokens_per_second = 0.5;  // drain estimate for a deep queue: minutes
  config.burst = 1.0;
  config.max_retry_after = 3 * kSecond;
  AdmissionController admission(config);
  for (int i = 0; i < 5000; i++) {
    admission.Offer(ServiceClass::kVerification, 0);
  }
  auto decision = admission.Offer(ServiceClass::kProfiling, 0);
  EXPECT_FALSE(decision.admitted);
  EXPECT_EQ(decision.retry_after, 3 * kSecond);
}

// --- retry policy ----------------------------------------------------------------

TEST(RetryPolicyTest, BackoffDoublesToCapAndHonorsRetryAfter) {
  EXPECT_EQ(NextBackoff(10 * kMillisecond, 400 * kMillisecond), 20 * kMillisecond);
  EXPECT_EQ(NextBackoff(300 * kMillisecond, 400 * kMillisecond), 400 * kMillisecond);
  EXPECT_EQ(NextBackoff(400 * kMillisecond, 400 * kMillisecond), 400 * kMillisecond);
  // The server's drain estimate overrides a smaller exponential step, never
  // shortens a larger one.
  EXPECT_EQ(EffectiveBackoff(20 * kMillisecond, kSecond), kSecond);
  EXPECT_EQ(EffectiveBackoff(400 * kMillisecond, kMillisecond), 400 * kMillisecond);
}

// --- pooled clients --------------------------------------------------------------

struct PoolRun {
  uint64_t verify_succeeded;
  uint64_t verify_failed;
  uint64_t monitor_succeeded;
  uint64_t monitor_failed;
  uint64_t shed_attempts;
  uint64_t events;
  SimTime end;
};

PoolRun RunSmallPool() {
  EventQueue queue;
  std::vector<CpuServer> replicas(2);
  AdmissionConfig admission_config;
  admission_config.tokens_per_second = 2000.0;
  admission_config.burst = 10.0;
  admission_config.queue_capacity = 16;
  std::vector<AdmissionController> admission(2, AdmissionController(admission_config));
  ClientPoolConfig config;
  config.service_cpu_nanos = 500'000;  // 2000/s per replica
  StatsRegistry stats;
  ClientPool pool(config, &queue, &replicas, &admission, &stats);
  // 10x overload arriving in one burst: monitoring must shed, verification
  // must ride through.
  for (uint32_t id = 0; id < 2000; id++) {
    pool.Start(id, id % 2 == 0 ? ServiceClass::kVerification : ServiceClass::kMonitoring,
               1 + id % 7);
  }
  queue.set_max_events(2000 * 8);
  queue.RunUntilEmpty();
  return PoolRun{pool.succeeded(ServiceClass::kVerification),
                 pool.failed(ServiceClass::kVerification),
                 pool.succeeded(ServiceClass::kMonitoring),
                 pool.failed(ServiceClass::kMonitoring),
                 pool.shed_attempts(),
                 queue.events_run(),
                 queue.now()};
}

TEST(ClientPoolTest, VerificationSurvivesOverloadAndRunsAreDeterministic) {
  PoolRun first = RunSmallPool();
  EXPECT_EQ(first.verify_succeeded, 1000u);  // 100%: fail-closed never shed
  EXPECT_EQ(first.verify_failed, 0u);
  EXPECT_GT(first.shed_attempts, 0u);
  EXPECT_EQ(first.monitor_succeeded + first.monitor_failed, 1000u);
  EXPECT_LT(first.monitor_succeeded, 1000u);  // overload actually shed traffic

  PoolRun again = RunSmallPool();
  EXPECT_EQ(first.verify_succeeded, again.verify_succeeded);
  EXPECT_EQ(first.monitor_succeeded, again.monitor_succeeded);
  EXPECT_EQ(first.monitor_failed, again.monitor_failed);
  EXPECT_EQ(first.shed_attempts, again.shed_attempts);
  EXPECT_EQ(first.events, again.events);
  EXPECT_EQ(first.end, again.end);
}

}  // namespace
}  // namespace dvm
