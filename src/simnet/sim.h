// Deterministic discrete-event network substrate.
//
// The paper's testbed is a pool of clients on 10 Mb/s Ethernet behind an HTTP
// proxy, with two 100 Mb/s Internet uplinks. We reproduce the experiments on a
// simulator built from three primitives:
//   EventQueue — a time-ordered callback queue (deterministic tie-breaking),
//   SimLink    — a serializing FIFO pipe with bandwidth + latency,
//   CpuServer  — a single-CPU FIFO work queue (the proxy's processor).
// Wide-area fetch latency is modelled as a lognormal distribution calibrated
// to the paper's measurement (mean 2198 ms, sigma 3752 ms, section 4.1.2).
//
// Scale: the north star demands 10^6+ simulated clients, so EventQueue is a
// hierarchical timer wheel over a slab of fixed-size pooled event records
// (freelist reuse, no per-event heap allocation on the raw-callback path).
// Its contract is heap order: events run in strictly increasing
// (when, sequence) order, ties in schedule order. The queue checks that
// contract itself on every run and aborts when an event would run out of
// order or when it finds nothing to run while events are still pending, so
// every test and bench run is an oracle for the wheel. See DESIGN.md §12.
#ifndef SRC_SIMNET_SIM_H_
#define SRC_SIMNET_SIM_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/support/rng.h"
#include "src/support/trace.h"

namespace dvm {

using SimTime = uint64_t;  // nanoseconds

inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;
inline constexpr SimTime kSimTimeForever = std::numeric_limits<SimTime>::max();

// Saturating double→SimTime conversion for model code that computes durations
// in floating point (link transmission, WAN fetch). NaN and negative values
// clamp to 0; +inf and anything ≥ 2^63 clamps to kSimTimeForever. Without the
// clamp, a huge byte count wrapped negative-to-unsigned (UB on the cast) and
// produced a bogus small duration instead of "effectively never".
inline SimTime SaturatingNanos(double nanos) {
  if (!(nanos > 0.0)) {  // NaN compares false: NaN and negatives both land here
    return 0;
  }
  if (nanos >= 9.2e18) {  // ≥ 2^63: double→uint64 is UB territory, clamp first
    return kSimTimeForever;
  }
  return static_cast<SimTime>(nanos);
}

class EventQueue {
 public:
  using Callback = std::function<void()>;
  // Allocation-free fast path: a raw function pointer with a context pointer
  // and a 64-bit argument. A million pooled clients schedule through this so
  // no std::function (and no possible capture allocation) is involved.
  using RawCallback = void (*)(void* ctx, uint64_t arg);

  // Scheduling before now() aborts: the event would run out of order and
  // move the clock backwards.
  void Schedule(SimTime when, Callback callback);
  void Schedule(SimTime when, RawCallback fn, void* ctx, uint64_t arg);

  // Runs the earliest pending event; returns false when none remain. Aborts
  // when the event's (when, sequence) is not strictly greater than the
  // previous event's, or when no event is found while pending() != 0.
  bool RunNext();
  void RunUntilEmpty();
  // Runs every event with when <= deadline (in global order), then advances
  // the clock to max(now, deadline). Returns the number of events run.
  size_t RunUntil(SimTime deadline);
  // Earliest pending event time into *when; false when the queue is empty.
  // Aborts, like RunNext, when no event is found while pending() != 0.
  bool PeekNextWhen(SimTime* when);

  // Runaway guard: once more than `limit` events have executed, the next
  // RunNext aborts loudly (a scenario bug should fail, not spin forever).
  // 0 = unlimited.
  void set_max_events(uint64_t limit) { max_events_ = limit; }
  uint64_t events_run() const { return events_run_; }

  SimTime now() const { return now_; }
  size_t pending() const { return pending_; }
  // Slab capacity in event records; bounded by the peak number of
  // simultaneously pending events thanks to freelist reuse.
  size_t pool_capacity() const { return pool_.size(); }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  // Wheel geometry: 1024 ns ticks, 6 levels of 64 slots each. Level L's slots
  // each cover 64^L ticks, so the wheel spans 64^6 ticks ≈ 19.5 hours of
  // virtual time ahead of `now`; anything farther waits in an overflow list
  // and is re-filed when the wheel catches up.
  static constexpr int kTickShift = 10;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 6;

  // Fixed-size pooled event record. Either a raw callback (fn/ctx/arg) or a
  // std::function; the record itself is reused through the freelist, so the
  // raw path never touches the allocator and the std::function path only
  // allocates when a capture outgrows the small-buffer optimization.
  struct Event {
    SimTime when = 0;
    uint64_t sequence = 0;
    uint32_t next = kNil;  // intrusive slot-list / freelist link
    RawCallback raw_fn = nullptr;
    void* raw_ctx = nullptr;
    uint64_t raw_arg = 0;
    Callback callback;  // empty when raw_fn is set
  };

  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  // Pooled record for an event at `when` with the next sequence number;
  // aborts when `when` is before now().
  uint32_t NewEvent(SimTime when);
  uint32_t AllocRecord();
  void FreeRecord(uint32_t index);
  void InsertWheel(uint32_t index);
  void PushSlot(int level, int slot, uint32_t index);
  // Moves the level-0 slot holding `tick` into the ready heap.
  void DrainSlotToReady(int level, int slot);
  // Re-files every event of a higher-level slot one level down.
  void CascadeSlot(int level, int slot);
  // Advances current_tick_ until the ready heap is non-empty; false when no
  // events remain anywhere (wheel + overflow).
  bool AdvanceWheel();
  void ReadyPush(uint32_t index);
  uint32_t ReadyPop();
  // The order check: `event` must come strictly after the last event run.
  void CheckOrder(const Event& event) const;
  void CheckRunawayGuard() const;

  SimTime now_ = 0;
  // Sequence numbers start at 1, so 0 means no event has run yet.
  uint64_t next_sequence_ = 1;
  uint64_t last_sequence_ = 0;
  size_t pending_ = 0;
  uint64_t events_run_ = 0;
  uint64_t max_events_ = 0;

  std::vector<Event> pool_;
  uint32_t free_head_ = kNil;
  Slot wheel_[kLevels][kSlots];
  uint64_t occupied_[kLevels] = {};
  uint64_t current_tick_ = 0;
  std::vector<uint32_t> ready_;     // binary heap by (when, sequence)
  std::vector<uint32_t> overflow_;  // beyond the wheel horizon
};

// A duplex point-to-point link, modelled as two independent serializing pipes.
// Deliver() computes the receiver-side completion time of a message offered at
// `start`: the sender serializes messages (FIFO), then propagation latency.
class SimLink {
 public:
  SimLink(double bytes_per_second, SimTime latency)
      : bytes_per_second_(bytes_per_second), latency_(latency) {}

  static SimLink FromBitsPerSecond(double bits_per_second, SimTime latency) {
    return SimLink(bits_per_second / 8.0, latency);
  }

  SimTime Deliver(SimTime start, uint64_t bytes);
  // Traced variant: records a "link.deliver" span under `trace.parent` with
  // queueing / transmission / propagation sub-spans, so a trace shows whether
  // a slow delivery was head-of-line blocking or the wire itself.
  SimTime Deliver(SimTime start, uint64_t bytes, const TraceContext& trace);

  // Saturates instead of wrapping: huge byte counts (or a zero-bandwidth
  // link) clamp to kSimTimeForever rather than casting a too-large double to
  // an unsigned (which is UB and used to come out as a tiny bogus duration).
  SimTime TransmissionTime(uint64_t bytes) const {
    return SaturatingNanos(static_cast<double>(bytes) / bytes_per_second_ * 1e9);
  }

  double bytes_per_second() const { return bytes_per_second_; }
  SimTime latency() const { return latency_; }
  SimTime busy_until() const { return busy_until_; }
  uint64_t bytes_carried() const { return bytes_carried_; }
  void Reset() {
    busy_until_ = 0;
    bytes_carried_ = 0;
  }

 private:
  double bytes_per_second_;
  SimTime latency_;
  SimTime busy_until_ = 0;
  uint64_t bytes_carried_ = 0;
};

// Single-processor FIFO server: jobs arriving at `ready` run for `cpu` after
// the queue drains. Models the proxy host's CPU for the scaling experiment.
class CpuServer {
 public:
  // Returns the completion time.
  SimTime Execute(SimTime ready, SimTime cpu);

  SimTime busy_until() const { return busy_until_; }
  SimTime busy_time() const { return busy_time_; }
  uint64_t jobs() const { return jobs_; }
  void Reset() {
    busy_until_ = 0;
    busy_time_ = 0;
    jobs_ = 0;
  }

 private:
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  uint64_t jobs_ = 0;
};

// Wide-area fetch model: per-object latency drawn from the paper's measured
// distribution plus size-dependent transfer at `bytes_per_second`.
class WanModel {
 public:
  WanModel(uint64_t seed, double mean_latency_ms = 2198.0, double stddev_latency_ms = 3752.0,
           double bytes_per_second = 40'000.0)
      : rng_(seed),
        mean_ms_(mean_latency_ms),
        stddev_ms_(stddev_latency_ms),
        bytes_per_second_(bytes_per_second) {}

  // Duration of fetching `bytes` from an Internet origin. Saturates at
  // kSimTimeForever for byte counts whose transfer time overflows SimTime.
  SimTime FetchDuration(uint64_t bytes) {
    double latency_ms = rng_.NextLognormal(mean_ms_, stddev_ms_);
    double transfer_s = static_cast<double>(bytes) / bytes_per_second_;
    return SaturatingNanos(latency_ms * 1e6 + transfer_s * 1e9);
  }

 private:
  Rng rng_;
  double mean_ms_;
  double stddev_ms_;
  double bytes_per_second_;
};

// Canonical link presets from the paper's environment.
SimLink MakeEthernet10Mb();                 // client LAN
SimLink MakeModem(double kilobits_per_s);   // section 5 slow links (28.8 up)

}  // namespace dvm

#endif  // SRC_SIMNET_SIM_H_
