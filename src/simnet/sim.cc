#include "src/simnet/sim.h"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace dvm {

namespace {

// All-ones from bit `from` upward; 0 when from >= 64.
inline uint64_t BitsFrom(int from) {
  return from >= 64 ? 0 : (~0ULL << from);
}

inline int CountTrailingZeros(uint64_t x) {
  assert(x != 0);
  return __builtin_ctzll(x);
}

using ull = unsigned long long;

// Prints the diagnostic and aborts: a scenario bug or a broken queue must
// fail loudly, not run on with a wrong clock.
[[noreturn, gnu::cold, gnu::format(printf, 1, 2)]] void Fail(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::abort();
}

}  // namespace

uint32_t EventQueue::NewEvent(SimTime when) {
  if (when < now_) [[unlikely]] {
    Fail("EventQueue: event scheduled in the past — when=%llu ns is before now=%llu ns\n",
         static_cast<ull>(when), static_cast<ull>(now_));
  }
  uint32_t index = AllocRecord();
  pool_[index].when = when;
  pool_[index].sequence = next_sequence_++;
  return index;
}

uint32_t EventQueue::AllocRecord() {
  if (free_head_ != kNil) {
    uint32_t index = free_head_;
    free_head_ = pool_[index].next;
    return index;
  }
  assert(pool_.size() < kNil);
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void EventQueue::FreeRecord(uint32_t index) {
  Event& event = pool_[index];
  event.raw_fn = nullptr;
  event.raw_ctx = nullptr;
  event.callback = nullptr;
  event.next = free_head_;
  free_head_ = index;
}

void EventQueue::PushSlot(int level, int slot, uint32_t index) {
  Slot& s = wheel_[level][slot];
  pool_[index].next = kNil;
  if (s.head == kNil) {
    s.head = s.tail = index;
  } else {
    pool_[s.tail].next = index;
    s.tail = index;
  }
  occupied_[level] |= 1ULL << slot;
}

void EventQueue::InsertWheel(uint32_t index) {
  uint64_t tick = pool_[index].when >> kTickShift;
  if (tick <= current_tick_) {
    // Due in the tick being executed (or the wheel has not advanced past it
    // yet): straight to the ready heap, which orders by (when, sequence).
    ReadyPush(index);
    return;
  }
  // File at the lowest level whose parent super-slot still contains `now` —
  // that level's slot for `tick` has not been passed, so it is reachable by
  // a forward scan of the current rotation.
  for (int level = 0; level < kLevels; level++) {
    int parent_shift = kSlotBits * (level + 1);
    if ((tick >> parent_shift) == (current_tick_ >> parent_shift)) {
      PushSlot(level, static_cast<int>((tick >> (kSlotBits * level)) & (kSlots - 1)), index);
      return;
    }
  }
  overflow_.push_back(index);
}

void EventQueue::ReadyPush(uint32_t index) {
  ready_.push_back(index);
  std::push_heap(ready_.begin(), ready_.end(), [this](uint32_t a, uint32_t b) {
    const Event& ea = pool_[a];
    const Event& eb = pool_[b];
    return ea.when != eb.when ? ea.when > eb.when : ea.sequence > eb.sequence;
  });
}

uint32_t EventQueue::ReadyPop() {
  std::pop_heap(ready_.begin(), ready_.end(), [this](uint32_t a, uint32_t b) {
    const Event& ea = pool_[a];
    const Event& eb = pool_[b];
    return ea.when != eb.when ? ea.when > eb.when : ea.sequence > eb.sequence;
  });
  uint32_t index = ready_.back();
  ready_.pop_back();
  return index;
}

void EventQueue::DrainSlotToReady(int level, int slot) {
  uint32_t index = wheel_[level][slot].head;
  wheel_[level][slot] = Slot{};
  occupied_[level] &= ~(1ULL << slot);
  while (index != kNil) {
    uint32_t next = pool_[index].next;
    ReadyPush(index);
    index = next;
  }
}

void EventQueue::CascadeSlot(int level, int slot) {
  uint32_t index = wheel_[level][slot].head;
  wheel_[level][slot] = Slot{};
  occupied_[level] &= ~(1ULL << slot);
  while (index != kNil) {
    uint32_t next = pool_[index].next;
    InsertWheel(index);  // re-files at a lower level relative to current_tick_
    index = next;
  }
}

bool EventQueue::AdvanceWheel() {
  while (ready_.empty()) {
    // Next occupied level-0 slot in the current rotation, if any.
    int slot0 = static_cast<int>(current_tick_ & (kSlots - 1));
    uint64_t mask0 = occupied_[0] & BitsFrom(slot0);
    if (mask0 != 0) {
      int slot = CountTrailingZeros(mask0);
      current_tick_ = (current_tick_ & ~static_cast<uint64_t>(kSlots - 1)) |
                      static_cast<uint64_t>(slot);
      DrainSlotToReady(0, slot);
      continue;  // ready_ now non-empty
    }
    // Level-0 rotation exhausted: cascade the nearest higher-level slot down.
    // Lower levels hold strictly sooner events, so scan levels in order.
    bool cascaded = false;
    for (int level = 1; level < kLevels && !cascaded; level++) {
      int slotL = static_cast<int>((current_tick_ >> (kSlotBits * level)) & (kSlots - 1));
      uint64_t maskL = occupied_[level] & BitsFrom(slotL);
      if (maskL == 0) {
        continue;
      }
      int slot = CountTrailingZeros(maskL);
      int shift = kSlotBits * (level + 1);
      uint64_t parent_base = (current_tick_ >> shift) << shift;
      current_tick_ = parent_base + (static_cast<uint64_t>(slot) << (kSlotBits * level));
      CascadeSlot(level, slot);
      cascaded = true;
    }
    if (cascaded) {
      continue;
    }
    if (overflow_.empty()) {
      if (pending_ != 0) [[unlikely]] {
        Fail("EventQueue: %zu pending events lost — the wheel holds none at t=%llu ns\n",
             pending_, static_cast<ull>(now_));
      }
      return false;
    }
    // Everything left is beyond the old horizon. Rebase the wheel at the
    // earliest overflow event and re-file the whole list; re-filed events are
    // now within the (new) horizon or stay in overflow for a later rebase.
    uint64_t min_tick = kSimTimeForever;
    for (uint32_t index : overflow_) {
      min_tick = std::min(min_tick, pool_[index].when >> kTickShift);
    }
    current_tick_ = min_tick;
    std::vector<uint32_t> pending_overflow;
    pending_overflow.swap(overflow_);
    for (uint32_t index : pending_overflow) {
      if ((pool_[index].when >> kTickShift) == current_tick_) {
        ReadyPush(index);
      } else {
        InsertWheel(index);
      }
    }
  }
  return true;
}

void EventQueue::Schedule(SimTime when, Callback callback) {
  uint32_t index = NewEvent(when);
  pool_[index].callback = std::move(callback);
  InsertWheel(index);
  pending_++;
}

void EventQueue::Schedule(SimTime when, RawCallback fn, void* ctx, uint64_t arg) {
  uint32_t index = NewEvent(when);
  Event& event = pool_[index];
  event.raw_fn = fn;
  event.raw_ctx = ctx;
  event.raw_arg = arg;
  InsertWheel(index);
  pending_++;
}

void EventQueue::CheckOrder(const Event& event) const {
  // now_ is the last event's time, or a later RunUntil deadline. Every event
  // pending at that deadline is due after it, and every event scheduled since
  // has a larger sequence, so comparing against now_ checks strict
  // (when, sequence) order.
  if (event.when < now_ || (event.when == now_ && event.sequence <= last_sequence_))
      [[unlikely]] {
    Fail("EventQueue: event (when=%llu ns, sequence=%llu) runs after "
         "(when=%llu ns, sequence=%llu) — out of order, aborting with %zu pending\n",
         static_cast<ull>(event.when), static_cast<ull>(event.sequence),
         static_cast<ull>(now_), static_cast<ull>(last_sequence_), pending_);
  }
}

void EventQueue::CheckRunawayGuard() const {
  if (max_events_ != 0 && events_run_ > max_events_) [[unlikely]] {
    Fail("EventQueue: runaway scenario — %llu events executed "
         "(max_events=%llu), aborting at t=%llu ns with %zu pending\n",
         static_cast<ull>(events_run_), static_cast<ull>(max_events_),
         static_cast<ull>(now_), pending_);
  }
}

bool EventQueue::RunNext() {
  if (ready_.empty() && !AdvanceWheel()) {
    return false;
  }
  uint32_t index = ReadyPop();
  Event& event = pool_[index];
  CheckOrder(event);
  now_ = event.when;
  last_sequence_ = event.sequence;
  pending_--;
  events_run_++;
  CheckRunawayGuard();
  // Move everything out before freeing: the callback may Schedule, which can
  // grow the pool (invalidating `event`) or reuse this very record.
  if (event.raw_fn != nullptr) {
    RawCallback fn = event.raw_fn;
    void* ctx = event.raw_ctx;
    uint64_t arg = event.raw_arg;
    FreeRecord(index);
    fn(ctx, arg);
  } else {
    Callback callback = std::move(event.callback);
    FreeRecord(index);
    callback();
  }
  return true;
}

void EventQueue::RunUntilEmpty() {
  while (RunNext()) {
  }
}

bool EventQueue::PeekNextWhen(SimTime* when) {
  if (ready_.empty() && !AdvanceWheel()) {
    return false;
  }
  *when = pool_[ready_.front()].when;
  return true;
}

size_t EventQueue::RunUntil(SimTime deadline) {
  size_t ran = 0;
  SimTime when = 0;
  while (PeekNextWhen(&when) && when <= deadline) {
    RunNext();
    ran++;
  }
  now_ = std::max(now_, deadline);
  return ran;
}

SimTime SimLink::Deliver(SimTime start, uint64_t bytes) {
  return Deliver(start, bytes, TraceContext{});
}

SimTime SimLink::Deliver(SimTime start, uint64_t bytes, const TraceContext& trace) {
  SimTime begin = std::max(start, busy_until_);
  SimTime transmission = TransmissionTime(bytes);
  SimTime done = begin + transmission;
  SimTime arrival = done + latency_;
  if (trace.active()) {
    SpanId deliver = trace.tracer->Begin("link.deliver", trace.parent, start, "link");
    trace.tracer->Annotate(deliver, "bytes", std::to_string(bytes));
    if (begin > start) {
      trace.tracer->Emit("queue", deliver, start, begin, "link");
    }
    trace.tracer->Emit("transmit", deliver, begin, done, "link");
    if (latency_ > 0) {
      trace.tracer->Emit("propagate", deliver, done, arrival, "link");
    }
    trace.tracer->End(deliver, arrival);
  }
  busy_until_ = done;
  bytes_carried_ += bytes;
  return arrival;
}

SimTime CpuServer::Execute(SimTime ready, SimTime cpu) {
  SimTime begin = std::max(ready, busy_until_);
  busy_until_ = begin + cpu;
  busy_time_ += cpu;
  jobs_++;
  return busy_until_;
}

SimLink MakeEthernet10Mb() {
  // 10 Mb/s shared Ethernet, sub-millisecond LAN latency.
  return SimLink::FromBitsPerSecond(10e6, 500'000);
}

SimLink MakeModem(double kilobits_per_s) {
  // Wireless / dial-up links of section 5: high latency, low bandwidth.
  return SimLink::FromBitsPerSecond(kilobits_per_s * 1000.0, 100 * kMillisecond);
}

}  // namespace dvm
