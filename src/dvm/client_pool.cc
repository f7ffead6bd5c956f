#include "src/dvm/client_pool.h"

#include <cassert>
#include <string>

#include "src/dvm/retry.h"
#include "src/support/hash.h"

namespace dvm {

ClientPool::ClientPool(ClientPoolConfig config, EventQueue* queue,
                       std::vector<CpuServer>* replicas,
                       std::vector<AdmissionController>* admission, StatsRegistry* stats)
    : config_(config), queue_(queue), replicas_(replicas), admission_(admission) {
  assert(!replicas_->empty());
  assert(admission_ == nullptr || admission_->empty() ||
         admission_->size() == replicas_->size());
  assert(config_.backoff_cap < (SimTime{1} << 32) && "backoff column is 32-bit");
  for (size_t i = 0; i < kServiceClasses; i++) {
    latency_[i] = &stats->Histo(std::string("pool.latency.") +
                                ServiceClassName(static_cast<ServiceClass>(i)));
  }
}

SimTime ClientPool::LinkTime() const {
  return SaturatingNanos(static_cast<double>(config_.response_bytes) /
                         config_.link_bytes_per_second * 1e9) +
         config_.link_latency;
}

void ClientPool::Start(uint32_t id, ServiceClass traffic, SimTime arrival) {
  if (traffic_.size() <= id) {
    traffic_.resize(id + 1);
    attempts_.resize(id + 1);
    backoff_ns_.resize(id + 1);
    start_.resize(id + 1);
  }
  traffic_[id] = static_cast<uint8_t>(traffic);
  attempts_[id] = 0;
  backoff_ns_[id] = static_cast<uint32_t>(config_.backoff_base);
  start_[id] = arrival;
  started_[static_cast<size_t>(traffic)]++;
  queue_->Schedule(arrival, &OnAttemptThunk, this, id);
}

void ClientPool::OnAttempt(uint32_t id) {
  SimTime now = queue_->now();
  ServiceClass traffic = static_cast<ServiceClass>(traffic_[id]);
  // Replica affinity by client id, rotating to the next replica on each
  // retry (the pooled analogue of rendezvous failover).
  uint32_t replica = static_cast<uint32_t>(
      (Mix64(id) + attempts_[id]) % replicas_->size());
  issued_++;

  if (admission_ != nullptr && !admission_->empty()) {
    AdmissionController::Decision decision = (*admission_)[replica].Offer(traffic, now);
    if (!decision.admitted) {
      shed_attempts_++;
      attempts_[id]++;
      if (attempts_[id] >= config_.retry_budget) {
        // Typed kOverloaded rejection in the full client; here it is the
        // per-class failure count (only sheddable classes can land here).
        failed_[static_cast<size_t>(traffic)]++;
        return;
      }
      SimTime wait =
          EffectiveBackoff(backoff_ns_[id], decision.retry_after, config_.request_deadline);
      backoff_ns_[id] =
          static_cast<uint32_t>(NextBackoff(backoff_ns_[id], config_.backoff_cap));
      queue_->Schedule(now + wait, &OnAttemptThunk, this, id);
      return;
    }
  }

  // Admitted: the replica's FIFO CPU serves the request; the completion event
  // fires when the CPU finishes (the access-link time is added to the
  // recorded latency arithmetically — each client has a private link).
  SimTime done_cpu = (*replicas_)[replica].Execute(now, config_.service_cpu_nanos);
  queue_->Schedule(done_cpu, &OnCompleteThunk, this,
                   static_cast<uint64_t>(id) | (static_cast<uint64_t>(replica) << 32));
}

void ClientPool::OnComplete(uint32_t id, uint32_t replica) {
  SimTime now = queue_->now();
  if (admission_ != nullptr && !admission_->empty()) {
    (*admission_)[replica].Complete(now);
  }
  size_t traffic = traffic_[id];
  succeeded_[traffic]++;
  SimTime delivered = now + LinkTime();
  latency_[traffic]->Record(delivered - start_[id]);
  if (span_ring_ != nullptr && sampler_.Keep(id)) {
    Span span;
    span.id = id;
    span.name = ServiceClassName(static_cast<ServiceClass>(traffic));
    span.category = "pool";
    span.track = replica + 1;
    span.start_nanos = start_[id];
    span.end_nanos = delivered;
    span.annotations.emplace_back("attempts", std::to_string(attempts_[id] + 1));
    span_ring_->Push(std::move(span));
    spans_sampled_++;
  }
}

}  // namespace dvm
