#include "src/dvm/redirect_client.h"

#include <algorithm>
#include <cassert>

#include "src/dvm/replication.h"
#include "src/dvm/retry.h"
#include "src/services/verify_service.h"
#include "src/support/hash.h"

namespace dvm {

namespace {

// Signature-verification work on the client (keyed digest over the class).
constexpr uint64_t kSignatureCheckNanosPerByte = 35;
// Size of a class-request message (headers + name), for failed round trips.
constexpr uint64_t kRequestMessageBytes = 256;

}  // namespace

RedirectingClient::RedirectingClient(DvmServer* server, ClassProvider* direct,
                                     MachineConfig machine_config, SimLink link)
    : server_(server),
      direct_(direct),
      link_(link),
      h_fetch_nanos_(stats_.Histo("redirect.fetch_nanos")) {
  assert(server_->config().proxy.sign_output &&
         "redirect protocol requires a signing proxy");
  machine_ = std::make_unique<Machine>(machine_config, this);
  InstallVerifierRuntime(*machine_);
  enforcement_ = std::make_unique<EnforcementManager>(&server_->security_server());
  enforcement_->Install(*machine_);
  audit_ = std::make_unique<AuditSession>(&server_->console(), "redirect-user",
                                          "redirect-client");
  audit_->Install(*machine_);
  profiler_ = std::make_unique<ProfileCollector>(&server_->console(), audit_->session_id());
  profiler_->Install(*machine_);
}

void RedirectingClient::UseCluster(ProxyCluster* cluster, RedirectConfig config) {
  cluster_ = cluster;
  redirect_config_ = std::move(config);
}

void RedirectingClient::ChargeDelivery(SimTime send_at, uint64_t bytes, SpanId parent_span) {
  SimTime now = machine_->virtual_nanos();
  // FIFO serialization on the access link: queueing behind earlier messages,
  // then transmission, then propagation.
  SimTime offered = std::max(send_at, now);
  SimTime arrival = link_.Deliver(offered, bytes, TraceContext{tracer_, parent_span, offered});
  if (cluster_ != nullptr && cluster_->fault_injector() != nullptr) {
    SimTime extra = cluster_->fault_injector()->ExtraDelay(redirect_config_.link_name, send_at);
    if (extra > 0) {
      TraceEmit(tracer_, "fault.delay", parent_span, arrival, arrival + extra, "link");
      arrival += extra;
    }
  }
  machine_->AddNanos(arrival - now);
}

Result<Bytes> RedirectingClient::FetchClass(const std::string& class_name) {
  SimTime fetch_start = machine_->virtual_nanos();
  // Root span per fetch; everything the fetch does (direct probe, attempts,
  // backoff, proxy stages, delivery) nests under it on the virtual clock.
  SpanScope span(tracer_, [this] { return machine_->virtual_nanos(); }, "fetch " + class_name,
                 /*parent=*/0, "client");
  auto result = FetchClassTraced(class_name, span);
  span.Annotate("outcome", result.ok() ? "ok" : result.error().ToString());
  h_fetch_nanos_.Record(machine_->virtual_nanos() - fetch_start);
  return result;
}

Result<Bytes> RedirectingClient::FetchClassTraced(const std::string& class_name,
                                                  SpanScope& span) {
  if (direct_ != nullptr) {
    auto direct_bytes = direct_->FetchClass(class_name);
    if (direct_bytes.ok()) {
      ChargeDelivery(machine_->virtual_nanos(), direct_bytes->size(), span.id());
      SimTime check_start = machine_->virtual_nanos();
      machine_->AddNanos(direct_bytes->size() * kSignatureCheckNanosPerByte);
      Status valid = server_->proxy().signer().VerifyClassBytes(direct_bytes.value());
      TraceEmit(tracer_, "signature.check", span.id(), check_start, machine_->virtual_nanos(),
                "client");
      if (valid.ok()) {
        stats_.Counter("redirect.direct_hits").Add();
        span.Annotate("source", "direct");
        return direct_bytes;
      }
      stats_.Counter("redirect.rejected_signatures").Add();
      span.Annotate("signature", "rejected");
    } else {
      // A miss is not free: the client still pays the request out and the
      // not-found reply back before it can redirect.
      stats_.Counter("redirect.direct_misses").Add();
      span.Annotate("direct", "miss");
      SimTime now = machine_->virtual_nanos();
      machine_->AddNanos(link_.Deliver(now, kRequestMessageBytes,
                                       TraceContext{tracer_, span.id(), now}) -
                         now + link_.latency());
    }
  }

  if (cluster_ != nullptr) {
    return FetchViaCluster(class_name, span);
  }

  // Redirect to the centralized services (single-proxy deployment).
  stats_.Counter("redirect.redirects").Add();
  span.Annotate("source", "proxy");
  SimTime request_at = machine_->virtual_nanos();
  DVM_ASSIGN_OR_RETURN(ProxyResponse response,
                       server_->proxy().HandleRequest(class_name, "",
                                                      TraceContext{tracer_, span.id(),
                                                                   request_at}));
  ChargeDelivery(request_at + response.cpu_nanos, response.data.size(), span.id());
  return response.data;
}

Result<Bytes> RedirectingClient::FetchViaCluster(const std::string& class_name,
                                                 SpanScope& span) {
  const RedirectConfig& rc = redirect_config_;
  FaultInjector* faults = cluster_->fault_injector();
  ReplicationCoordinator* repl = cluster_->replication();
  std::vector<size_t> ranked = cluster_->RankReplicas(class_name);
  if (replica_avoid_until_.size() < cluster_->size()) {
    replica_avoid_until_.assign(cluster_->size(), 0);
  }

  SimTime backoff = rc.backoff_base;
  size_t rank = 0;
  uint64_t attempts_made = 0;
  uint64_t shed_attempts = 0;
  SimTime retry_after = 0;
  for (uint64_t attempt = 0; attempt < rc.retry_budget; attempt++) {
    if (attempt > 0) {
      stats_.Counter("redirect.retries").Add();
      SimTime backoff_start = machine_->virtual_nanos();
      // A shed rejection's retry-after hint overrides a shorter exponential
      // wait: the server's drain estimate beats blind doubling. The whole
      // wait is capped at the request deadline so a hint can never make an
      // attempt unschedulable — the avoid list (stamped when the shed
      // happened) is what steers the retry to a different replica.
      machine_->AddNanos(EffectiveBackoff(backoff, retry_after, rc.request_deadline));
      retry_after = 0;
      TraceEmit(tracer_, "backoff", span.id(), backoff_start, machine_->virtual_nanos(),
                "client");
      backoff = NextBackoff(backoff, rc.backoff_cap);
    }
    SimTime now = machine_->virtual_nanos();
    if (cluster_->UpReplicas(now) == 0) {
      break;  // nothing to retry against; the availability policy decides
    }

    // Skip replicas a recent timeout taught us to avoid; each skip is a
    // failover to the next rendezvous rank. If every candidate is tainted,
    // probe the current one anyway (its TTL may be stale).
    for (size_t probes = 0;
         probes < ranked.size() && replica_avoid_until_[ranked[rank]] > now; probes++) {
      rank = (rank + 1) % ranked.size();
      stats_.Counter("redirect.failovers").Add();
    }
    size_t replica = ranked[rank];
    attempts_made = attempt + 1;

    SpanId attempt_span = TraceBegin(tracer_, "attempt " + std::to_string(attempt), span.id(),
                                     now, "client");
    TraceAnnotate(tracer_, attempt_span, "replica", std::to_string(replica));

    if (!cluster_->ReplicaUp(replica, now)) {
      // Dead replica: the request goes unanswered until the deadline fires.
      stats_.Counter("redirect.timeouts").Add();
      machine_->AddNanos(rc.request_deadline);
      TraceEmit(tracer_, "deadline.wait", attempt_span, now, machine_->virtual_nanos(),
                "client");
      TraceAnnotate(tracer_, attempt_span, "outcome", "replica-down");
      TraceEnd(tracer_, attempt_span, machine_->virtual_nanos());
      replica_avoid_until_[replica] = now + rc.request_deadline + kReplicaAvoidTtl;
      rank = (rank + 1) % ranked.size();
      stats_.Counter("redirect.failovers").Add();
      continue;
    }

    // Request leg: a dropped message looks exactly like a dead replica until
    // the deadline fires, but is worth retrying on the same replica.
    if (faults != nullptr && faults->ShouldDrop(rc.link_name, now)) {
      stats_.Counter("redirect.timeouts").Add();
      stats_.Counter("redirect.dropped").Add();
      machine_->AddNanos(rc.request_deadline);
      TraceEmit(tracer_, "deadline.wait", attempt_span, now, machine_->virtual_nanos(),
                "client");
      TraceAnnotate(tracer_, attempt_span, "outcome", "request-dropped");
      TraceEnd(tracer_, attempt_span, machine_->virtual_nanos());
      continue;
    }

    // Replication fail-closed gate: a replica that cannot prove it is at the
    // cluster's committed policy epoch (behind after an outage, in doubt
    // after a lost 2PC decision, or mid-update fleet-wide) refuses fast —
    // a small control answer, not a deadline timeout — and the client
    // avoid-lists it and fails over.
    if (repl != nullptr && !repl->CanServe(replica, now)) {
      stats_.Counter("redirect.stale_epoch").Add();
      machine_->AddNanos(2 * link_.latency());
      TraceAnnotate(tracer_, attempt_span, "outcome", "stale-epoch");
      TraceEnd(tracer_, attempt_span, machine_->virtual_nanos());
      replica_avoid_until_[replica] = now + kReplicaAvoidTtl;
      rank = (rank + 1) % ranked.size();
      stats_.Counter("redirect.failovers").Add();
      continue;
    }

    // Admission control at the replica frontend: sheddable traffic may be
    // turned away with a retry-after hint; fail-closed traffic never is.
    AdmissionController* admission = cluster_->admission(replica);
    if (admission != nullptr) {
      AdmissionController::Decision decision = admission->Offer(rc.traffic_class, now);
      if (!decision.admitted) {
        shed_attempts++;
        stats_.Counter("redirect.shedded").Add();
        retry_after = decision.retry_after;
        // An overload rejection avoid-lists the replica for the hint horizon
        // (its own drain estimate) — shorter than a crash timeout's
        // kReplicaAvoidTtl — so the retry lands on a different replica's
        // controller while this one drains. See src/dvm/retry.h.
        replica_avoid_until_[replica] = now + decision.retry_after;
        TraceAnnotate(tracer_, attempt_span, "outcome", "shed");
        TraceAnnotate(tracer_, attempt_span, "retry_after_ns",
                      std::to_string(decision.retry_after));
        TraceEnd(tracer_, attempt_span, machine_->virtual_nanos());
        continue;
      }
    }

    auto response = cluster_->replica(replica).HandleRequest(
        class_name, "", TraceContext{tracer_, attempt_span, now});
    if (!response.ok()) {
      if (admission != nullptr) {
        admission->Complete(machine_->virtual_nanos());
      }
      TraceAnnotate(tracer_, attempt_span, "outcome", "hard-error");
      TraceEnd(tracer_, attempt_span, machine_->virtual_nanos());
      return response.error();  // hard error (e.g. origin 404) — retries won't help
    }

    // Response leg.
    SimTime respond_at = machine_->virtual_nanos() + response->cpu_nanos;
    if (admission != nullptr) {
      // The replica finished serving at respond_at whether or not the reply
      // survives the access link; its queue slot frees then.
      admission->Complete(respond_at);
    }
    if (faults != nullptr && faults->ShouldDrop(rc.link_name, respond_at)) {
      stats_.Counter("redirect.timeouts").Add();
      stats_.Counter("redirect.dropped").Add();
      machine_->AddNanos(response->cpu_nanos + rc.request_deadline);
      TraceEmit(tracer_, "deadline.wait", attempt_span, respond_at, machine_->virtual_nanos(),
                "client");
      TraceAnnotate(tracer_, attempt_span, "outcome", "response-dropped");
      TraceEnd(tracer_, attempt_span, machine_->virtual_nanos());
      continue;
    }
    ChargeDelivery(respond_at, response->data.size(), attempt_span);
    // Epoch check on the response itself: a rewrite that raced a policy
    // change is stamped with the epoch it actually ran under; if that is not
    // the cluster's committed epoch, the artifact may carry retired hooks —
    // discard it and fail over rather than run stale instrumentation.
    if (repl != nullptr && response->epoch != repl->committed_epoch()) {
      stats_.Counter("redirect.stale_epoch").Add();
      TraceAnnotate(tracer_, attempt_span, "outcome", "stale-epoch-response");
      TraceEnd(tracer_, attempt_span, machine_->virtual_nanos());
      replica_avoid_until_[replica] = now + kReplicaAvoidTtl;
      rank = (rank + 1) % ranked.size();
      stats_.Counter("redirect.failovers").Add();
      continue;
    }
    // Control plane: push a freshly rewritten artifact to the peer replicas
    // (server-side work on the mesh; the client does not wait on it).
    if (repl != nullptr && !response->cache_hit && !response->coalesced) {
      repl->ReplicateArtifact(replica, class_name, "", respond_at);
    }
    stats_.Counter("redirect.redirects").Add();
    TraceAnnotate(tracer_, attempt_span, "outcome", "ok");
    TraceEnd(tracer_, attempt_span, machine_->virtual_nanos());
    span.Annotate("replica", std::to_string(replica));
    span.Annotate("attempts", std::to_string(attempts_made));
    return std::move(response).value().data;
  }

  // Every replica down, or the retry budget ran dry. The strictest required
  // service decides — except when every attempt was shed by admission
  // control, which is overload, not outage: the typed rejection tells the
  // caller to come back later rather than to fail over.
  span.Annotate("attempts", std::to_string(attempts_made));
  if (attempts_made > 0 && shed_attempts == attempts_made) {
    stats_.Counter("redirect.overloaded").Add();
    span.Annotate("deadline_outcome", "overloaded");
    return Error{ErrorCode::kOverloaded,
                 "admission control shed every attempt for " + class_name +
                     "; retry after backoff"};
  }
  if (rc.availability.EffectiveMode(rc.required_services) == AvailabilityMode::kFailOpen) {
    if (direct_ != nullptr) {
      auto direct_bytes = direct_->FetchClass(class_name);
      if (direct_bytes.ok()) {
        // Degraded serve: the code runs without the (observability-only)
        // services it would normally have been instrumented with.
        stats_.Counter("redirect.fail_open_serves").Add();
        span.Annotate("deadline_outcome", "fail-open");
        ChargeDelivery(machine_->virtual_nanos(), direct_bytes->size(), span.id());
        return direct_bytes;
      }
    }
    span.Annotate("deadline_outcome", "unavailable");
    return Error{ErrorCode::kUnavailable,
                 "all proxy replicas unreachable and no direct source for " + class_name};
  }
  stats_.Counter("redirect.fail_closed_rejections").Add();
  span.Annotate("deadline_outcome", "fail-closed");
  return Error{ErrorCode::kUnavailable,
               "fail-closed: verification/security services unreachable for " + class_name};
}

Result<CallOutcome> RedirectingClient::RunApp(const std::string& main_class) {
  enforcement_->SetThreadSid(server_->policy().DomainForClass(main_class));
  auto outcome = machine_->RunMain(main_class);
  audit_->Flush();
  return outcome;
}

ProxyCluster::ProxyCluster(size_t replicas, ProxyConfig config, const ClassEnv* library_env,
                           ClassProvider* origin)
    : manual_down_(replicas, false) {
  assert(replicas > 0);
  for (size_t i = 0; i < replicas; i++) {
    proxies_.push_back(std::make_unique<DvmProxy>(config, library_env, origin));
  }
}

ProxyCluster::~ProxyCluster() = default;

void ProxyCluster::EnableReplication() { EnableReplication(ReplicationConfig{}); }

void ProxyCluster::EnableReplication(const ReplicationConfig& config) {
  replication_ = std::make_unique<ReplicationCoordinator>(this, config);
}

bool ProxyCluster::CommitPolicyUpdate(SimTime now) {
  if (replication_ != nullptr) {
    return replication_->CommitPolicyEpoch(now).committed;
  }
  // Pre-2PC cluster-wide entry point: invalidate every replica synchronously
  // so a policy update can never leave some replicas serving rewrites built
  // under the old hook set.
  for (auto& proxy : proxies_) {
    proxy->InvalidateCache();
  }
  return true;
}

std::vector<size_t> ProxyCluster::RankReplicas(const std::string& class_name) const {
  uint64_t key = Fnv1a(class_name);
  std::vector<std::pair<uint64_t, size_t>> weighted;
  weighted.reserve(proxies_.size());
  for (size_t i = 0; i < proxies_.size(); i++) {
    weighted.emplace_back(Mix64(key ^ (0x9e3779b97f4a7c15ULL * (i + 1))), i);
  }
  std::sort(weighted.begin(), weighted.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<size_t> ranked;
  ranked.reserve(weighted.size());
  for (const auto& [weight, index] : weighted) {
    ranked.push_back(index);
  }
  return ranked;
}

DvmProxy& ProxyCluster::Route(const std::string& class_name) {
  std::vector<size_t> ranked = RankReplicas(class_name);
  for (size_t index : ranked) {
    if (ReplicaUp(index, 0)) {
      return *proxies_[index];
    }
  }
  return *proxies_[ranked.front()];
}

void ProxyCluster::EnableAdmission(AdmissionConfig config) {
  admission_.clear();
  for (size_t i = 0; i < proxies_.size(); i++) {
    admission_.push_back(std::make_unique<AdmissionController>(config));
  }
}

void ProxyCluster::SetReplicaUp(size_t index, bool up) {
  assert(index < manual_down_.size());
  manual_down_[index] = !up;
}

bool ProxyCluster::ReplicaUp(size_t index, SimTime now) const {
  if (manual_down_[index]) {
    return false;
  }
  return faults_ == nullptr || faults_->ReplicaUp(index, now);
}

size_t ProxyCluster::UpReplicas(SimTime now) const {
  size_t up = 0;
  for (size_t i = 0; i < proxies_.size(); i++) {
    up += ReplicaUp(i, now) ? 1 : 0;
  }
  return up;
}

std::vector<ServiceClass> RequiredServicesFor(const DvmServerConfig& config) {
  std::vector<ServiceClass> services;
  if (config.enable_verification) {
    services.push_back(ServiceClass::kVerification);
  }
  if (config.enable_security) {
    services.push_back(ServiceClass::kSecurity);
  }
  if (config.enable_compiler) {
    services.push_back(ServiceClass::kCompilation);
  }
  if (config.repartition_profile.has_value()) {
    services.push_back(ServiceClass::kOptimization);
  }
  if (config.enable_audit) {
    services.push_back(ServiceClass::kMonitoring);
  }
  if (config.enable_profile) {
    services.push_back(ServiceClass::kProfiling);
  }
  return services;
}

uint64_t ProxyCluster::total_cpu_nanos() const {
  uint64_t total = 0;
  for (const auto& proxy : proxies_) {
    total += proxy->total_cpu_nanos();
  }
  return total;
}

}  // namespace dvm
