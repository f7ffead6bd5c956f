// The paper's section 2 deployment variant for environments where code can
// reach clients without passing through the proxy: "digital signatures
// attached by the static service components can ensure that the checks are
// inseparable from applications, and clients can be instructed to redirect
// incorrectly signed or unsigned code to the centralized services."
//
// A RedirectingClient first consults a direct source (peer cache, local disk,
// an untrusted mirror). Classes that carry a valid organization signature are
// accepted as-is; unsigned or tampered classes are redirected to the DVM
// proxy, which rewrites and signs them.
//
// The redirect path can target either the server's single proxy or a
// replicated ProxyCluster. In cluster mode the client fails over: requests
// carry a deadline, a down or lossy replica costs a timeout charged to the
// virtual clock, retries back off exponentially (capped) under a total retry
// budget, and the next rendezvous-ranked replica is tried. When every replica
// is down, the per-service AvailabilityPolicy decides between a typed
// kUnavailable rejection (fail closed — mandatory for verification/security)
// and a degraded unsigned direct fetch (fail open — monitoring/profiling
// only). See DESIGN.md "Failure semantics".
#ifndef SRC_DVM_REDIRECT_CLIENT_H_
#define SRC_DVM_REDIRECT_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dvm/admission.h"
#include "src/dvm/availability.h"
#include "src/dvm/dvm.h"
#include "src/simnet/fault.h"
#include "src/support/trace.h"

namespace dvm {

class ReplicationCoordinator;
struct ReplicationConfig;

// Failover tuning for a RedirectingClient in cluster mode.
struct RedirectConfig {
  // Total request attempts per fetch, across replicas and retries.
  uint64_t retry_budget = 6;
  // Capped exponential backoff between attempts.
  SimTime backoff_base = 10 * kMillisecond;
  SimTime backoff_cap = 400 * kMillisecond;
  // How long the client waits on an unanswered request before declaring a
  // timeout; charged to the virtual clock on every lost/ignored request.
  SimTime request_deadline = 250 * kMillisecond;
  // Services the cluster's pipeline provides for this deployment; the
  // strictest one decides the all-replicas-down behavior.
  std::vector<ServiceClass> required_services = {ServiceClass::kVerification,
                                                 ServiceClass::kSecurity};
  AvailabilityPolicy availability;
  // Key identifying this client's access link in the FaultPlan.
  std::string link_name = "client-proxy";
  // Service class this client's fetches represent for admission priority.
  // Verification (the default) is structurally unsheddable; an
  // observability-only client (monitoring/profiling) is shed first under
  // overload and its rejections come back ErrorCode::kOverloaded with a
  // retry-after the backoff path honors.
  ServiceClass traffic_class = ServiceClass::kVerification;
};

// A load-balanced bank of proxies sharing one origin — the paper's answer to
// the single-point-of-failure / bottleneck concern ("can easily be replicated
// to accommodate large numbers of hosts"). Requests are routed by rendezvous
// (highest-random-weight) hashing: each replica keeps a warm cache for the
// keys it wins, and when a replica dies only its own keys redistribute —
// evenly — over the survivors, instead of the whole keyspace remapping as a
// modulo scheme would.
class ProxyCluster {
 public:
  ProxyCluster(size_t replicas, ProxyConfig config, const ClassEnv* library_env,
               ClassProvider* origin);
  ~ProxyCluster();  // out of line: ReplicationCoordinator is forward-declared

  // Replica indices ordered by rendezvous weight for `class_name`, best first.
  std::vector<size_t> RankReplicas(const std::string& class_name) const;

  // The top-ranked live replica (top-ranked overall when everything is down,
  // so legacy single-shot callers keep stable routing).
  DvmProxy& Route(const std::string& class_name);
  Result<ProxyResponse> HandleRequest(const std::string& class_name,
                                      const std::string& platform = "",
                                      const TraceContext& trace = {}) {
    return Route(class_name).HandleRequest(class_name, platform, trace);
  }

  // Health state: a replica is up unless marked down administratively or its
  // FaultPlan outage schedule says otherwise at `now`.
  void SetReplicaUp(size_t index, bool up);
  bool ReplicaUp(size_t index, SimTime now) const;
  size_t UpReplicas(SimTime now) const;

  // Optional fault injector consulted for outage schedules (and by clients
  // for message drops/delays). Not owned; may be null.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* fault_injector() const { return faults_; }

  // Installs a bounded-queue/token-bucket admission controller in front of
  // every replica. Clients consult the target replica's controller before
  // each request; sheddable traffic gets turned away with a retry-after hint
  // while fail-closed (verification/security) traffic always gets through.
  void EnableAdmission(AdmissionConfig config);
  // Null when admission control is not enabled.
  AdmissionController* admission(size_t index) {
    return index < admission_.size() ? admission_[index].get() : nullptr;
  }

  // Installs the replicated control plane (2PC epoch/artifact push + commit
  // logs — see src/dvm/replication.h). Call after SetFaultInjector so the
  // control mesh sees the fault plan. Replaces any previous coordinator.
  void EnableReplication();
  void EnableReplication(const ReplicationConfig& config);
  // Null until EnableReplication.
  ReplicationCoordinator* replication() { return replication_.get(); }

  // Cluster-wide policy-change entry point: with replication enabled, runs a
  // 2PC epoch round and reports whether it committed (an abort leaves the
  // fleet failing closed until a retry); without it, synchronously
  // invalidates every replica so none keeps serving old-policy rewrites.
  bool CommitPolicyUpdate(SimTime now);

  size_t size() const { return proxies_.size(); }
  DvmProxy& replica(size_t index) { return *proxies_[index]; }
  uint64_t total_cpu_nanos() const;

 private:
  std::vector<std::unique_ptr<DvmProxy>> proxies_;
  std::vector<std::unique_ptr<AdmissionController>> admission_;
  std::vector<bool> manual_down_;
  FaultInjector* faults_ = nullptr;
  std::unique_ptr<ReplicationCoordinator> replication_;
};

class RedirectingClient : public ClassProvider {
 public:
  // `direct` may be null (everything redirects). The server's proxy must have
  // signing enabled, or every redirected class would bounce forever; the
  // constructor enforces this.
  RedirectingClient(DvmServer* server, ClassProvider* direct, MachineConfig machine_config,
                    SimLink link);

  // Switches the redirect path from the server's single proxy to `cluster`
  // (not owned, must outlive the client) with failover per `config`.
  void UseCluster(ProxyCluster* cluster, RedirectConfig config = {});

  Machine& machine() { return *machine_; }
  Result<CallOutcome> RunApp(const std::string& main_class);

  Result<Bytes> FetchClass(const std::string& class_name) override;

  uint64_t direct_hits() const { return stats_.Value("redirect.direct_hits"); }
  uint64_t direct_misses() const { return stats_.Value("redirect.direct_misses"); }
  uint64_t redirects() const { return stats_.Value("redirect.redirects"); }
  uint64_t rejected_signatures() const { return stats_.Value("redirect.rejected_signatures"); }
  uint64_t timeouts() const { return stats_.Value("redirect.timeouts"); }
  uint64_t retries() const { return stats_.Value("redirect.retries"); }
  uint64_t failovers() const { return stats_.Value("redirect.failovers"); }
  uint64_t fail_closed_rejections() const {
    return stats_.Value("redirect.fail_closed_rejections");
  }
  uint64_t fail_open_serves() const { return stats_.Value("redirect.fail_open_serves"); }
  // Attempts turned away by a replica's admission controller (never happens
  // for verification/security traffic) and fetches that exhausted the retry
  // budget with every attempt shed (typed ErrorCode::kOverloaded).
  uint64_t admission_sheds() const { return stats_.Value("redirect.shedded"); }
  uint64_t overloaded_rejections() const { return stats_.Value("redirect.overloaded"); }
  // Attempts refused because the replica could not prove it was at the
  // cluster's committed policy epoch (replication's fail-closed gate), plus
  // responses discarded for carrying a non-committed epoch stamp.
  uint64_t stale_epoch_rejections() const { return stats_.Value("redirect.stale_epoch"); }

  // The counters behind the accessors above, created on first use:
  // redirect.{direct_hits,direct_misses,redirects,rejected_signatures,
  // timeouts,retries,failovers,dropped,fail_closed_rejections,
  // fail_open_serves,shedded,overloaded,stale_epoch}; plus the
  // redirect.fetch_nanos histogram (end-to-end virtual fetch latency).
  const StatsRegistry& stats() const { return stats_; }

  // Observability: with a tracer installed, every FetchClass opens a root
  // "fetch <class>" span on the virtual clock, with child spans for each
  // cluster attempt (replica choice, backoff waits, deadline timeouts), the
  // proxy pipeline stages, and link delivery. Not owned; may be null.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  // FetchClass body, annotating the given root span.
  Result<Bytes> FetchClassTraced(const std::string& class_name, SpanScope& span);
  // The cluster redirect path: deadline/timeout accounting, capped
  // exponential backoff, rendezvous failover, availability policy.
  Result<Bytes> FetchViaCluster(const std::string& class_name, SpanScope& span);
  // Charges the virtual clock for a response serialized on the access link
  // (FIFO queueing + transmission + propagation + injected delay).
  void ChargeDelivery(SimTime send_at, uint64_t bytes, SpanId parent_span = 0);

  DvmServer* server_;
  ClassProvider* direct_;
  SimLink link_;
  ProxyCluster* cluster_ = nullptr;
  RedirectConfig redirect_config_;
  // Client-observed health: replicas to skip until the stamped virtual time,
  // learned from request timeouts.
  std::vector<SimTime> replica_avoid_until_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<EnforcementManager> enforcement_;
  std::unique_ptr<AuditSession> audit_;
  std::unique_ptr<ProfileCollector> profiler_;
  StatsRegistry stats_;
  Histogram& h_fetch_nanos_;
  Tracer* tracer_ = nullptr;
};

// Derives the service classes a server's pipeline provides from its config —
// the `required_services` a RedirectConfig should carry for that deployment.
std::vector<ServiceClass> RequiredServicesFor(const DvmServerConfig& config);

}  // namespace dvm

#endif  // SRC_DVM_REDIRECT_CLIENT_H_
