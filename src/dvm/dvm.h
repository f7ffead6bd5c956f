// Top-level facade: a DvmServer wires the proxy, the static service pipeline,
// the security server and the administration console together; DvmClient and
// MonolithicClient are the two client configurations every experiment
// compares (paper section 4: "identical software and hardware platforms, but
// under different service architectures").
#ifndef SRC_DVM_DVM_H_
#define SRC_DVM_DVM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dvm/availability.h"
#include "src/optimizer/repartition.h"
#include "src/proxy/proxy.h"
#include "src/runtime/machine.h"
#include "src/services/monitor_service.h"
#include "src/services/security_service.h"
#include "src/simnet/sim.h"

namespace dvm {

class ProxyCluster;

struct DvmServerConfig {
  bool enable_verification = true;
  bool enable_security = true;
  bool enable_audit = true;
  bool enable_profile = false;
  bool enable_compiler = false;
  // Reflection service (section 4.3): attach self-describing member tables so
  // the client's dynamic verifier avoids slow reflective lookups.
  bool enable_reflection = true;
  // When set, the repartitioning optimizer runs with this profile (section 5).
  std::optional<TransferProfile> repartition_profile;

  SecurityPolicy policy;
  ProxyConfig proxy;
  // Organization-wide outage behavior per service class (fail-closed vs
  // fail-open). Verification and security are structurally pinned closed;
  // monitoring/profiling-only deployments may opt open. Redirecting clients
  // copy this into their RedirectConfig.
  AvailabilityPolicy availability;
  std::string target_platform = "x86";
};

// The organization-wide server side: proxy + static services + policy server +
// administration console.
class DvmServer {
 public:
  // `origin` serves untransformed application classes (the web servers the
  // clients would have fetched from directly). Must outlive the server.
  DvmServer(DvmServerConfig config, ClassProvider* origin);

  DvmProxy& proxy() { return *proxy_; }
  SecurityServer& security_server() { return security_server_; }
  AdministrationConsole& console() { return console_; }
  const SecurityPolicy& policy() const { return security_server_.policy(); }
  const DvmServerConfig& config() const { return config_; }

  // Registers the replicated proxy cluster this server fronts (not owned,
  // may be null to detach). Once attached, UpdateSecurityPolicy applies
  // cluster-wide instead of touching only the server's own proxy.
  void AttachCluster(ProxyCluster* cluster) { cluster_ = cluster; }
  ProxyCluster* cluster() const { return cluster_; }

  // Single point of control: installing a new policy invalidates every
  // client's enforcement cache and the proxy's rewrite cache (including the
  // filter-synthesized class map — both embed the old policy's hooks). With
  // an attached cluster the update is cluster-wide: a 2PC epoch round when
  // replication is enabled (false = the round aborted and the fleet fails
  // closed until a retry commits), otherwise a synchronous invalidation of
  // every replica. `now` is the virtual time the update is issued at.
  bool UpdateSecurityPolicy(SecurityPolicy policy, SimTime now = 0);

 private:
  DvmServerConfig config_;
  std::vector<ClassFile> library_classes_;
  MapClassEnv library_env_;
  SecurityServer security_server_;
  AdministrationConsole console_;
  std::unique_ptr<DvmProxy> proxy_;
  ProxyCluster* cluster_ = nullptr;
};

// A client VM attached to a DvmServer through a simulated link. Fetches
// classes through the proxy (charging transfer + proxy time to the machine's
// virtual clock) and installs the dynamic service components.
class DvmClient : public ClassProvider {
 public:
  // `platform` is the client's native format, reported to the server during
  // the monitoring handshake (section 3.4) and attached to every class request
  // so the compilation service can translate per architecture.
  DvmClient(DvmServer* server, MachineConfig machine_config, SimLink link,
            std::string user = "user", std::string host = "client",
            std::string platform = "x86");

  Machine& machine() { return *machine_; }
  EnforcementManager& enforcement() { return *enforcement_; }
  AuditSession& audit() { return *audit_; }
  ProfileCollector* profiler() { return profiler_.get(); }

  // Launches static void main()V of `main_class`, assigning the thread's
  // security identifier from the organization policy.
  Result<CallOutcome> RunApp(const std::string& main_class);

  // ClassProvider: fetch via the proxy, charging virtual time.
  Result<Bytes> FetchClass(const std::string& class_name) override;

  uint64_t transfer_nanos() const { return transfer_nanos_; }
  uint64_t classes_fetched() const { return classes_fetched_; }
  uint64_t bytes_fetched() const { return bytes_fetched_; }
  const std::string& platform() const { return platform_; }

 private:
  DvmServer* server_;
  SimLink link_;
  std::string platform_;
  uint64_t transfer_nanos_ = 0;
  uint64_t classes_fetched_ = 0;
  uint64_t bytes_fetched_ = 0;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<EnforcementManager> enforcement_;
  std::unique_ptr<AuditSession> audit_;
  std::unique_ptr<ProfileCollector> profiler_;
};

// The baseline: a monolithic VM whose services all run locally. Classes flow
// through a null proxy (no filters) so network conditions are identical.
class MonolithicClient : public ClassProvider {
 public:
  // `origin` as in DvmServer. Grants in `policy` are translated onto the
  // stack-introspection security manager.
  MonolithicClient(ClassProvider* origin, const SecurityPolicy& policy,
                   MachineConfig machine_config, SimLink link);

  Machine& machine() { return *machine_; }
  DvmProxy& null_proxy() { return *null_proxy_; }

  Result<CallOutcome> RunApp(const std::string& main_class);
  Result<Bytes> FetchClass(const std::string& class_name) override;

  uint64_t transfer_nanos() const { return transfer_nanos_; }

 private:
  std::vector<ClassFile> library_classes_;
  MapClassEnv library_env_;
  std::unique_ptr<DvmProxy> null_proxy_;
  SecurityPolicy policy_;
  SimLink link_;
  uint64_t transfer_nanos_ = 0;
  std::unique_ptr<Machine> machine_;
};

// Shared helper: installs a MachineConfig appropriate for each architecture.
MachineConfig MonolithicMachineConfig();
MachineConfig DvmMachineConfig();

}  // namespace dvm

#endif  // SRC_DVM_DVM_H_
