// The centralized security service (paper section 3.2), derived from DTOS:
// security identifiers (sids) attach to code, permissions attach to
// operations, and an organization-wide XML policy defines
//   (1) the code -> sid mapping,
//   (2) the access matrix sid x (operation, target) -> allow/deny,
//   (3) the hook points: which methods get an enforcement call injected.
//
// Static component: SecurityFilter rewrites matching methods (application OR
// system library — unlike the JDK, checks can be imposed anywhere, e.g. on
// File.read) to call dvm/rt/Enforcer.checkPermission(operation, target).
//
// Dynamic component: EnforcementManager, a small client-side cache over the
// central SecurityServer. First use downloads the relevant policy slice;
// subsequent checks are local lookups. The server pushes cache invalidations
// when the policy changes.
#ifndef SRC_SERVICES_SECURITY_SERVICE_H_
#define SRC_SERVICES_SECURITY_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/rewrite/filter.h"
#include "src/runtime/machine.h"
#include "src/support/result.h"

namespace dvm {

struct SecurityRule {
  std::string sid;             // subject security identifier ("*" = any)
  std::string operation;       // e.g. "file.open" ("*" = any)
  std::string target_pattern;  // glob over the target, e.g. "/tmp/*"
  bool allow = true;
};

struct SecurityHook {
  std::string class_pattern;   // glob over class names
  std::string method_pattern;  // glob over method names
  std::string operation;       // operation name passed to the enforcer
  // Index of the String parameter carrying the target (0-based, excluding the
  // receiver); -1 means use the static "<class>.<method>" as the target.
  int target_arg = -1;
};

struct SecurityPolicy {
  uint64_t version = 1;
  // Code -> sid assignment, first match wins. Classes with no match run with
  // the empty (trusted) sid.
  std::vector<std::pair<std::string, std::string>> code_domains;
  std::vector<SecurityRule> rules;   // first match wins; no match => deny
  std::vector<SecurityHook> hooks;

  std::string DomainForClass(const std::string& class_name) const;
  // Access matrix evaluation (Lampson): first matching rule decides.
  bool Evaluate(const std::string& sid, const std::string& operation,
                const std::string& target) const;
};

// Parses the XML policy language. Example:
//   <policy version="2">
//     <domain sid="applet" code="app/*"/>
//     <allow sid="applet" operation="file.open" target="/tmp/*"/>
//     <deny  sid="applet" operation="file.*"    target="*"/>
//     <hook class="java/io/File" method="open" operation="file.open" target-arg="0"/>
//   </policy>
Result<SecurityPolicy> ParseSecurityPolicy(const std::string& xml_text);

// Static component.
class SecurityFilter : public CodeFilter {
 public:
  explicit SecurityFilter(const SecurityPolicy* policy) : policy_(policy) {}
  std::string name() const override { return "security"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override;

 private:
  const SecurityPolicy* policy_;
};

class EnforcementManager;

// The central policy server: owns the master policy, answers slice downloads,
// and drives the cache-invalidation protocol.
class SecurityServer {
 public:
  explicit SecurityServer(SecurityPolicy policy) : policy_(std::move(policy)) {}

  const SecurityPolicy& policy() const { return policy_; }
  // Installs a new policy and invalidates every registered manager's cache.
  void UpdatePolicy(SecurityPolicy policy);

  void RegisterManager(EnforcementManager* manager) { managers_.insert(manager); }
  void UnregisterManager(EnforcementManager* manager) { managers_.erase(manager); }

  bool Evaluate(const std::string& sid, const std::string& operation,
                const std::string& target) const {
    return policy_.Evaluate(sid, operation, target);
  }

  uint64_t slice_downloads() const { return slice_downloads_; }
  void CountSliceDownload() { slice_downloads_++; }

 private:
  SecurityPolicy policy_;
  std::set<EnforcementManager*> managers_;
  uint64_t slice_downloads_ = 0;
};

// Client-side dynamic component.
class EnforcementManager {
 public:
  // `server` must outlive the manager. Registers for invalidations.
  explicit EnforcementManager(SecurityServer* server);
  ~EnforcementManager();

  // The sid the current thread runs under (assigned from the policy's code
  // mapping when the application is launched).
  void SetThreadSid(std::string sid) { thread_sid_ = std::move(sid); }
  const std::string& thread_sid() const { return thread_sid_; }

  // Core check: consults the decision cache, downloading the policy slice on
  // first use. Charges costs to `machine`. Returns allow/deny.
  bool CheckPermission(Machine& machine, const std::string& operation,
                       const std::string& target);

  // Server-driven invalidation (policy changed).
  void Invalidate();

  // Binds the dvm/rt/Enforcer natives to this manager.
  void Install(Machine& machine);

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  uint64_t invalidations() const { return invalidations_; }

 private:
  SecurityServer* server_;
  std::string thread_sid_;
  bool slice_downloaded_ = false;
  std::map<std::string, bool> decision_cache_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace dvm

#endif  // SRC_SERVICES_SECURITY_SERVICE_H_
