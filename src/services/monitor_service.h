// Remote monitoring and profiling services (paper section 3.3).
//
// AuditFilter / ProfileFilter are static components that instrument method
// entries (and exits, for auditing) with calls into the dvm/rt/Auditor and
// dvm/rt/Profiler dynamic components. The dynamic components forward events to
// the central AdministrationConsole over a handshake-established session, so
// audit logs live on a host that untrusted code cannot tamper with.
//
// The profiler additionally builds the dynamic call graph and the first-use
// method order that drives the repartitioning optimizer (section 5).
#ifndef SRC_SERVICES_MONITOR_SERVICE_H_
#define SRC_SERVICES_MONITOR_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/rewrite/filter.h"
#include "src/runtime/machine.h"
#include "src/support/ring.h"
#include "src/support/stats.h"
#include "src/support/trace.h"

namespace dvm {

// --- central console ---------------------------------------------------------

struct AuditEvent {
  uint64_t session_id = 0;
  uint64_t sequence = 0;
  std::string kind;       // "enter", "exit", "session-start", ...
  std::string detail;     // usually "class.method"
};

struct MonitoredSession {
  uint64_t session_id = 0;
  std::string user;
  std::string client_host;
  std::string hardware_config;
  std::string vm_version;
};

// One replica's periodic StatsRegistry snapshot as received by the console.
struct ReplicaSnapshot {
  size_t replica = 0;
  uint64_t taken_at = 0;  // virtual nanos at the replica when snapped
  uint64_t received_at = 0;  // virtual nanos at the console on delivery
  StatsSnapshot stats;
};

// The administration console: session handshakes, bounded audit log and span
// ring, aggregate call graph, code-usage statistics, and the fleet metrics
// sink (per-replica snapshots, exact fleet merge, divergence view).
class AdministrationConsole {
 public:
  // The log and span stores are rings, not append-only vectors: a console fed
  // by 10^6 clients must hold the most recent window under a fixed RSS
  // ceiling, counting what it sheds. Defaults keep every existing
  // single-process workload lossless.
  static constexpr size_t kDefaultLogCapacity = 1 << 16;
  static constexpr size_t kDefaultSpanCapacity = 1 << 16;

  explicit AdministrationConsole(size_t log_capacity = kDefaultLogCapacity,
                                 size_t span_capacity = kDefaultSpanCapacity)
      : log_(log_capacity), span_ring_(span_capacity) {}

  // Handshake: establishes credentials and assigns a session identifier.
  uint64_t OpenSession(const std::string& user, const std::string& client_host,
                       const std::string& hardware_config, const std::string& vm_version);

  void Append(const AuditEvent& event);
  // Call-graph edge (caller -> callee) reported by the profiling service.
  void RecordCallEdge(const std::string& caller, const std::string& callee);
  void RecordFirstUse(uint64_t session_id, const std::string& method_id);
  // Code-version inventory (section 3.3: the console "monitors ... code
  // versions"): digest of each class version the proxy served, plus a flag
  // when a class changed digest mid-flight (stale mirrors, upgrades).
  void RecordCodeVersion(const std::string& class_name, const std::string& digest_hex);

  // Trace sink (§3.3's central observation point, extended to spans): pulls
  // every completed span out of `tracer` and files it next to the audit log,
  // so the organization's console holds the full virtual-time execution trace
  // of its clients. Exported via ChromeTraceJson(trace_spans()).
  void IngestTrace(const Tracer& tracer);
  void RecordSpan(Span span);
  // Ring contents, oldest first (materialized copy — the backing store is a
  // bounded ring, not a stable vector).
  std::vector<Span> trace_spans() const { return span_ring_.Snapshot(); }
  // Totals ever ingested / shed, not the current ring occupancy.
  uint64_t spans_ingested() const { return span_ring_.ingested(); }
  uint64_t spans_dropped() const { return span_ring_.dropped(); }

  std::vector<AuditEvent> log() const { return log_.Snapshot(); }
  const std::vector<MonitoredSession>& sessions() const { return sessions_; }
  const std::map<std::pair<std::string, std::string>, uint64_t>& call_graph() const {
    return call_graph_;
  }
  // First-use order of methods for a session (repartitioning input).
  const std::vector<std::string>& FirstUseOrder(uint64_t session_id) const;
  const std::map<std::string, std::string>& code_versions() const { return code_versions_; }
  uint64_t code_version_changes() const { return code_version_changes_; }

  uint64_t events_received() const { return events_received_; }
  uint64_t events_dropped() const { return events_dropped_; }

  // --- fleet metrics sink ------------------------------------------------------
  // Latest snapshot per replica (a newer taken_at replaces the previous one).
  void IngestReplicaSnapshot(size_t replica, uint64_t taken_at, uint64_t received_at,
                             StatsSnapshot stats);
  const std::map<size_t, ReplicaSnapshot>& replica_snapshots() const {
    return replica_snapshots_;
  }
  uint64_t snapshots_ingested() const { return snapshots_ingested_; }
  // Exact union of every replica's latest snapshot (counters add, histogram
  // buckets add) — what a fleet-level scrape sees.
  StatsSnapshot FleetMerged() const;
  // Prometheus exposition of the fleet merge.
  std::string FleetPrometheus() const;
  // Per-counter per-replica values with min/max spread: the view that makes a
  // diverging replica (stale epoch, shedding alone, cold caches) stand out.
  std::string DivergenceView() const;

 private:
  uint64_t next_session_id_ = 1;
  std::vector<MonitoredSession> sessions_;
  BoundedRing<AuditEvent> log_;
  uint64_t events_received_ = 0;
  uint64_t events_dropped_ = 0;
  std::map<std::pair<std::string, std::string>, uint64_t> call_graph_;
  std::map<uint64_t, std::vector<std::string>> first_use_;
  std::map<std::string, std::string> code_versions_;
  uint64_t code_version_changes_ = 0;
  BoundedSpanRing span_ring_;
  std::map<size_t, ReplicaSnapshot> replica_snapshots_;
  uint64_t snapshots_ingested_ = 0;
};

// --- static components ---------------------------------------------------------

// Both instrumenters count the methods they instrumented in
// checks_performed.
class AuditFilter : public CodeFilter {
 public:
  std::string name() const override { return "auditor"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override;
};

class ProfileFilter : public CodeFilter {
 public:
  std::string name() const override { return "profiler"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override;
};

// --- dynamic components ----------------------------------------------------------

// Client-side audit session: handshakes with the console, then forwards enter/
// exit events. Events are buffered and flushed in batches to model the
// asynchronous connection.
class AuditSession {
 public:
  AuditSession(AdministrationConsole* console, std::string user, std::string client_host);

  void Install(Machine& machine);
  void Flush();

  uint64_t session_id() const { return session_id_; }
  uint64_t events_sent() const { return events_sent_; }

 private:
  // Charges the event to `audit_nanos` (the machine's "audit" service slot)
  // and buffers it.
  void Emit(Machine& machine, uint64_t* audit_nanos, const char* kind,
            const std::string& detail);

  AdministrationConsole* console_;
  uint64_t session_id_;
  uint64_t sequence_ = 0;
  uint64_t events_sent_ = 0;
  // Events [0, buffered_) await the next Flush. The slots are retained across
  // flushes, so a steady event stream assigns into existing strings.
  std::vector<AuditEvent> buffer_;
  size_t buffered_ = 0;
};

// Client-side profile collector: first-use order and call-graph edges, pushed
// to the console and queryable locally (used to derive transfer profiles).
class ProfileCollector {
 public:
  ProfileCollector(AdministrationConsole* console, uint64_t session_id)
      : console_(console), session_id_(session_id) {}

  void Install(Machine& machine);

  const std::vector<std::string>& first_use_order() const { return first_use_order_; }

 private:
  AdministrationConsole* console_;
  uint64_t session_id_;
  std::map<std::string, bool> seen_;
  std::vector<std::string> first_use_order_;
  std::vector<std::string> active_stack_;
};

}  // namespace dvm

#endif  // SRC_SERVICES_MONITOR_SERVICE_H_
