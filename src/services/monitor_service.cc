#include "src/services/monitor_service.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "src/rewrite/method_editor.h"
#include "src/runtime/syslib.h"

namespace dvm {
namespace {

// Cost of one instrumented event on the client: build the event record and
// hand it to the buffered session connection (flushes are batched).
constexpr uint64_t kAuditEventNanos = 300;
constexpr uint64_t kProfileEventNanos = 900;
constexpr size_t kAuditFlushBatch = 64;

// Instruments one method: `enter_exit` adds an exit call before every return
// and athrow as well. The insertions go to `edits`. `proof` is the pipeline's
// (FilterContext::proof, may be null).
Status Instrument(ClassFile& cls, MethodInfo& method, const char* rt_class, bool enter_exit,
                  const ClassProof* proof, std::vector<CodeEdit>* edits) {
  ConstantPool& pool = cls.pool();
  std::string method_tag = cls.name() + "." + method.name;
  uint16_t tag_ref = pool.AddString(method_tag);
  uint16_t enter_ref = pool.AddMethodRef(rt_class, "enter", "(Ljava/lang/String;)V");

  DVM_ASSIGN_OR_RETURN(MethodEditor editor, MethodEditor::Open(&cls, &method, proof));
  DVM_RETURN_IF_ERROR(editor.InsertBefore(0, {{Op::kLdc, tag_ref, 0},
                                              {Op::kInvokestatic, enter_ref, 0}}));
  if (enter_exit) {
    uint16_t exit_ref = pool.AddMethodRef(rt_class, "exit", "(Ljava/lang/String;)V");
    // Walk from the end so insertions do not disturb earlier indices.
    for (size_t i = editor.code().size(); i > 0; i--) {
      size_t index = i - 1;
      Op op = editor.code()[index].op;
      if (IsReturn(op) || op == Op::kAthrow) {
        DVM_RETURN_IF_ERROR(editor.InsertBefore(
            index, {{Op::kLdc, tag_ref, 0}, {Op::kInvokestatic, exit_ref, 0}}));
      }
    }
  }
  return editor.Commit(edits);
}

}  // namespace

uint64_t AdministrationConsole::OpenSession(const std::string& user,
                                            const std::string& client_host,
                                            const std::string& hardware_config,
                                            const std::string& vm_version) {
  MonitoredSession session;
  session.session_id = next_session_id_++;
  session.user = user;
  session.client_host = client_host;
  session.hardware_config = hardware_config;
  session.vm_version = vm_version;
  sessions_.push_back(session);

  AuditEvent event;
  event.session_id = session.session_id;
  event.kind = "session-start";
  event.detail = user + "@" + client_host;
  Append(event);
  return session.session_id;
}

void AdministrationConsole::Append(const AuditEvent& event) {
  events_received_++;
  if (log_.Push(event)) {
    events_dropped_++;
  }
}

void AdministrationConsole::RecordCallEdge(const std::string& caller,
                                           const std::string& callee) {
  call_graph_[{caller, callee}]++;
}

void AdministrationConsole::RecordFirstUse(uint64_t session_id, const std::string& method_id) {
  first_use_[session_id].push_back(method_id);
}

void AdministrationConsole::RecordCodeVersion(const std::string& class_name,
                                              const std::string& digest_hex) {
  auto it = code_versions_.find(class_name);
  if (it != code_versions_.end() && it->second != digest_hex) {
    code_version_changes_++;
    AuditEvent event;
    event.kind = "code-version-change";
    event.detail = class_name + " " + it->second.substr(0, 8) + " -> " +
                   digest_hex.substr(0, 8);
    Append(event);
  }
  code_versions_[class_name] = digest_hex;
}

void AdministrationConsole::IngestTrace(const Tracer& tracer) {
  for (Span& span : tracer.Finished()) {
    RecordSpan(std::move(span));
  }
}

void AdministrationConsole::RecordSpan(Span span) { span_ring_.Push(std::move(span)); }

void AdministrationConsole::IngestReplicaSnapshot(size_t replica, uint64_t taken_at,
                                                  uint64_t received_at, StatsSnapshot stats) {
  snapshots_ingested_++;
  ReplicaSnapshot& slot = replica_snapshots_[replica];
  if (slot.stats.counters.empty() || taken_at >= slot.taken_at) {
    slot.replica = replica;
    slot.taken_at = taken_at;
    slot.received_at = received_at;
    slot.stats = std::move(stats);
  }
}

StatsSnapshot AdministrationConsole::FleetMerged() const {
  StatsSnapshot merged;
  for (const auto& [replica, snap] : replica_snapshots_) {
    merged.Merge(snap.stats);
  }
  return merged;
}

std::string AdministrationConsole::FleetPrometheus() const {
  return PrometheusText(FleetMerged(), {{"scope", "fleet"}});
}

std::string AdministrationConsole::DivergenceView() const {
  // Collect the union of counter names, then print each replica's value with
  // the min/max spread. Iteration is name-sorted, so output is deterministic.
  std::map<std::string, std::map<size_t, uint64_t>> by_name;
  for (const auto& [replica, snap] : replica_snapshots_) {
    for (const auto& [name, value] : snap.stats.counters) {
      by_name[name][replica] = value;
    }
  }
  std::string out;
  char buf[64];
  for (const auto& [name, values] : by_name) {
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    std::string row;
    for (const auto& [replica, snap] : replica_snapshots_) {
      auto it = values.find(replica);
      uint64_t v = it == values.end() ? 0 : it->second;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      std::snprintf(buf, sizeof(buf), " r%zu=%llu", replica,
                    static_cast<unsigned long long>(v));
      row += buf;
    }
    std::snprintf(buf, sizeof(buf), " spread=%llu\n",
                  static_cast<unsigned long long>(hi - lo));
    out += name + row + buf;
  }
  return out;
}

const std::vector<std::string>& AdministrationConsole::FirstUseOrder(
    uint64_t session_id) const {
  static const std::vector<std::string> kEmpty;
  auto it = first_use_.find(session_id);
  return it == first_use_.end() ? kEmpty : it->second;
}

Result<FilterOutcome> AuditFilter::Apply(ClassFile& cls, const FilterContext& ctx) const {
  FilterOutcome outcome;
  if (IsSystemClass(cls.name())) {
    return outcome;
  }
  for (auto& method : cls.methods) {
    if (!method.code.has_value() || method.IsClassInitializer()) {
      continue;
    }
    // Entry events suffice for resource accounting and usage analysis; exits
    // would double the event rate for no additional audit value.
    DVM_RETURN_IF_ERROR(Instrument(cls, method, kRtAuditorClass, /*enter_exit=*/false,
                                   ctx.proof, &outcome.code_edits));
    outcome.checks_performed++;
    outcome.modified = true;
  }
  return outcome;
}

Result<FilterOutcome> ProfileFilter::Apply(ClassFile& cls, const FilterContext& ctx) const {
  FilterOutcome outcome;
  if (IsSystemClass(cls.name())) {
    return outcome;
  }
  for (auto& method : cls.methods) {
    if (!method.code.has_value() || method.IsClassInitializer()) {
      continue;
    }
    DVM_RETURN_IF_ERROR(Instrument(cls, method, kRtProfilerClass, /*enter_exit=*/true,
                                   ctx.proof, &outcome.code_edits));
    outcome.checks_performed++;
    outcome.modified = true;
  }
  return outcome;
}

AuditSession::AuditSession(AdministrationConsole* console, std::string user,
                           std::string client_host)
    : console_(console) {
  session_id_ = console_->OpenSession(user, client_host, "x86/200MHz/64MB", "dvm-1.0");
}

void AuditSession::Emit(Machine& machine, uint64_t* audit_nanos, const char* kind,
                        const std::string& detail) {
  machine.counters().audit_events++;
  machine.AddNanos(kAuditEventNanos);
  *audit_nanos += kAuditEventNanos;
  if (buffered_ == buffer_.size()) {
    buffer_.emplace_back();
  }
  AuditEvent& event = buffer_[buffered_++];
  event.session_id = session_id_;
  event.sequence = sequence_++;
  event.kind = kind;
  event.detail = detail;
  if (buffered_ >= kAuditFlushBatch) {
    Flush();
  }
}

void AuditSession::Flush() {
  for (size_t i = 0; i < buffered_; i++) {
    console_->Append(buffer_[i]);
    events_sent_++;
  }
  buffered_ = 0;
}

void AuditSession::Install(Machine& machine) {
  uint64_t* audit_nanos = machine.ServiceNanosSlot("audit");
  for (const char* kind : {"enter", "exit"}) {
    machine.natives().Register(
        kRtAuditorClass, kind, "(Ljava/lang/String;)V",
        [this, audit_nanos, kind](Machine& m, std::vector<Value>& args) -> Result<Value> {
          const std::string* detail = m.StringAt(args[0].AsRef());
          if (detail == nullptr) {
            return Error{ErrorCode::kRuntimeError, "not a string object"};
          }
          Emit(m, audit_nanos, kind, *detail);
          return Value::Null();
        });
  }
}

void ProfileCollector::Install(Machine& machine) {
  machine.natives().Register(
      kRtProfilerClass, "enter", "(Ljava/lang/String;)V",
      [this](Machine& m, std::vector<Value>& args) -> Result<Value> {
        DVM_ASSIGN_OR_RETURN(std::string method_id, m.StringValue(args[0].AsRef()));
        m.counters().profile_events++;
        m.AddNanos(kProfileEventNanos);
        m.AddServiceNanos("profile", kProfileEventNanos);
        if (!seen_.count(method_id)) {
          seen_[method_id] = true;
          first_use_order_.push_back(method_id);
          console_->RecordFirstUse(session_id_, method_id);
        }
        if (!active_stack_.empty()) {
          console_->RecordCallEdge(active_stack_.back(), method_id);
        }
        active_stack_.push_back(method_id);
        return Value::Null();
      });
  machine.natives().Register(
      kRtProfilerClass, "exit", "(Ljava/lang/String;)V",
      [this](Machine& m, std::vector<Value>& args) -> Result<Value> {
        (void)args;
        m.AddNanos(kProfileEventNanos);
        if (!active_stack_.empty()) {
          active_stack_.pop_back();
        }
        return Value::Null();
      });
}

}  // namespace dvm
