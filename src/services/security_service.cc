#include "src/services/security_service.h"

#include "src/bytecode/descriptor.h"
#include "src/policy/xml.h"
#include "src/rewrite/method_editor.h"
#include "src/runtime/syslib.h"
#include "src/support/strings.h"

namespace dvm {
namespace {

// Figure 9 calibration (nanoseconds). The DVM's common-case check is a cached
// lookup in the enforcement manager; the first check downloads a policy slice
// from the security server (4.1-6.4 ms in the paper).
constexpr uint64_t kSliceDownloadNanos = 5'200'000;
constexpr uint64_t kCachedCheckNanos = 7'000;
constexpr uint64_t kCacheMissEvalNanos = 11'000;

}  // namespace

std::string SecurityPolicy::DomainForClass(const std::string& class_name) const {
  for (const auto& [pattern, sid] : code_domains) {
    if (GlobMatch(pattern, class_name)) {
      return sid;
    }
  }
  return "";
}

bool SecurityPolicy::Evaluate(const std::string& sid, const std::string& operation,
                              const std::string& target) const {
  if (sid.empty()) {
    return true;  // trusted system code
  }
  for (const auto& rule : rules) {
    bool sid_match = rule.sid == "*" || rule.sid == sid;
    bool op_match = GlobMatch(rule.operation, operation);
    bool target_match = GlobMatch(rule.target_pattern, target);
    if (sid_match && op_match && target_match) {
      return rule.allow;
    }
  }
  return false;  // default deny
}

Result<SecurityPolicy> ParseSecurityPolicy(const std::string& xml_text) {
  DVM_ASSIGN_OR_RETURN(XmlNode root, ParseXml(xml_text));
  if (root.tag != "policy") {
    return Error{ErrorCode::kParseError, "security policy root must be <policy>"};
  }
  SecurityPolicy policy;
  if (root.HasAttr("version")) {
    policy.version = static_cast<uint64_t>(std::stoll(root.Attr("version")));
  }
  for (const auto& child : root.children) {
    if (child.tag == "domain") {
      if (!child.HasAttr("sid") || !child.HasAttr("code")) {
        return Error{ErrorCode::kParseError, "<domain> requires sid and code attributes"};
      }
      policy.code_domains.emplace_back(child.Attr("code"), child.Attr("sid"));
    } else if (child.tag == "allow" || child.tag == "deny") {
      SecurityRule rule;
      rule.sid = child.Attr("sid", "*");
      rule.operation = child.Attr("operation", "*");
      rule.target_pattern = child.Attr("target", "*");
      rule.allow = child.tag == "allow";
      policy.rules.push_back(std::move(rule));
    } else if (child.tag == "hook") {
      SecurityHook hook;
      hook.class_pattern = child.Attr("class", "*");
      hook.method_pattern = child.Attr("method", "*");
      hook.operation = child.Attr("operation");
      if (hook.operation.empty()) {
        return Error{ErrorCode::kParseError, "<hook> requires an operation attribute"};
      }
      std::string target_arg = child.Attr("target-arg", "-1");
      hook.target_arg = static_cast<int>(std::stol(target_arg));
      policy.hooks.push_back(std::move(hook));
    } else {
      return Error{ErrorCode::kParseError, "unknown policy element <" + child.tag + ">"};
    }
  }
  return policy;
}

Result<FilterOutcome> SecurityFilter::Apply(ClassFile& cls, const FilterContext& ctx) const {
  FilterOutcome outcome;
  const std::string class_name = cls.name();
  // Never instrument the enforcement machinery itself.
  if (StartsWith(class_name, "dvm/rt/")) {
    return outcome;
  }

  // Index-based iteration: wrapping a native method appends a wrapper, which
  // must be neither visited (it would match its own hook again) nor allowed to
  // invalidate references mid-scan.
  const size_t original_method_count = cls.methods.size();
  for (size_t mi = 0; mi < original_method_count; mi++) {
    for (const auto& hook : policy_->hooks) {
      MethodInfo& method = cls.methods[mi];
      if (!method.code.has_value() && !method.IsNative()) {
        break;
      }
      if (!GlobMatch(hook.class_pattern, class_name) ||
          !GlobMatch(hook.method_pattern, method.name)) {
        continue;
      }
      outcome.checks_performed++;

      ConstantPool& pool = cls.pool();
      std::vector<Instr> preamble;
      preamble.push_back({Op::kLdc, pool.AddString(hook.operation), 0});
      if (hook.target_arg >= 0) {
        // Pass the (String) argument as the runtime target. The local slot is
        // the parameter index plus one for the receiver of instance methods.
        auto sig = ParseMethodDescriptor(method.descriptor);
        if (!sig.ok() || hook.target_arg >= sig->ArgSlots() ||
            sig->params[static_cast<size_t>(hook.target_arg)] != "Ljava/lang/String;") {
          return Error{ErrorCode::kInvalidArgument,
                       "hook target-arg does not name a String parameter of " +
                           class_name + "." + method.Id()};
        }
        int slot = hook.target_arg + (method.IsStatic() ? 0 : 1);
        preamble.push_back({Op::kAload, slot, 0});
      } else {
        preamble.push_back(
            {Op::kLdc, pool.AddString(class_name + "." + method.name), 0});
      }
      preamble.push_back({Op::kInvokestatic,
                          pool.AddMethodRef(kRtEnforcerClass, "checkPermission",
                                            "(Ljava/lang/String;Ljava/lang/String;)V"),
                          0});

      // Native methods cannot carry injected bytecode; wrap them instead:
      // rename the native and synthesize a checked forwarding body under the
      // original name.
      if (method.IsNative()) {
        std::string inner_name = "__dvmSecured$" + method.name;
        DVM_ASSIGN_OR_RETURN(MethodSignature sig, ParseMethodDescriptor(method.descriptor));
        std::vector<Instr> body = preamble;
        uint16_t max_locals = AppendForwardingCall(
            sig, method.IsStatic(), method.IsStatic() ? Op::kInvokestatic : Op::kInvokevirtual,
            pool.AddMethodRef(class_name, inner_name, method.descriptor), &body);
        DVM_ASSIGN_OR_RETURN(
            MethodInfo wrapper,
            AssembleMethod(static_cast<uint16_t>(method.access_flags & ~AccessFlags::kNative),
                           method.name, method.descriptor, body, max_locals, pool));
        method.name = inner_name;  // original slot becomes the renamed native
        cls.methods.push_back(std::move(wrapper));
        outcome.code_edits.push_back({static_cast<uint32_t>(cls.methods.size() - 1), 0,
                                      static_cast<uint32_t>(body.size())});
        outcome.modified = true;
        break;  // method reference invalidated by push_back; stop hook scan
      }

      DVM_ASSIGN_OR_RETURN(MethodEditor editor, MethodEditor::Open(&cls, &method, ctx.proof));
      DVM_RETURN_IF_ERROR(editor.InsertBefore(0, preamble));
      DVM_RETURN_IF_ERROR(editor.Commit(&outcome.code_edits));
      outcome.modified = true;
    }
  }
  if (outcome.modified) {
    cls.SetAttribute(kAttrServiceStamp, Bytes{'s', 'e', 'c', 'u'});
  }
  return outcome;
}

void SecurityServer::UpdatePolicy(SecurityPolicy policy) {
  policy_ = std::move(policy);
  for (EnforcementManager* manager : managers_) {
    manager->Invalidate();
  }
}

EnforcementManager::EnforcementManager(SecurityServer* server) : server_(server) {
  server_->RegisterManager(this);
}

EnforcementManager::~EnforcementManager() { server_->UnregisterManager(this); }

void EnforcementManager::Invalidate() {
  decision_cache_.clear();
  slice_downloaded_ = false;
  invalidations_++;
}

bool EnforcementManager::CheckPermission(Machine& machine, const std::string& operation,
                                         const std::string& target) {
  machine.counters().security_checks++;
  if (!slice_downloaded_) {
    // First check since (re)start or invalidation: fetch the policy slice for
    // this sid from the central server.
    machine.AddNanos(kSliceDownloadNanos);
    machine.AddServiceNanos("security", kSliceDownloadNanos);
    server_->CountSliceDownload();
    slice_downloaded_ = true;
  }
  std::string key = thread_sid_ + "\x1f" + operation + "\x1f" + target;
  auto it = decision_cache_.find(key);
  if (it != decision_cache_.end()) {
    cache_hits_++;
    machine.AddNanos(kCachedCheckNanos);
    machine.AddServiceNanos("security", kCachedCheckNanos);
    return it->second;
  }
  cache_misses_++;
  machine.AddNanos(kCacheMissEvalNanos);
  machine.AddServiceNanos("security", kCacheMissEvalNanos);
  bool allowed = server_->Evaluate(thread_sid_, operation, target);
  decision_cache_[key] = allowed;
  return allowed;
}

void EnforcementManager::Install(Machine& machine) {
  machine.natives().Register(
      kRtEnforcerClass, "checkPermission", "(Ljava/lang/String;Ljava/lang/String;)V",
      [this](Machine& m, std::vector<Value>& args) -> Result<Value> {
        DVM_ASSIGN_OR_RETURN(std::string operation, m.StringValue(args[0].AsRef()));
        std::string target;
        if (!args[1].IsNullRef()) {
          DVM_ASSIGN_OR_RETURN(target, m.StringValue(args[1].AsRef()));
        }
        if (!CheckPermission(m, operation, target)) {
          m.ThrowGuest("java/lang/SecurityException",
                       operation + " denied for target " + target);
        }
        return Value::Null();
      });
}

}  // namespace dvm
