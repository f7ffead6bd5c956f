#include "src/services/verify_service.h"

#include <map>

#include "src/bytecode/builder.h"
#include "src/bytecode/descriptor.h"
#include "src/rewrite/method_editor.h"
#include "src/runtime/syslib.h"
#include "src/verifier/link_checker.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

constexpr const char* kGuardFieldPrefix = "__dvmVerified$";

// Emits the RTVerifier call for one assumption into `out`. Targets use
// absolute instruction indices of the final layout; no branches here.
void EmitCheckCall(const Assumption& a, ConstantPool& pool, std::vector<Instr>* out) {
  switch (a.kind) {
    case AssumptionKind::kClassExists:
      out->push_back({Op::kLdc, pool.AddString(a.target_class), 0});
      out->push_back({Op::kInvokestatic,
                      pool.AddMethodRef(kRtVerifierClass, "CheckClass",
                                        "(Ljava/lang/String;)V"),
                      0});
      break;
    case AssumptionKind::kFieldExists:
      out->push_back({Op::kLdc, pool.AddString(a.target_class), 0});
      out->push_back({Op::kLdc, pool.AddString(a.member_name), 0});
      out->push_back({Op::kLdc, pool.AddString(a.descriptor), 0});
      out->push_back({Op::kInvokestatic,
                      pool.AddMethodRef(kRtVerifierClass, "CheckField",
                                        "(Ljava/lang/String;Ljava/lang/String;"
                                        "Ljava/lang/String;)V"),
                      0});
      break;
    case AssumptionKind::kMethodExists:
      out->push_back({Op::kLdc, pool.AddString(a.target_class), 0});
      out->push_back({Op::kLdc, pool.AddString(a.member_name), 0});
      out->push_back({Op::kLdc, pool.AddString(a.descriptor), 0});
      out->push_back({Op::kInvokestatic,
                      pool.AddMethodRef(kRtVerifierClass, "CheckMethod",
                                        "(Ljava/lang/String;Ljava/lang/String;"
                                        "Ljava/lang/String;)V"),
                      0});
      break;
    case AssumptionKind::kAssignable:
      out->push_back({Op::kLdc, pool.AddString(a.target_class), 0});
      out->push_back({Op::kLdc, pool.AddString(a.expected_class), 0});
      out->push_back({Op::kInvokestatic,
                      pool.AddMethodRef(kRtVerifierClass, "CheckAssignable",
                                        "(Ljava/lang/String;Ljava/lang/String;)V"),
                      0});
      break;
  }
}

// Injects a guarded check preamble into one method (the Figure 3 pattern):
//   if (!__dvmVerified$k) { RTVerifier.Check...(...); __dvmVerified$k = true; }
Status InjectMethodGuard(ClassFile& cls, MethodInfo& method, size_t guard_index,
                         const std::vector<const Assumption*>& assumptions) {
  ConstantPool& pool = cls.pool();
  std::string guard_name = kGuardFieldPrefix + std::to_string(guard_index);
  cls.fields.push_back(FieldInfo{
      static_cast<uint16_t>(AccessFlags::kStatic | AccessFlags::kPublic), guard_name, "I", {}});
  uint16_t guard_ref = pool.AddFieldRef(cls.name(), guard_name, "I");

  std::vector<Instr> preamble;
  preamble.push_back({Op::kGetstatic, guard_ref, 0});
  size_t branch_slot = preamble.size();
  preamble.push_back({Op::kIfne, 0, 0});  // target patched below
  for (const Assumption* a : assumptions) {
    EmitCheckCall(*a, pool, &preamble);
  }
  preamble.push_back({Op::kIconst1, 0, 0});
  preamble.push_back({Op::kPutstatic, guard_ref, 0});
  // Skip target: first original instruction, which sits right after the
  // preamble in the final layout.
  preamble[branch_slot].a = static_cast<int32_t>(preamble.size());

  DVM_ASSIGN_OR_RETURN(MethodEditor editor, MethodEditor::Open(&cls, &method));
  DVM_RETURN_IF_ERROR(editor.InsertBefore(0, preamble));
  return editor.Commit();
}

// Appends class-scoped checks to <clinit>, creating it if absent.
Status InjectClassChecks(ClassFile& cls, const std::vector<const Assumption*>& assumptions) {
  ConstantPool& pool = cls.pool();
  std::vector<Instr> calls;
  for (const Assumption* a : assumptions) {
    EmitCheckCall(*a, pool, &calls);
  }

  MethodInfo* clinit = cls.FindMethod("<clinit>", "()V");
  if (clinit == nullptr) {
    calls.push_back({Op::kReturn, 0, 0});
    DVM_ASSIGN_OR_RETURN(Bytes encoded, EncodeCode(calls));
    DVM_ASSIGN_OR_RETURN(uint16_t max_stack, ComputeMaxStackDepth(calls, pool, {}));
    MethodInfo method;
    method.access_flags = AccessFlags::kStatic;
    method.name = "<clinit>";
    method.descriptor = "()V";
    CodeAttr code;
    code.max_stack = max_stack;
    code.max_locals = 0;
    code.code = std::move(encoded);
    method.code = std::move(code);
    cls.methods.push_back(std::move(method));
    return Status::Ok();
  }
  DVM_ASSIGN_OR_RETURN(MethodEditor editor, MethodEditor::Open(&cls, clinit));
  DVM_RETURN_IF_ERROR(editor.InsertBefore(0, calls));
  return editor.Commit();
}

}  // namespace

Result<ClassFile> BuildVerifyErrorClass(const ClassFile& original, const std::string& message) {
  ClassBuilder cb(original.name(), "java/lang/Object", original.access_flags);
  // Preserve the field surface so other classes' link checks still pass; the
  // methods are the enforcement point. Members whose descriptors do not parse
  // are dropped: link resolution parses descriptors too, so nothing can ever
  // bind to them, and MethodBuilder would (rightly) refuse to assemble a body
  // for a malformed signature. Rejected input is adversarial by definition —
  // the stand-in must be buildable for *any* parseable class.
  for (const auto& f : original.fields) {
    if (!IsValidTypeDescriptor(f.descriptor)) {
      continue;
    }
    cb.AddField(f.access_flags, f.name, f.descriptor);
  }
  for (const auto& m : original.methods) {
    if (!ParseMethodDescriptor(m.descriptor).ok()) {
      continue;
    }
    if (m.IsAbstract()) {
      cb.AddAbstractMethod(m.access_flags, m.name, m.descriptor);
      continue;
    }
    uint16_t flags = static_cast<uint16_t>(m.access_flags & ~AccessFlags::kNative);
    MethodBuilder& mb = cb.AddMethod(flags, m.name, m.descriptor);
    mb.New("java/lang/VerifyError").Emit(Op::kDup).PushString(message);
    mb.InvokeSpecial("java/lang/VerifyError", "<init>", "(Ljava/lang/String;)V");
    mb.Emit(Op::kAthrow);
  }
  DVM_ASSIGN_OR_RETURN(ClassFile out, cb.Build());
  out.SetAttribute(kAttrServiceStamp, Bytes{'v', 'e', 'r', 'r'});
  return out;
}

Result<FilterOutcome> VerificationFilter::Apply(ClassFile& cls, const FilterContext& ctx) const {
  FilterOutcome outcome;
  if (IsSystemClass(cls.name())) {
    return outcome;  // the shipped library is trusted and pre-verified
  }

  auto verified = VerifyClass(cls, *ctx.env);
  if (!verified.ok()) {
    if (verified.error().code != ErrorCode::kVerifyError) {
      return verified.error();
    }
    DVM_ASSIGN_OR_RETURN(outcome.replacement, BuildVerifyErrorClass(cls, verified.error().message));
    outcome.modified = true;
    outcome.checks_performed = 1;
    return outcome;
  }

  outcome.checks_performed = verified->stats.TotalStaticChecks();

  // Partition assumptions by scope.
  std::vector<const Assumption*> class_scoped;
  std::map<std::string, std::vector<const Assumption*>> by_method;
  for (const auto& a : verified->assumptions) {
    if (a.scope == AssumptionScope::kClass) {
      class_scoped.push_back(&a);
    } else {
      by_method[a.method_id].push_back(&a);
    }
  }

  if (!class_scoped.empty()) {
    DVM_RETURN_IF_ERROR(InjectClassChecks(cls, class_scoped));
    outcome.sites_rewritten += class_scoped.size();
    outcome.modified = true;
  }
  size_t guard_index = 0;
  for (auto& method : cls.methods) {
    auto it = by_method.find(method.Id());
    if (it == by_method.end() || !method.code.has_value()) {
      continue;
    }
    DVM_RETURN_IF_ERROR(InjectMethodGuard(cls, method, guard_index++, it->second));
    outcome.sites_rewritten += it->second.size();
    outcome.modified = true;
  }

  cls.SetAttribute(kAttrServiceStamp, Bytes{'v', 'r', 'f', 'y'});
  return outcome;
}

void InstallVerifierRuntime(Machine& machine) {
  // Shared helper: run one assumption against the client's namespace, charging
  // the dynamic-check cost and converting failures into guest VerifyError.
  auto run_check = [](Machine& m, const Assumption& assumption) -> Result<Value> {
    LinkCheckStats stats;
    // Fault in the target class so the namespace query has something to read.
    (void)m.registry().GetClass(assumption.target_class);
    Status status = CheckAssumption(assumption, m.registry(), &stats);
    // Descriptor lookups against a self-describing ReflectionInfo attribute
    // are fast; classes without one force the slow reflective path (the
    // section 4.3 anecdote and the ablation_reflection benchmark).
    RuntimeClass* target = m.registry().FindLoaded(assumption.target_class);
    bool self_describing =
        target != nullptr && target->file.FindAttribute(kAttrReflectionInfo) != nullptr;
    uint64_t per_check = self_describing ? m.config().cost.nanos_per_link_check
                                         : m.config().cost.nanos_per_link_check_slow;
    uint64_t cost = stats.dynamic_checks * per_check;
    m.AddNanos(cost);
    m.AddServiceNanos("verify", cost);
    m.counters().dynamic_verify_checks += stats.dynamic_checks;
    if (!status.ok()) {
      m.ThrowGuest("java/lang/VerifyError", status.error().message);
    }
    return Value::Null();
  };

  machine.natives().Register(
      kRtVerifierClass, "CheckClass", "(Ljava/lang/String;)V",
      [run_check](Machine& m, std::vector<Value>& args) -> Result<Value> {
        Assumption a;
        a.kind = AssumptionKind::kClassExists;
        DVM_ASSIGN_OR_RETURN(a.target_class, m.StringValue(args[0].AsRef()));
        return run_check(m, a);
      });
  machine.natives().Register(
      kRtVerifierClass, "CheckField",
      "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
      [run_check](Machine& m, std::vector<Value>& args) -> Result<Value> {
        Assumption a;
        a.kind = AssumptionKind::kFieldExists;
        DVM_ASSIGN_OR_RETURN(a.target_class, m.StringValue(args[0].AsRef()));
        DVM_ASSIGN_OR_RETURN(a.member_name, m.StringValue(args[1].AsRef()));
        DVM_ASSIGN_OR_RETURN(a.descriptor, m.StringValue(args[2].AsRef()));
        return run_check(m, a);
      });
  machine.natives().Register(
      kRtVerifierClass, "CheckMethod",
      "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
      [run_check](Machine& m, std::vector<Value>& args) -> Result<Value> {
        Assumption a;
        a.kind = AssumptionKind::kMethodExists;
        DVM_ASSIGN_OR_RETURN(a.target_class, m.StringValue(args[0].AsRef()));
        DVM_ASSIGN_OR_RETURN(a.member_name, m.StringValue(args[1].AsRef()));
        DVM_ASSIGN_OR_RETURN(a.descriptor, m.StringValue(args[2].AsRef()));
        return run_check(m, a);
      });
  machine.natives().Register(
      kRtVerifierClass, "CheckAssignable", "(Ljava/lang/String;Ljava/lang/String;)V",
      [run_check](Machine& m, std::vector<Value>& args) -> Result<Value> {
        Assumption a;
        a.kind = AssumptionKind::kAssignable;
        DVM_ASSIGN_OR_RETURN(a.target_class, m.StringValue(args[0].AsRef()));
        DVM_ASSIGN_OR_RETURN(a.expected_class, m.StringValue(args[1].AsRef()));
        return run_check(m, a);
      });
}

}  // namespace dvm
