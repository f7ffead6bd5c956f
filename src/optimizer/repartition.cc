#include "src/optimizer/repartition.h"

#include "src/bytecode/builder.h"
#include "src/bytecode/code.h"
#include "src/bytecode/descriptor.h"
#include "src/rewrite/method_editor.h"
#include "src/runtime/syslib.h"

namespace dvm {
namespace {

constexpr const char* kColdSuffix = "$cold";

// Remaps one constant-pool index from `from` into `to`.
Result<uint16_t> RemapCpIndex(uint16_t index, const ConstantPool& from, ConstantPool& to) {
  if (from.HasTag(index, CpTag::kInteger)) {
    return to.AddInteger(from.IntegerAt(index).value());
  }
  if (from.HasTag(index, CpTag::kLong)) {
    return to.AddLong(from.LongAt(index).value());
  }
  if (from.HasTag(index, CpTag::kString)) {
    return to.AddString(from.StringAt(index).value());
  }
  if (from.HasTag(index, CpTag::kClass)) {
    return to.AddClass(from.ClassNameAt(index).value());
  }
  if (from.HasTag(index, CpTag::kFieldRef)) {
    MemberRef ref = from.FieldRefAt(index).value();
    return to.AddFieldRef(ref.class_name, ref.member_name, ref.descriptor);
  }
  if (from.HasTag(index, CpTag::kMethodRef)) {
    MemberRef ref = from.MethodRefAt(index).value();
    return to.AddMethodRef(ref.class_name, ref.member_name, ref.descriptor);
  }
  return Error{ErrorCode::kInternal, "cannot remap constant pool entry " +
                                         std::to_string(index)};
}

// Builds the stub that remains in the hot class, forwarding to the static
// cold-class implementation.
Result<MethodInfo> BuildForwardingStub(const MethodInfo& original,
                                       const std::string& class_name,
                                       const std::string& cold_class,
                                       const std::string& cold_descriptor,
                                       ConstantPool& pool) {
  DVM_ASSIGN_OR_RETURN(MethodSignature sig, ParseMethodDescriptor(original.descriptor));
  std::vector<Instr> body;
  int slot = 0;
  if (!original.IsStatic()) {
    body.push_back({Op::kAload, slot++, 0});
  }
  for (const auto& param : sig.params) {
    Op load = param == "I" ? Op::kIload : param == "J" ? Op::kLload : Op::kAload;
    body.push_back({load, slot++, 0});
  }
  body.push_back({Op::kInvokestatic,
                  pool.AddMethodRef(cold_class, original.name, cold_descriptor), 0});
  if (sig.ReturnsVoid()) {
    body.push_back({Op::kReturn, 0, 0});
  } else if (sig.return_type == "I") {
    body.push_back({Op::kIreturn, 0, 0});
  } else if (sig.return_type == "J") {
    body.push_back({Op::kLreturn, 0, 0});
  } else {
    body.push_back({Op::kAreturn, 0, 0});
  }

  DVM_ASSIGN_OR_RETURN(Bytes encoded, EncodeCode(body));
  DVM_ASSIGN_OR_RETURN(uint16_t max_stack, ComputeMaxStackDepth(body, pool, {}));
  MethodInfo stub;
  stub.access_flags = original.access_flags;
  stub.name = original.name;
  stub.descriptor = original.descriptor;
  CodeAttr code;
  code.max_stack = max_stack;
  code.max_locals = static_cast<uint16_t>(slot);
  code.code = std::move(encoded);
  stub.code = std::move(code);
  return stub;
}

}  // namespace

TransferProfile::TransferProfile(const std::vector<std::string>& first_use_tags) {
  for (const auto& tag : first_use_tags) {
    size_t dot = tag.rfind('.');
    if (dot != std::string::npos) {
      MarkUsed(tag.substr(0, dot), tag.substr(dot + 1));
    }
  }
}

void TransferProfile::MarkUsed(const std::string& class_name,
                               const std::string& method_name) {
  used_.insert(class_name + "." + method_name);
  classes_.insert(class_name);
}

bool TransferProfile::IsUsed(const std::string& class_name,
                             const std::string& method_name) const {
  return used_.count(class_name + "." + method_name) > 0;
}

bool TransferProfile::HasDataFor(const std::string& class_name) const {
  return classes_.count(class_name) > 0;
}

Result<Bytes> TranspileCode(const Bytes& code, const ConstantPool& from, ConstantPool& to) {
  DVM_ASSIGN_OR_RETURN(std::vector<Instr> instrs, DecodeCode(code));
  for (auto& instr : instrs) {
    const OpInfo* info = GetOpInfo(instr.op);
    if (info != nullptr && info->operands == OperandKind::kCpIndex) {
      DVM_ASSIGN_OR_RETURN(uint16_t remapped,
                           RemapCpIndex(static_cast<uint16_t>(instr.a), from, to));
      instr.a = remapped;
    }
  }
  return EncodeCode(instrs);
}

Result<FilterOutcome> RepartitionFilter::Apply(ClassFile& cls, const FilterContext& ctx) const {
  FilterOutcome outcome;
  const std::string class_name = cls.name();
  // Only split classes we have profile data for; without a profile every
  // method would look cold and startup would fault the cold class immediately.
  if (IsSystemClass(class_name) || !profile_->HasDataFor(class_name)) {
    return outcome;
  }

  // Partition. Constructors, initializers and guard-bearing service preambles
  // stay hot: they run on the startup path by construction.
  std::vector<size_t> cold_indices;
  for (size_t i = 0; i < cls.methods.size(); i++) {
    const MethodInfo& m = cls.methods[i];
    if (!m.code.has_value() || m.IsConstructor() || m.IsClassInitializer()) {
      continue;
    }
    if (!profile_->IsUsed(class_name, m.name)) {
      cold_indices.push_back(i);
    }
  }
  if (cold_indices.empty()) {
    return outcome;
  }

  const std::string cold_class = class_name + kColdSuffix;
  ClassBuilder cold_builder(cold_class, "java/lang/Object");
  auto cold_built = cold_builder.Build();
  if (!cold_built.ok()) {
    return cold_built.error();
  }
  ClassFile cold = std::move(cold_built).value();

  for (size_t index : cold_indices) {
    MethodInfo& original = cls.methods[index];
    outcome.checks_performed++;

    // The cold implementation is a static method; instance methods gain the
    // receiver as an explicit first parameter, which keeps the body's local
    // numbering (and therefore its bytecode) unchanged.
    DVM_ASSIGN_OR_RETURN(MethodSignature sig, ParseMethodDescriptor(original.descriptor));
    std::string cold_descriptor = original.descriptor;
    if (!original.IsStatic()) {
      std::vector<std::string> params = sig.params;
      params.insert(params.begin(), DescriptorFromClassName(class_name));
      cold_descriptor = MakeMethodDescriptor(params, sig.return_type);
    }

    MethodInfo moved;
    moved.access_flags = static_cast<uint16_t>(AccessFlags::kPublic | AccessFlags::kStatic);
    moved.name = original.name;
    moved.descriptor = cold_descriptor;
    CodeAttr moved_code;
    moved_code.max_stack = original.code->max_stack;
    moved_code.max_locals = original.code->max_locals;
    DVM_ASSIGN_OR_RETURN(moved_code.code,
                         TranspileCode(original.code->code, cls.pool(), cold.pool()));
    for (const auto& h : original.code->handlers) {
      ExceptionHandler handler = h;
      if (h.catch_type != 0) {
        DVM_ASSIGN_OR_RETURN(handler.catch_type,
                             RemapCpIndex(h.catch_type, cls.pool(), cold.pool()));
      }
      moved_code.handlers.push_back(handler);
    }
    moved.code = std::move(moved_code);
    cold.methods.push_back(std::move(moved));

    DVM_ASSIGN_OR_RETURN(
        MethodInfo stub,
        BuildForwardingStub(original, class_name, cold_class, cold_descriptor, cls.pool()));
    original = std::move(stub);
  }

  cold.SetAttribute(kAttrServiceStamp, Bytes{'c', 'o', 'l', 'd'});
  cls.SetAttribute(kAttrServiceStamp, Bytes{'r', 'p', 'r', 't'});
  outcome.extra_classes.push_back(std::move(cold));
  outcome.modified = true;
  return outcome;
}

}  // namespace dvm
