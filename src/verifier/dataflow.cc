#include "src/verifier/dataflow.h"

#include <set>

#include "src/bytecode/serializer.h"

namespace dvm {
namespace {

// An Uninit value's site is the index of its `new`; a code body holds at most
// one instruction per byte.
static_assert(kMaxCodeLen - 1 <= VType::kMaxSite);

constexpr const char* kObject = "java/lang/Object";
constexpr const char* kThrowable = "java/lang/Throwable";

Error Verr(const std::string& message) { return Error{ErrorCode::kVerifyError, message}; }

}  // namespace

// ---------------------------------------------------------------------------
// Phase 2: instruction integrity.
// ---------------------------------------------------------------------------

Result<MethodCode> Phase2(const ClassFile& cls, const MethodInfo& method, VerifyStats* stats) {
  const CodeAttr& code = *method.code;
  auto check = [&stats] { stats->phase2_checks++; };

  check();
  if (code.code.empty()) {
    return Verr("empty code in " + method.Id());
  }

  // The dataflow entry frame writes one local slot per receiver + parameter;
  // a hostile max_locals smaller than that would make those writes land out
  // of bounds, so it is rejected here before any frame is materialized.
  check();
  auto sig = ParseMethodDescriptor(method.descriptor);
  if (!sig.ok()) {
    return Verr("method " + method.Id() + " has malformed descriptor");
  }
  size_t entry_slots = (method.IsStatic() ? 0 : 1) + sig->params.size();
  if (entry_slots > code.max_locals) {
    return Verr("max_locals " + std::to_string(code.max_locals) + " cannot hold " +
                std::to_string(entry_slots) + " parameter slots in " + method.Id());
  }

  // DecodeCode performs opcode validity, truncation and branch-boundary checks.
  check();
  DVM_ASSIGN_OR_RETURN(std::vector<Instr> instrs, DecodeCode(code.code));
  stats->instructions_verified += instrs.size();

  MethodCode mc;
  mc.offsets = CodeByteOffsets(instrs);
  mc.off_to_ix = OffsetIndex(mc.offsets);

  const ConstantPool& pool = cls.pool();
  for (size_t i = 0; i < instrs.size(); i++) {
    const Instr& instr = instrs[i];
    const OpInfo* info = GetOpInfo(instr.op);
    switch (info->operands) {
      case OperandKind::kU8:
      case OperandKind::kLocalIncr:
        check();
        if (instr.a >= code.max_locals) {
          return Verr("local index " + std::to_string(instr.a) + " out of bounds in " +
                      method.Id());
        }
        break;
      case OperandKind::kArrayKind:
        check();
        if (instr.a != static_cast<int>(ArrayKind::kInt) &&
            instr.a != static_cast<int>(ArrayKind::kLong)) {
          return Verr("bad newarray kind in " + method.Id());
        }
        break;
      case OperandKind::kCpIndex: {
        check();
        uint16_t index = static_cast<uint16_t>(instr.a);
        bool ok = false;
        if (instr.op == Op::kLdc) {
          ok = pool.HasTag(index, CpTag::kInteger) || pool.HasTag(index, CpTag::kLong) ||
               pool.HasTag(index, CpTag::kString);
        } else if (IsInvoke(instr.op)) {
          ok = pool.HasTag(index, CpTag::kMethodRef);
        } else if (IsFieldAccess(instr.op)) {
          ok = pool.HasTag(index, CpTag::kFieldRef);
        } else {  // new / anewarray / checkcast / instanceof
          ok = pool.HasTag(index, CpTag::kClass);
        }
        if (!ok) {
          return Verr(std::string(info->name) + " references wrong constant pool tag in " +
                      method.Id());
        }
        break;
      }
      default:
        break;
    }
    // Control may not fall off the end of the method.
    check();
    if (i + 1 == instrs.size() && !IsTerminator(instr.op)) {
      return Verr("control falls off the end of " + method.Id());
    }
  }

  // Exception-table pcs come off the wire and may lie anywhere in u16 range.
  auto starts_instr = [&](uint16_t pc) {
    int32_t ix = mc.off_to_ix.At(pc);
    return ix != OffsetIndex::kNone && static_cast<size_t>(ix) < instrs.size();
  };
  for (const auto& h : code.handlers) {
    check();
    if (!starts_instr(h.start_pc) || !starts_instr(h.handler_pc) ||
        mc.off_to_ix.At(h.end_pc) == OffsetIndex::kNone || h.start_pc >= h.end_pc) {
      return Verr("exception handler has invalid code range in " + method.Id());
    }
    check();
    if (h.catch_type != 0 && !pool.HasTag(h.catch_type, CpTag::kClass)) {
      return Verr("exception handler catch type is not a ClassRef in " + method.Id());
    }
  }

  mc.instrs = std::move(instrs);
  return mc;
}

std::vector<bool> MergePoints(const MethodInfo& method, const MethodCode& mc) {
  std::vector<bool> merge(mc.instrs.size(), false);
  for (const Instr& instr : mc.instrs) {
    if (IsBranch(instr.op)) {
      merge[static_cast<size_t>(instr.a)] = true;
    }
  }
  for (const auto& h : method.code->handlers) {
    merge[static_cast<size_t>(mc.off_to_ix.At(h.handler_pc))] = true;
  }
  return merge;
}

Status CheckSuperclass(const ClassFile& cls, const ClassEnv& env, uint64_t* checks,
                       std::vector<Assumption>* assumptions) {
  std::string super = cls.super_name();
  if (super.empty()) {
    return Status::Ok();
  }
  (*checks)++;
  const ClassFile* super_cls = env.Lookup(super);
  if (super_cls == nullptr) {
    Assumption a;
    a.kind = AssumptionKind::kClassExists;
    a.scope = AssumptionScope::kClass;
    a.target_class = super;
    assumptions->push_back(std::move(a));
  } else if ((super_cls->access_flags & AccessFlags::kFinal) != 0) {
    return Error{ErrorCode::kVerifyError, cls.name() + " extends final class " + super};
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 3: the abstract transfer function.
// ---------------------------------------------------------------------------

ClassScope::ClassScope(const ClassFile& cls, TypeEnv& types)
    : object_id(types.Intern(kObject)),
      throwable_id(types.Intern(kThrowable)),
      string_id(types.Intern("java/lang/String")),
      int_array_id(types.Intern("[I")),
      long_array_id(types.Intern("[J")),
      cls_(cls),
      types_(types),
      slot_(cls.pool().size(), -1) {}

ClassScope::FieldSite& ClassScope::Field(uint16_t index) {
  int32_t& slot = slot_[index];
  if (slot < 0) {
    FieldSite& site = fields_.emplace_back();
    site.ref = cls_.pool().FieldRefAt(index).value();
    site.type = types_.FromDescriptor(site.ref.descriptor);
    slot = static_cast<int32_t>(fields_.size() - 1);
  }
  return fields_[static_cast<size_t>(slot)];
}

ClassScope::InvokeSite& ClassScope::Invoke(uint16_t index) {
  int32_t& slot = slot_[index];
  if (slot < 0) {
    InvokeSite& site = invokes_.emplace_back();
    site.ref = cls_.pool().MethodRefAt(index).value();
    site.class_id = types_.Intern(site.ref.class_name);
    Result<MethodSignature> sig = ParseMethodDescriptor(site.ref.descriptor);
    if (!sig.ok()) {
      site.bad_descriptor = sig.error();
    } else {
      site.params = std::move(sig->params);
      for (const std::string& param : site.params) {
        site.param_types.push_back(types_.FromDescriptor(param));
      }
      site.returns_void = sig->ReturnsVoid();
      site.return_type = types_.FromDescriptor(sig->return_type);
    }
    slot = static_cast<int32_t>(invokes_.size() - 1);
  }
  return invokes_[static_cast<size_t>(slot)];
}

const ClassScope::ClassSite& ClassScope::Class(uint16_t index) {
  int32_t& slot = slot_[index];
  if (slot < 0) {
    ClassSite& site = classes_.emplace_back();
    site.name = cls_.pool().ClassNameAt(index).value();
    site.type = types_.Ref(site.name);
    site.array_of = types_.Ref("[" + DescriptorFromClassName(site.name));
    site.known = types_.classes().IsKnown(site.name);
    slot = static_cast<int32_t>(classes_.size() - 1);
  }
  return classes_[static_cast<size_t>(slot)];
}

namespace {

// Shared walk of ResolveField / ResolveMethod: look the member up in the
// referenced class and its known ancestors. `find` reports whether a class
// declares the member (filling in the checks and failure of a hit). The
// visited set cuts hierarchy cycles a hostile class can smuggle in
// (A extends B extends A).
template <typename Find>
ClassScope::Resolution ResolveMember(const ClassEnv& env, const MemberRef& ref,
                                     AssumptionKind kind, const char* what, Find find) {
  ClassScope::Resolution r;
  auto assume = [&](const std::string& target_class) {
    Assumption a;
    a.kind = kind;
    a.scope = AssumptionScope::kMethod;
    a.target_class = target_class;
    a.member_name = ref.member_name;
    a.descriptor = ref.descriptor;
    r.assumption = std::move(a);
  };
  r.checks++;
  const ClassFile* current = env.Lookup(ref.class_name);
  if (current == nullptr) {
    assume(ref.class_name);
    return r;
  }
  std::set<std::string> visited;
  visited.insert(ref.class_name);
  while (!find(*current, &r)) {
    std::string super = current->super_name();
    if (super.empty() || !visited.insert(super).second) {
      r.failure = std::string(what) + " " + ref.ToString() + " does not exist";
      return r;
    }
    current = env.Lookup(super);
    if (current == nullptr) {
      // The member may be inherited from a class outside the environment.
      assume(super);
      return r;
    }
  }
  return r;
}

}  // namespace

const ClassScope::Resolution& ClassScope::ResolveField(FieldSite& site, bool want_static) {
  std::optional<Resolution>& memo = site.resolved[want_static ? 1 : 0];
  if (!memo.has_value()) {
    const MemberRef& ref = site.ref;
    memo = ResolveMember(
        types_.classes(), ref, AssumptionKind::kFieldExists, "field",
        [&](const ClassFile& cls, Resolution* r) {
          const FieldInfo* field = cls.FindField(ref.member_name);
          if (field == nullptr) {
            return false;
          }
          r->checks++;
          if (field->descriptor != ref.descriptor) {
            r->failure = "field " + ref.ToString() + " has descriptor " + field->descriptor;
            return true;
          }
          r->checks++;
          if (field->IsStatic() != want_static) {
            r->failure =
                "field " + ref.ToString() + (want_static ? " is not static" : " is static");
          }
          return true;
        });
  }
  return *memo;
}

const ClassScope::Resolution& ClassScope::ResolveMethod(InvokeSite& site, bool want_static) {
  std::optional<Resolution>& memo = site.resolved[want_static ? 1 : 0];
  if (!memo.has_value()) {
    const MemberRef& ref = site.ref;
    memo = ResolveMember(
        types_.classes(), ref, AssumptionKind::kMethodExists, "method",
        [&](const ClassFile& cls, Resolution* r) {
          const MethodInfo* m = cls.FindMethod(ref.member_name, ref.descriptor);
          if (m == nullptr) {
            return false;
          }
          r->checks++;
          if (m->IsStatic() != want_static) {
            r->failure =
                "method " + ref.ToString() + (want_static ? " is not static" : " is static");
          }
          return true;
        });
  }
  return *memo;
}

AbstractInterpreter::AbstractInterpreter(ClassScope& scope, const MethodInfo& method,
                                         const MethodCode& mc, uint64_t* checks,
                                         std::vector<Assumption>* assumptions)
    : scope_(scope), types_(scope.types()), method_(method), mc_(mc), checks_(checks),
      assumptions_(assumptions), method_id_(method.Id()),
      // Phase 2 already rejected malformed descriptors.
      sig_(ParseMethodDescriptor(method.descriptor).value()),
      return_type_(types_.FromDescriptor(sig_.return_type)) {
  for (const auto& h : method.code->handlers) {
    Handler handler;
    handler.start_pc = h.start_pc;
    handler.end_pc = h.end_pc;
    handler.target = static_cast<size_t>(mc.off_to_ix.At(h.handler_pc));
    handler.catch_type = VType::Ref(scope.throwable_id);
    if (h.catch_type != 0) {
      auto name = scope.cls().pool().ClassNameAt(h.catch_type);
      if (name.ok()) {
        handler.catch_type = types_.Ref(name.value());
      }
    }
    handlers_.push_back(handler);
  }
}

void AbstractInterpreter::Assume(Assumption a) {
  a.method_id = method_id_;
  assumptions_->push_back(std::move(a));
}

void AbstractInterpreter::AssumeClass(const std::string& class_name) {
  Assumption a;
  a.kind = AssumptionKind::kClassExists;
  a.scope = AssumptionScope::kMethod;
  a.target_class = class_name;
  Assume(std::move(a));
}

void AbstractInterpreter::AssumeAssignable(const VType& src, uint32_t dst) {
  Assumption a;
  a.kind = AssumptionKind::kAssignable;
  a.scope = AssumptionScope::kMethod;
  a.target_class = types_.Name(src.name);
  a.expected_class = types_.Name(dst);
  Assume(std::move(a));
}

Status AbstractInterpreter::Replay(size_t index, const ClassScope::Resolution& resolution) {
  *checks_ += resolution.checks;
  if (resolution.assumption.has_value()) {
    Assume(*resolution.assumption);
  }
  if (resolution.failure.has_value()) {
    return Fail(index, *resolution.failure);
  }
  return Status::Ok();
}

Error AbstractInterpreter::Fail(size_t index, const std::string& message) const {
  return Verr(scope_.cls().name() + "." + method_id_ + " @" + std::to_string(index) + ": " +
              message);
}

Result<VType> AbstractInterpreter::Pop(Frame& frame, size_t index) {
  Check();
  if (frame.stack.empty()) {
    return Fail(index, "operand stack underflow");
  }
  VType t = frame.stack.back();
  frame.stack.pop_back();
  return t;
}

Status AbstractInterpreter::PopKind(Frame& frame, size_t index, VType::Kind kind,
                                    const char* what) {
  DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
  Check();
  if (t.kind != kind) {
    return Fail(index, std::string("expected ") + what + ", found " + Str(t));
  }
  return Status::Ok();
}

Status AbstractInterpreter::PopRefLike(Frame& frame, size_t index, VType* out) {
  DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
  Check();
  if (!t.IsRefLike()) {
    return Fail(index, "expected reference, found " + Str(t));
  }
  *out = t;
  return Status::Ok();
}

Status AbstractInterpreter::PopAssignable(Frame& frame, size_t index, const VType& want,
                                          const std::string& desc) {
  DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
  Check();
  switch (want.kind) {
    case VType::Kind::kInt:
    case VType::Kind::kLong:
      if (t.kind != want.kind) {
        return Fail(index, "expected " + Str(want) + ", found " + Str(t));
      }
      return Status::Ok();
    case VType::Kind::kRef: {
      if (!t.IsRefLike()) {
        return Fail(index, "expected reference " + Str(want) + ", found " + Str(t));
      }
      switch (IsAssignable(t, want.name, types_)) {
        case Assignability::kYes:
          return Status::Ok();
        case Assignability::kNo:
          return Fail(index, Str(t) + " is not assignable to " + Str(want));
        case Assignability::kUnknown:
          AssumeAssignable(t, want.name);
          return Status::Ok();
      }
      return Status::Ok();
    }
    default:
      return Fail(index, "unusable expected type " + desc);
  }
}

Status AbstractInterpreter::Push(Frame& frame, size_t index, VType t) {
  Check();
  if (frame.stack.size() >= method_.code->max_stack) {
    return Fail(index, "operand stack overflow (max_stack=" +
                           std::to_string(method_.code->max_stack) + ")");
  }
  frame.stack.push_back(t);
  return Status::Ok();
}

Result<VType> AbstractInterpreter::GetLocal(const Frame& frame, size_t index, int slot,
                                            VType::Kind want, const char* what) {
  Check();
  const VType& t = frame.locals[static_cast<size_t>(slot)];
  if (t.kind != want) {
    return Fail(index, std::string("local ") + std::to_string(slot) + " is not " + what +
                           " (found " + Str(t) + ")");
  }
  return t;
}

Frame AbstractInterpreter::EntryFrame() const {
  Frame frame;
  frame.locals.assign(method_.code->max_locals, VType::Top());
  size_t slot = 0;
  if (!method_.IsStatic()) {
    frame.locals[slot++] = types_.Ref(scope_.cls().name());
  }
  for (const auto& param : sig_.params) {
    frame.locals[slot++] = types_.FromDescriptor(param);
  }
  return frame;
}

Status AbstractInterpreter::HandlerEdges(size_t index, std::vector<HandlerEdge>* edges) {
  edges->clear();
  uint32_t offset = mc_.offsets[index];
  for (const Handler& h : handlers_) {
    if (offset < h.start_pc || offset >= h.end_pc) {
      continue;
    }
    // The thrown reference needs a stack slot; a handler in a max_stack=0
    // method used to sneak past the Push() overflow check because the entry
    // frame was built with a raw push_back.
    Check();
    if (method_.code->max_stack < 1) {
      return Fail(index, "exception handler needs stack room for the thrown reference "
                         "(max_stack=0)");
    }
    // A catch type that provably isn't a Throwable can never be thrown; the
    // handler entry state it would imply is a fiction.
    Check();
    if (h.catch_type.name != scope_.throwable_id) {
      switch (IsAssignable(h.catch_type, scope_.throwable_id, types_)) {
        case Assignability::kYes:
          break;
        case Assignability::kNo:
          return Fail(index, "handler catches non-throwable " + Str(h.catch_type));
        case Assignability::kUnknown:
          AssumeAssignable(h.catch_type, scope_.throwable_id);
          break;
      }
    }
    edges->push_back({h.target, h.catch_type});
  }
  return Status::Ok();
}

Result<AbstractInterpreter::StepResult> AbstractInterpreter::Step(size_t index, Frame& frame) {
  const Instr& instr = mc_.instrs[index];
  const uint16_t cp_index = static_cast<uint16_t>(instr.a);

  StepResult out;
  out.fallthrough = !IsTerminator(instr.op);
  if (IsBranch(instr.op)) {
    out.branch_target = static_cast<size_t>(instr.a);
  }

  switch (instr.op) {
    case Op::kNop:
      break;
    case Op::kAconstNull:
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Null()));
      break;
    case Op::kIconst0:
    case Op::kIconst1:
    case Op::kBipush:
    case Op::kSipush:
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kLdc: {
      const ConstantPool& pool = scope_.cls().pool();
      if (pool.HasTag(cp_index, CpTag::kInteger)) {
        DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      } else if (pool.HasTag(cp_index, CpTag::kLong)) {
        DVM_RETURN_IF_ERROR(Push(frame, index, VType::Long()));
      } else {
        DVM_RETURN_IF_ERROR(Push(frame, index, VType::Ref(scope_.string_id)));
      }
      break;
    }
    case Op::kIload: {
      DVM_ASSIGN_OR_RETURN(VType t, GetLocal(frame, index, instr.a, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      break;
    }
    case Op::kLload: {
      DVM_ASSIGN_OR_RETURN(VType t, GetLocal(frame, index, instr.a, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      break;
    }
    case Op::kAload: {
      Check();
      const VType t = frame.locals[static_cast<size_t>(instr.a)];
      if (!t.IsRefLike() && t.kind != VType::Kind::kUninit) {
        return Fail(index, "aload of non-reference local " + std::to_string(instr.a));
      }
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      break;
    }
    case Op::kIstore:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      frame.locals[static_cast<size_t>(instr.a)] = VType::Int();
      break;
    case Op::kLstore:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      frame.locals[static_cast<size_t>(instr.a)] = VType::Long();
      break;
    case Op::kAstore: {
      DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
      Check();
      if (!t.IsRefLike() && t.kind != VType::Kind::kUninit) {
        return Fail(index, "astore of non-reference " + Str(t));
      }
      frame.locals[static_cast<size_t>(instr.a)] = t;
      break;
    }
    case Op::kIaload:
    case Op::kLaload: {
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int index"));
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      const uint32_t want = instr.op == Op::kIaload ? scope_.int_array_id : scope_.long_array_id;
      Check();
      if (arr.kind == VType::Kind::kRef && arr.name != want) {
        return Fail(index, "array load type mismatch: " + Str(arr));
      }
      DVM_RETURN_IF_ERROR(
          Push(frame, index, instr.op == Op::kIaload ? VType::Int() : VType::Long()));
      break;
    }
    case Op::kAaload: {
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int index"));
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      Check();
      // A null array throws before any element exists. Null (the reference
      // bottom) keeps Step monotone: Null ⊑ [LC; and Null ⊑ C, not so Object.
      VType element = VType::Null();
      if (arr.kind == VType::Kind::kRef) {
        const std::string& name = types_.Name(arr.name);
        if (!types_.IsArray(arr) || name.size() < 2 || (name[1] != 'L' && name[1] != '[')) {
          return Fail(index, "aaload on non-reference array " + Str(arr));
        }
        element = types_.FromDescriptor(ArrayElementDescriptor(name));
      }
      DVM_RETURN_IF_ERROR(Push(frame, index, element));
      break;
    }
    case Op::kIastore:
    case Op::kLastore: {
      DVM_RETURN_IF_ERROR(PopKind(frame, index,
                                  instr.op == Op::kIastore ? VType::Kind::kInt
                                                           : VType::Kind::kLong,
                                  "array element value"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int index"));
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      const uint32_t want = instr.op == Op::kIastore ? scope_.int_array_id : scope_.long_array_id;
      Check();
      if (arr.kind == VType::Kind::kRef && arr.name != want) {
        return Fail(index, "array store type mismatch: " + Str(arr));
      }
      break;
    }
    case Op::kAastore: {
      VType value;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &value));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int index"));
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      Check();
      if (arr.kind == VType::Kind::kRef) {
        if (!types_.IsArray(arr)) {
          return Fail(index, "aastore on non-array " + Str(arr));
        }
        std::string elem_desc = ArrayElementDescriptor(types_.Name(arr.name));
        if (elem_desc[0] == 'L') {
          const uint32_t elem = types_.Intern(ClassNameFromDescriptor(elem_desc));
          switch (IsAssignable(value, elem, types_)) {
            case Assignability::kYes:
              break;
            case Assignability::kNo:
              return Fail(index, Str(value) + " not storable into " + Str(arr));
            case Assignability::kUnknown:
              AssumeAssignable(value, elem);
              break;
          }
        }
      }
      break;
    }
    case Op::kPop:
      DVM_RETURN_IF_ERROR(Pop(frame, index));
      break;
    case Op::kDup: {
      DVM_ASSIGN_OR_RETURN(VType t, Pop(frame, index));
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      DVM_RETURN_IF_ERROR(Push(frame, index, t));
      break;
    }
    case Op::kDupX1: {
      DVM_ASSIGN_OR_RETURN(VType v1, Pop(frame, index));
      DVM_ASSIGN_OR_RETURN(VType v2, Pop(frame, index));
      DVM_RETURN_IF_ERROR(Push(frame, index, v1));
      DVM_RETURN_IF_ERROR(Push(frame, index, v2));
      DVM_RETURN_IF_ERROR(Push(frame, index, v1));
      break;
    }
    case Op::kSwap: {
      DVM_ASSIGN_OR_RETURN(VType v1, Pop(frame, index));
      DVM_ASSIGN_OR_RETURN(VType v2, Pop(frame, index));
      DVM_RETURN_IF_ERROR(Push(frame, index, v1));
      DVM_RETURN_IF_ERROR(Push(frame, index, v2));
      break;
    }
    case Op::kIadd:
    case Op::kIsub:
    case Op::kImul:
    case Op::kIdiv:
    case Op::kIrem:
    case Op::kIshl:
    case Op::kIshr:
    case Op::kIushr:
    case Op::kIand:
    case Op::kIor:
    case Op::kIxor:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kLadd:
    case Op::kLsub:
    case Op::kLmul:
    case Op::kLdiv:
    case Op::kLrem:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Long()));
      break;
    case Op::kIneg:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kLneg:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Long()));
      break;
    case Op::kIinc: {
      DVM_ASSIGN_OR_RETURN(VType t, GetLocal(frame, index, instr.a, VType::Kind::kInt, "int"));
      (void)t;
      break;
    }
    case Op::kI2l:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Long()));
      break;
    case Op::kL2i:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kLcmp:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    case Op::kIfeq:
    case Op::kIfne:
    case Op::kIflt:
    case Op::kIfge:
    case Op::kIfgt:
    case Op::kIfle:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      break;
    case Op::kIfIcmpeq:
    case Op::kIfIcmpne:
    case Op::kIfIcmplt:
    case Op::kIfIcmpge:
    case Op::kIfIcmpgt:
    case Op::kIfIcmple:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      break;
    case Op::kIfAcmpeq:
    case Op::kIfAcmpne: {
      VType a, b;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &a));
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &b));
      break;
    }
    case Op::kIfnull:
    case Op::kIfnonnull: {
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      break;
    }
    case Op::kGoto:
      break;
    case Op::kIreturn:
      Check();
      if (sig_.return_type != "I") {
        return Fail(index, "ireturn from method returning " + sig_.return_type);
      }
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "int"));
      break;
    case Op::kLreturn:
      Check();
      if (sig_.return_type != "J") {
        return Fail(index, "lreturn from method returning " + sig_.return_type);
      }
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kLong, "long"));
      break;
    case Op::kAreturn: {
      Check();
      if (!IsReferenceDescriptor(sig_.return_type)) {
        return Fail(index, "areturn from method returning " + sig_.return_type);
      }
      DVM_RETURN_IF_ERROR(PopAssignable(frame, index, return_type_, sig_.return_type));
      break;
    }
    case Op::kReturn:
      Check();
      if (sig_.return_type != "V") {
        return Fail(index, "return from non-void method");
      }
      break;
    case Op::kGetstatic:
    case Op::kGetfield: {
      ClassScope::FieldSite& site = scope_.Field(cp_index);
      if (instr.op == Op::kGetfield) {
        VType obj;
        DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &obj));
      }
      DVM_RETURN_IF_ERROR(
          Replay(index, scope_.ResolveField(site, instr.op == Op::kGetstatic)));
      DVM_RETURN_IF_ERROR(Push(frame, index, site.type));
      break;
    }
    case Op::kPutstatic:
    case Op::kPutfield: {
      ClassScope::FieldSite& site = scope_.Field(cp_index);
      DVM_RETURN_IF_ERROR(PopAssignable(frame, index, site.type, site.ref.descriptor));
      if (instr.op == Op::kPutfield) {
        VType obj;
        DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &obj));
      }
      DVM_RETURN_IF_ERROR(
          Replay(index, scope_.ResolveField(site, instr.op == Op::kPutstatic)));
      break;
    }
    case Op::kInvokestatic:
    case Op::kInvokevirtual:
    case Op::kInvokespecial: {
      ClassScope::InvokeSite& site = scope_.Invoke(cp_index);
      if (site.bad_descriptor.has_value()) {
        return *site.bad_descriptor;
      }
      // Arguments are popped right-to-left.
      for (size_t p = site.params.size(); p > 0; p--) {
        DVM_RETURN_IF_ERROR(
            PopAssignable(frame, index, site.param_types[p - 1], site.params[p - 1]));
      }
      if (instr.op != Op::kInvokestatic) {
        DVM_ASSIGN_OR_RETURN(VType receiver, Pop(frame, index));
        Check();
        if (instr.op == Op::kInvokespecial && site.ref.member_name == "<init>" &&
            receiver.kind == VType::Kind::kUninit) {
          // Constructor call initializes every copy of this Uninit value.
          Check();
          if (receiver.name != site.class_id) {
            return Fail(index, "constructor class mismatch: " + Str(receiver) + " vs " +
                                   site.ref.class_name);
          }
          const VType initialized = VType::Ref(receiver.name);
          for (auto& local : frame.locals) {
            if (local == receiver) {
              local = initialized;
            }
          }
          for (auto& entry : frame.stack) {
            if (entry == receiver) {
              entry = initialized;
            }
          }
        } else if (!receiver.IsRefLike()) {
          return Fail(index, "invoke on non-reference " + Str(receiver));
        }
      }
      DVM_RETURN_IF_ERROR(
          Replay(index, scope_.ResolveMethod(site, instr.op == Op::kInvokestatic)));
      if (!site.returns_void) {
        DVM_RETURN_IF_ERROR(Push(frame, index, site.return_type));
      }
      break;
    }
    case Op::kNew: {
      const ClassScope::ClassSite& site = scope_.Class(cp_index);
      Check();
      if (!site.known) {
        AssumeClass(site.name);
      }
      DVM_RETURN_IF_ERROR(Push(
          frame, index, VType::Uninit(site.type.name, static_cast<uint32_t>(index))));
      break;
    }
    case Op::kNewarray:
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "array length"));
      DVM_RETURN_IF_ERROR(Push(frame, index,
                               VType::Ref(instr.a == static_cast<int>(ArrayKind::kLong)
                                              ? scope_.long_array_id
                                              : scope_.int_array_id)));
      break;
    case Op::kAnewarray: {
      const ClassScope::ClassSite& site = scope_.Class(cp_index);
      Check();
      if (site.name[0] != '[' && !site.known) {
        AssumeClass(site.name);
      }
      DVM_RETURN_IF_ERROR(PopKind(frame, index, VType::Kind::kInt, "array length"));
      DVM_RETURN_IF_ERROR(Push(frame, index, site.array_of));
      break;
    }
    case Op::kArraylength: {
      VType arr;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &arr));
      Check();
      if (arr.kind == VType::Kind::kRef && !types_.IsArray(arr)) {
        return Fail(index, "arraylength on non-array " + Str(arr));
      }
      DVM_RETURN_IF_ERROR(Push(frame, index, VType::Int()));
      break;
    }
    case Op::kAthrow: {
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      if (t.kind == VType::Kind::kRef) {
        switch (IsAssignable(t, scope_.throwable_id, types_)) {
          case Assignability::kYes:
            break;
          case Assignability::kNo:
            return Fail(index, "athrow of non-throwable " + Str(t));
          case Assignability::kUnknown:
            AssumeAssignable(t, scope_.throwable_id);
            break;
        }
      }
      break;
    }
    case Op::kCheckcast:
    case Op::kInstanceof: {
      const ClassScope::ClassSite& site = scope_.Class(cp_index);
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      Check();
      if (site.name[0] != '[' && !site.known) {
        AssumeClass(site.name);
      }
      DVM_RETURN_IF_ERROR(
          Push(frame, index, instr.op == Op::kCheckcast ? site.type : VType::Int()));
      break;
    }
    case Op::kMonitorenter:
    case Op::kMonitorexit: {
      VType t;
      DVM_RETURN_IF_ERROR(PopRefLike(frame, index, &t));
      break;
    }
    // Quick forms are runtime-internal rewrites; a class file carrying one is
    // hostile or corrupt and must never reach the execution engine.
    case Op::kLdcQuick:
    case Op::kGetfieldQuick:
    case Op::kPutfieldQuick:
    case Op::kGetstaticQuick:
    case Op::kPutstaticQuick:
    case Op::kInvokevirtualQuick:
    case Op::kInvokespecialQuick:
    case Op::kInvokestaticQuick:
    case Op::kNewQuick:
    case Op::kAnewarrayQuick:
    case Op::kCheckcastQuick:
    case Op::kInstanceofQuick:
      return Fail(index, "quick opcode in class file");
  }
  return out;
}

}  // namespace dvm
