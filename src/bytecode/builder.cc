#include "src/bytecode/builder.h"

#include "src/bytecode/descriptor.h"
#include "src/bytecode/stack_effect.h"

namespace dvm {

MethodBuilder::MethodBuilder(ClassBuilder* owner, uint16_t access_flags, std::string name,
                             std::string descriptor)
    : owner_(owner),
      access_flags_(access_flags),
      name_(std::move(name)),
      descriptor_(std::move(descriptor)) {}

MethodBuilder& MethodBuilder::Emit(Op op) { return Emit(op, 0, 0); }
MethodBuilder& MethodBuilder::Emit(Op op, int32_t a) { return Emit(op, a, 0); }

MethodBuilder& MethodBuilder::Emit(Op op, int32_t a, int32_t b) {
  const OpInfo* info = GetOpInfo(op);
  if (info != nullptr &&
      (info->operands == OperandKind::kU8 || info->operands == OperandKind::kLocalIncr)) {
    max_local_ = std::max(max_local_, a);
  }
  instrs_.push_back(Instr{op, a, b});
  return *this;
}

Label MethodBuilder::NewLabel() {
  Label label{static_cast<int>(label_positions_.size())};
  label_positions_.push_back(-1);
  return label;
}

MethodBuilder& MethodBuilder::Bind(Label label) {
  label_positions_[static_cast<size_t>(label.id)] = static_cast<int>(instrs_.size());
  return *this;
}

MethodBuilder& MethodBuilder::Branch(Op op, Label target) {
  pending_branches_.emplace_back(instrs_.size(), target.id);
  instrs_.push_back(Instr{op, -1, 0});
  return *this;
}

MethodBuilder& MethodBuilder::PushInt(int32_t v) {
  if (v == 0) {
    return Emit(Op::kIconst0);
  }
  if (v == 1) {
    return Emit(Op::kIconst1);
  }
  if (v >= -128 && v <= 127) {
    return Emit(Op::kBipush, v);
  }
  if (v >= -32768 && v <= 32767) {
    return Emit(Op::kSipush, v);
  }
  return Emit(Op::kLdc, owner_->pool().AddInteger(v));
}

MethodBuilder& MethodBuilder::PushLong(int64_t v) {
  return Emit(Op::kLdc, owner_->pool().AddLong(v));
}

MethodBuilder& MethodBuilder::PushString(const std::string& s) {
  return Emit(Op::kLdc, owner_->pool().AddString(s));
}

MethodBuilder& MethodBuilder::PushNull() { return Emit(Op::kAconstNull); }

MethodBuilder& MethodBuilder::LoadLocal(const std::string& type_desc, int index) {
  Op op = type_desc == "I" ? Op::kIload : type_desc == "J" ? Op::kLload : Op::kAload;
  return Emit(op, index);
}

MethodBuilder& MethodBuilder::StoreLocal(const std::string& type_desc, int index) {
  Op op = type_desc == "I" ? Op::kIstore : type_desc == "J" ? Op::kLstore : Op::kAstore;
  return Emit(op, index);
}

MethodBuilder& MethodBuilder::GetStatic(const std::string& cls, const std::string& field,
                                        const std::string& desc) {
  return Emit(Op::kGetstatic, owner_->pool().AddFieldRef(cls, field, desc));
}

MethodBuilder& MethodBuilder::PutStatic(const std::string& cls, const std::string& field,
                                        const std::string& desc) {
  return Emit(Op::kPutstatic, owner_->pool().AddFieldRef(cls, field, desc));
}

MethodBuilder& MethodBuilder::GetField(const std::string& cls, const std::string& field,
                                       const std::string& desc) {
  return Emit(Op::kGetfield, owner_->pool().AddFieldRef(cls, field, desc));
}

MethodBuilder& MethodBuilder::PutField(const std::string& cls, const std::string& field,
                                       const std::string& desc) {
  return Emit(Op::kPutfield, owner_->pool().AddFieldRef(cls, field, desc));
}

MethodBuilder& MethodBuilder::InvokeStatic(const std::string& cls, const std::string& method,
                                           const std::string& desc) {
  return Emit(Op::kInvokestatic, owner_->pool().AddMethodRef(cls, method, desc));
}

MethodBuilder& MethodBuilder::InvokeVirtual(const std::string& cls, const std::string& method,
                                            const std::string& desc) {
  return Emit(Op::kInvokevirtual, owner_->pool().AddMethodRef(cls, method, desc));
}

MethodBuilder& MethodBuilder::InvokeSpecial(const std::string& cls, const std::string& method,
                                            const std::string& desc) {
  return Emit(Op::kInvokespecial, owner_->pool().AddMethodRef(cls, method, desc));
}

MethodBuilder& MethodBuilder::New(const std::string& cls) {
  return Emit(Op::kNew, owner_->pool().AddClass(cls));
}

MethodBuilder& MethodBuilder::ANewArray(const std::string& element_cls) {
  return Emit(Op::kAnewarray, owner_->pool().AddClass(element_cls));
}

MethodBuilder& MethodBuilder::CheckCast(const std::string& cls) {
  return Emit(Op::kCheckcast, owner_->pool().AddClass(cls));
}

MethodBuilder& MethodBuilder::InstanceOf(const std::string& cls) {
  return Emit(Op::kInstanceof, owner_->pool().AddClass(cls));
}

MethodBuilder& MethodBuilder::AddHandler(Label start, Label end, Label handler,
                                         const std::string& catch_class) {
  handlers_.push_back(HandlerSpec{start, end, handler, catch_class});
  return *this;
}

Result<uint16_t> MethodBuilder::ComputeMaxStack(const std::vector<Instr>& instrs) const {
  // Exception handlers start with exactly the thrown reference on the stack.
  std::vector<uint32_t> handler_entries;
  for (const auto& h : handlers_) {
    int pos = label_positions_[static_cast<size_t>(h.handler.id)];
    if (pos >= 0) {
      handler_entries.push_back(static_cast<uint32_t>(pos));
    }
  }
  return ComputeMaxStackDepth(instrs, owner_->pool(), handler_entries, [this](size_t index) {
    return Error{ErrorCode::kInvalidArgument,
                 "builder: stack underflow at instruction " + std::to_string(index) + " in " +
                     name_};
  });
}

Status MethodBuilder::Done() {
  if (done_) {
    return Error{ErrorCode::kInvalidArgument, "MethodBuilder::Done called twice"};
  }
  done_ = true;

  // Resolve branches.
  std::vector<Instr> instrs = instrs_;
  for (const auto& [index, label_id] : pending_branches_) {
    int pos = label_positions_[static_cast<size_t>(label_id)];
    if (pos < 0) {
      return Error{ErrorCode::kInvalidArgument,
                   "unbound label in method " + name_ + descriptor_};
    }
    if (static_cast<size_t>(pos) >= instrs.size()) {
      return Error{ErrorCode::kInvalidArgument,
                   "label bound past end of method " + name_ + descriptor_};
    }
    instrs[index].a = pos;
  }

  std::vector<uint32_t> offsets;
  DVM_ASSIGN_OR_RETURN(Bytes encoded, EncodeCode(instrs, &offsets));
  DVM_ASSIGN_OR_RETURN(uint16_t max_stack, ComputeMaxStack(instrs));

  DVM_ASSIGN_OR_RETURN(MethodSignature sig, ParseMethodDescriptor(descriptor_));
  int arg_slots = sig.ArgSlots() + ((access_flags_ & AccessFlags::kStatic) != 0 ? 0 : 1);
  uint16_t max_locals = static_cast<uint16_t>(std::max(max_local_ + 1, arg_slots));

  CodeAttr code;
  code.max_stack = max_stack;
  code.max_locals = max_locals;
  code.code = std::move(encoded);
  for (const auto& h : handlers_) {
    int start = label_positions_[static_cast<size_t>(h.start.id)];
    int end = label_positions_[static_cast<size_t>(h.end.id)];
    int handler = label_positions_[static_cast<size_t>(h.handler.id)];
    if (start < 0 || end < 0 || handler < 0) {
      return Error{ErrorCode::kInvalidArgument, "unbound handler label in " + name_};
    }
    ExceptionHandler entry;
    entry.start_pc = static_cast<uint16_t>(offsets[static_cast<size_t>(start)]);
    entry.end_pc = static_cast<uint16_t>(offsets[static_cast<size_t>(end)]);
    entry.handler_pc = static_cast<uint16_t>(offsets[static_cast<size_t>(handler)]);
    entry.catch_type =
        h.catch_class.empty() ? 0 : owner_->pool().AddClass(h.catch_class);
    code.handlers.push_back(entry);
  }

  MethodInfo method;
  method.access_flags = access_flags_;
  method.name = name_;
  method.descriptor = descriptor_;
  method.code = std::move(code);
  owner_->class_file_.methods.push_back(std::move(method));
  return Status::Ok();
}

ClassBuilder::ClassBuilder(const std::string& name, const std::string& super_name,
                           uint16_t access_flags) {
  class_file_.access_flags = access_flags;
  class_file_.this_class = class_file_.pool().AddClass(name);
  class_file_.super_class = super_name.empty() ? 0 : class_file_.pool().AddClass(super_name);
}

ClassBuilder& ClassBuilder::AddInterface(const std::string& iface_name) {
  class_file_.interfaces.push_back(class_file_.pool().AddClass(iface_name));
  return *this;
}

ClassBuilder& ClassBuilder::AddField(uint16_t access_flags, const std::string& name,
                                     const std::string& descriptor) {
  FieldInfo f;
  f.access_flags = access_flags;
  f.name = name;
  f.descriptor = descriptor;
  class_file_.fields.push_back(std::move(f));
  return *this;
}

MethodBuilder& ClassBuilder::AddMethod(uint16_t access_flags, const std::string& name,
                                       const std::string& descriptor) {
  pending_methods_.emplace_back(new MethodBuilder(this, access_flags, name, descriptor));
  return *pending_methods_.back();
}

ClassBuilder& ClassBuilder::AddNativeMethod(uint16_t access_flags, const std::string& name,
                                            const std::string& descriptor) {
  MethodInfo m;
  m.access_flags = static_cast<uint16_t>(access_flags | AccessFlags::kNative);
  m.name = name;
  m.descriptor = descriptor;
  class_file_.methods.push_back(std::move(m));
  return *this;
}

ClassBuilder& ClassBuilder::AddAbstractMethod(uint16_t access_flags, const std::string& name,
                                              const std::string& descriptor) {
  MethodInfo m;
  m.access_flags = static_cast<uint16_t>(access_flags | AccessFlags::kAbstract);
  m.name = name;
  m.descriptor = descriptor;
  class_file_.methods.push_back(std::move(m));
  return *this;
}

ClassBuilder& ClassBuilder::AddDefaultConstructor() {
  std::string super = class_file_.super_name();
  MethodBuilder& ctor = AddMethod(AccessFlags::kPublic, "<init>", "()V");
  ctor.Emit(Op::kAload, 0);
  if (!super.empty()) {
    ctor.InvokeSpecial(super, "<init>", "()V");
  } else {
    ctor.Emit(Op::kPop);
  }
  ctor.Emit(Op::kReturn);
  return *this;
}

Result<ClassFile> ClassBuilder::Build() {
  if (built_) {
    return Error{ErrorCode::kInvalidArgument, "ClassBuilder::Build called twice"};
  }
  built_ = true;
  for (auto& mb : pending_methods_) {
    if (!mb->done_) {
      DVM_RETURN_IF_ERROR(mb->Done());
    }
  }
  pending_methods_.clear();
  return std::move(class_file_);
}

}  // namespace dvm
