#include "src/rewrite/method_editor.h"

#include <algorithm>

namespace dvm {

Result<MethodEditor> MethodEditor::Open(ClassFile* cls, MethodInfo* method,
                                        const ClassProof* proof) {
  if (!method->code.has_value()) {
    return Error{ErrorCode::kInvalidArgument,
                 "cannot edit bodyless method " + method->Id()};
  }
  size_t position = 0;
  while (position < cls->methods.size() && &cls->methods[position] != method) {
    position++;
  }
  if (position == cls->methods.size()) {
    return Error{ErrorCode::kInvalidArgument, method->Id() + " is not a method of " + cls->name()};
  }
  MethodEditor editor(cls, method, static_cast<uint32_t>(position));
  if (proof != nullptr) {
    // Proved bodies are kept in method order.
    auto body = std::lower_bound(
        proof->bodies.begin(), proof->bodies.end(), position,
        [](const ClassProof::Body& b, size_t m) { return b.method < m; });
    if (body != proof->bodies.end() && body->method == position) {
      editor.proved_ = &*body;
    }
  }
  return editor;
}

Status MethodEditor::Decode() {
  decoded_ = true;
  const CodeAttr& attr = *method_->code;
  DVM_ASSIGN_OR_RETURN(DecodedCode decoded, DecodeCode(attr.code));
  // The body goes behind the code inserted at its entry so far, so its
  // branches and handlers move by that code's length.
  const uint32_t entry = static_cast<uint32_t>(code_.size());
  const OffsetIndex& index_of = decoded.off_to_ix;
  std::vector<HandlerIx> handlers;
  handlers.reserve(attr.handlers.size());
  for (const auto& h : attr.handlers) {
    int32_t start = index_of.At(h.start_pc);
    int32_t end = index_of.At(h.end_pc);
    int32_t handler = index_of.At(h.handler_pc);
    if (start < 0 || end < 0 || handler < 0) {
      return Error{ErrorCode::kParseError,
                   "handler not on instruction boundary in " + method_->Id()};
    }
    handlers.push_back(HandlerIx{static_cast<uint32_t>(start) + entry,
                                 static_cast<uint32_t>(end) + entry,
                                 static_cast<uint32_t>(handler) + entry, h.catch_type});
  }
  handlers_ = std::move(handlers);
  std::vector<Instr>& body = decoded.instrs;
  if (entry > 0) {
    for (Instr& instr : body) {
      if (IsBranch(instr.op)) {
        instr.a += static_cast<int32_t>(entry);
      }
    }
    body.insert(body.begin(), code_.begin(), code_.end());
  }
  code_ = std::move(body);
  return Status::Ok();
}

const std::vector<Instr>& MethodEditor::code() {
  if (!decoded_) {
    decode_status_ = Decode();
    if (!decode_status_.ok()) {
      code_.clear();
    }
  }
  return code_;
}

ConstantPool& MethodEditor::pool() { return cls_->pool(); }

void MethodEditor::ShiftTargets(size_t at, size_t count) {
  for (auto& instr : code_) {
    if (IsBranch(instr.op) && instr.a >= static_cast<int32_t>(at)) {
      instr.a += static_cast<int32_t>(count);
    }
  }
  for (auto& h : handlers_) {
    if (h.start_ix >= at) {
      h.start_ix += static_cast<uint32_t>(count);
    }
    if (h.end_ix >= at) {
      h.end_ix += static_cast<uint32_t>(count);
    }
    if (h.handler_ix >= at) {
      h.handler_ix += static_cast<uint32_t>(count);
    }
  }
}

Status MethodEditor::InsertBefore(size_t index, const std::vector<Instr>& instrs) {
  DVM_RETURN_IF_ERROR(Insert(index, instrs));
  if (!instrs.empty()) {
    edits_.push_back(
        {position_, static_cast<uint32_t>(index), static_cast<uint32_t>(instrs.size())});
  }
  return Status::Ok();
}

Status MethodEditor::Insert(size_t index, const std::vector<Instr>& instrs) {
  if (index != 0) {
    code();
  }
  DVM_RETURN_IF_ERROR(decode_status_);
  if (index > code_.size()) {
    return Error{ErrorCode::kInvalidArgument, "insert position out of range"};
  }
  if (instrs.empty()) {
    return Status::Ok();
  }
  // Pre-existing branches pointing at or beyond `index` move with their
  // instructions. The caller's new branches are already in final coordinates.
  ShiftTargets(index, instrs.size());
  for (const auto& instr : instrs) {
    const OpInfo* info = GetOpInfo(instr.op);
    if (info != nullptr &&
        (info->operands == OperandKind::kU8 || info->operands == OperandKind::kLocalIncr)) {
      max_extra_local_ = std::max(max_extra_local_, instr.a);
    }
  }
  code_.insert(code_.begin() + static_cast<long>(index), instrs.begin(), instrs.end());
  modified_ = true;
  return Status::Ok();
}

Status MethodEditor::Replace(size_t index, const std::vector<Instr>& instrs) {
  code();
  DVM_RETURN_IF_ERROR(decode_status_);
  if (index >= code_.size() || instrs.empty()) {
    return Error{ErrorCode::kInvalidArgument, "bad replace position"};
  }
  code_[index] = instrs[0];
  modified_ = true;
  if (instrs.size() > 1) {
    return Insert(index + 1, std::vector<Instr>(instrs.begin() + 1, instrs.end()));
  }
  return Status::Ok();
}

Result<bool> MethodEditor::Splice() {
  CodeAttr& attr = *method_->code;
  if (proved_ == nullptr || attr.max_stack < proved_->max_stack ||
      !ProvedBodyOffset(*proved_, attr).has_value()) {
    return false;
  }
  Result<uint16_t> depth = ComputeEntryCodeDepth(code_, cls_->pool());
  if (!depth.ok()) {
    return false;
  }
  // EncodeCode resolves a branch only to an instruction it encodes, so a
  // one-byte nop stands in for the body's first instruction, which entry code
  // branches to (the guard's skip), and its byte is dropped.
  code_.push_back({Op::kNop, 0, 0});
  Result<Bytes> encoded = EncodeCode(code_);
  code_.pop_back();
  if (!encoded.ok()) {
    return encoded.error();
  }
  Bytes& bytes = *encoded;
  bytes.pop_back();

  // Handler pcs are u16 on the wire; code grown past 64 KiB cannot keep a
  // handler whose range or entry moved beyond it.
  const uint32_t shift = static_cast<uint32_t>(bytes.size());
  for (const auto& h : attr.handlers) {
    if (h.start_pc + shift > 0xFFFF || h.end_pc + shift > 0xFFFF ||
        h.handler_pc + shift > 0xFFFF) {
      return Error{ErrorCode::kCapacity,
                   "exception handler pc exceeds 65535 in " + method_->Id()};
    }
  }
  for (auto& h : attr.handlers) {
    h.start_pc = static_cast<uint16_t>(h.start_pc + shift);
    h.end_pc = static_cast<uint16_t>(h.end_pc + shift);
    h.handler_pc = static_cast<uint16_t>(h.handler_pc + shift);
  }
  bytes.insert(bytes.end(), attr.code.begin(), attr.code.end());
  attr.code = std::move(bytes);
  attr.max_stack = std::max(attr.max_stack, *depth);
  return true;
}

Status MethodEditor::Commit(std::vector<CodeEdit>* edits) {
  DVM_RETURN_IF_ERROR(decode_status_);
  if (!modified_) {
    return Status::Ok();
  }
  bool spliced = false;
  if (!decoded_) {
    DVM_ASSIGN_OR_RETURN(spliced, Splice());
    if (!spliced) {
      code();
      DVM_RETURN_IF_ERROR(decode_status_);
    }
  }
  CodeAttr& attr = *method_->code;
  if (!spliced) {
    std::vector<uint32_t> offsets;
    DVM_ASSIGN_OR_RETURN(Bytes encoded, EncodeCode(code_, &offsets));

    std::vector<uint32_t> handler_entries;
    std::vector<ExceptionHandler> new_handlers;
    for (const auto& h : handlers_) {
      // As on the splice path: no handler pc may move past 65535.
      if (offsets[h.start_ix] > 0xFFFF || offsets[h.end_ix] > 0xFFFF ||
          offsets[h.handler_ix] > 0xFFFF) {
        return Error{ErrorCode::kCapacity,
                     "exception handler pc exceeds 65535 in " + method_->Id()};
      }
      ExceptionHandler entry;
      entry.start_pc = static_cast<uint16_t>(offsets[h.start_ix]);
      entry.end_pc = static_cast<uint16_t>(offsets[h.end_ix]);
      entry.handler_pc = static_cast<uint16_t>(offsets[h.handler_ix]);
      entry.catch_type = h.catch_type;
      new_handlers.push_back(entry);
      handler_entries.push_back(h.handler_ix);
    }

    DVM_ASSIGN_OR_RETURN(uint16_t max_stack,
                         ComputeMaxStackDepth(code_, cls_->pool(), handler_entries));
    attr.code = std::move(encoded);
    attr.handlers = std::move(new_handlers);
    attr.max_stack = std::max(attr.max_stack, max_stack);
  }
  attr.max_locals = std::max(attr.max_locals,
                             static_cast<uint16_t>(max_extra_local_ + 1));
  if (edits != nullptr) {
    edits->insert(edits->end(), edits_.begin(), edits_.end());
  }
  return Status::Ok();
}

uint16_t AppendForwardingCall(const MethodSignature& sig, bool is_static, Op invoke,
                              uint16_t target, std::vector<Instr>* body) {
  int slot = 0;
  if (!is_static) {
    body->push_back({Op::kAload, slot++, 0});
  }
  for (const auto& param : sig.params) {
    Op load = param == "I" ? Op::kIload : param == "J" ? Op::kLload : Op::kAload;
    body->push_back({load, slot++, 0});
  }
  body->push_back({invoke, target, 0});
  if (sig.ReturnsVoid()) {
    body->push_back({Op::kReturn, 0, 0});
  } else if (sig.return_type == "I") {
    body->push_back({Op::kIreturn, 0, 0});
  } else if (sig.return_type == "J") {
    body->push_back({Op::kLreturn, 0, 0});
  } else {
    body->push_back({Op::kAreturn, 0, 0});
  }
  return static_cast<uint16_t>(slot);
}

Result<MethodInfo> AssembleMethod(uint16_t access_flags, const std::string& name,
                                  const std::string& descriptor,
                                  const std::vector<Instr>& body, uint16_t max_locals,
                                  const ConstantPool& pool) {
  MethodInfo method;
  method.access_flags = access_flags;
  method.name = name;
  method.descriptor = descriptor;
  CodeAttr code;
  DVM_ASSIGN_OR_RETURN(code.code, EncodeCode(body));
  DVM_ASSIGN_OR_RETURN(code.max_stack, ComputeMaxStackDepth(body, pool, {}));
  code.max_locals = max_locals;
  method.code = std::move(code);
  return method;
}

}  // namespace dvm
