#include "src/rewrite/method_editor.h"

#include <deque>

#include "src/bytecode/stack_effect.h"

namespace dvm {

Result<uint16_t> ComputeMaxStackDepth(const std::vector<Instr>& instrs,
                                      const ConstantPool& pool,
                                      const std::vector<uint32_t>& handler_entries) {
  if (instrs.empty()) {
    return static_cast<uint16_t>(0);
  }
  std::vector<int> depth_at(instrs.size(), -1);
  std::deque<size_t> work;
  auto schedule = [&](size_t index, int depth) {
    if (index >= instrs.size()) {
      return;
    }
    if (depth_at[index] < depth) {
      depth_at[index] = depth;
      work.push_back(index);
    }
  };
  schedule(0, 0);
  for (uint32_t entry : handler_entries) {
    schedule(entry, 1);
  }

  int max_depth = 0;
  while (!work.empty()) {
    size_t index = work.front();
    work.pop_front();
    int depth = depth_at[index];
    const Instr& instr = instrs[index];
    DVM_ASSIGN_OR_RETURN(int delta, StackDelta(instr, pool));
    DVM_ASSIGN_OR_RETURN(int pops, StackPops(instr, pool));
    if (depth < pops) {
      return Error{ErrorCode::kInvalidArgument,
                   "rewritten code underflows stack at instruction " + std::to_string(index)};
    }
    int next = depth + delta;
    max_depth = std::max(max_depth, std::max(depth, next));
    if (IsBranch(instr.op)) {
      schedule(static_cast<size_t>(instr.a), next);
    }
    if (!IsTerminator(instr.op)) {
      schedule(index + 1, next);
    }
  }
  if (max_depth > 0xFFFF) {
    return Error{ErrorCode::kCapacity, "max stack exceeds 65535"};
  }
  return static_cast<uint16_t>(max_depth);
}

Result<MethodEditor> MethodEditor::Open(ClassFile* cls, MethodInfo* method) {
  if (!method->code.has_value()) {
    return Error{ErrorCode::kInvalidArgument,
                 "cannot edit bodyless method " + method->Id()};
  }
  MethodEditor editor(cls, method);
  DVM_ASSIGN_OR_RETURN(editor.code_, DecodeCode(method->code->code));

  const OffsetIndex index_of(CodeByteOffsets(editor.code_));
  for (const auto& h : method->code->handlers) {
    int32_t start = index_of.At(h.start_pc);
    int32_t end = index_of.At(h.end_pc);
    int32_t handler = index_of.At(h.handler_pc);
    if (start < 0 || end < 0 || handler < 0) {
      return Error{ErrorCode::kParseError,
                   "handler not on instruction boundary in " + method->Id()};
    }
    editor.handlers_.push_back(HandlerIx{static_cast<uint32_t>(start),
                                         static_cast<uint32_t>(end),
                                         static_cast<uint32_t>(handler), h.catch_type});
  }
  return editor;
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
  if (index >= code_.size() || instrs.empty()) {
    return Error{ErrorCode::kInvalidArgument, "bad replace position"};
  }
  code_[index] = instrs[0];
  modified_ = true;
  if (instrs.size() > 1) {
    return InsertBefore(index + 1, std::vector<Instr>(instrs.begin() + 1, instrs.end()));
  }
  return Status::Ok();
}

Status MethodEditor::Commit() {
  if (!modified_) {
    return Status::Ok();
  }
  DVM_ASSIGN_OR_RETURN(Bytes encoded, EncodeCode(code_));

  std::vector<uint32_t> offsets = CodeByteOffsets(code_);
  std::vector<uint32_t> handler_entries;
  std::vector<ExceptionHandler> new_handlers;
  for (const auto& h : handlers_) {
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

  CodeAttr& attr = *method_->code;
  attr.code = std::move(encoded);
  attr.handlers = std::move(new_handlers);
  attr.max_stack = std::max(attr.max_stack, max_stack);
  attr.max_locals = std::max(attr.max_locals,
                             static_cast<uint16_t>(max_extra_local_ + 1));
  return Status::Ok();
}

}  // namespace dvm
