#include "src/bytecode/stack_effect.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>

namespace dvm {

Result<MethodShape> StackEffects::InvokeShape(uint16_t index) {
  Memo& memo = memo_[index % memo_.size()];
  if (memo.index == index && index != 0) {
    return memo.shape;
  }
  const ConstantPool& pool = pool_;
  if (!pool.HasTag(index, CpTag::kMethodRef)) {
    return pool.MethodRefAt(index).error();
  }
  const CpEntry& ref = pool.entry(index);
  if (!pool.HasTag(ref.ref1, CpTag::kClass) ||
      !pool.HasTag(pool.entry(ref.ref1).ref1, CpTag::kUtf8) ||
      !pool.HasTag(ref.ref2, CpTag::kUtf8) || !pool.HasTag(ref.ref3, CpTag::kUtf8)) {
    return pool.MethodRefAt(index).error();
  }
  const std::string& descriptor = pool.entry(ref.ref3).utf8;
  std::optional<MethodShape> shape = ScanMethodDescriptor(descriptor);
  if (!shape.has_value()) {
    return ParseMethodDescriptor(descriptor).error();
  }
  memo = Memo{index, *shape};
  return *shape;
}

Result<StackEffect> StackEffects::VariableOf(const Instr& instr) {
  if (GetOpInfo(instr.op) == nullptr) {
    return Error{ErrorCode::kInternal, "unknown opcode in StackEffects"};
  }
  switch (instr.op) {
    case Op::kGetstatic:
      return StackEffect{0, 1};
    case Op::kPutstatic:
      return StackEffect{1, 0};
    case Op::kGetfield:
      return StackEffect{1, 1};
    case Op::kPutfield:
      return StackEffect{2, 0};
    case Op::kInvokestatic:
    case Op::kInvokevirtual:
    case Op::kInvokespecial: {
      DVM_ASSIGN_OR_RETURN(MethodShape shape, InvokeShape(static_cast<uint16_t>(instr.a)));
      return StackEffect{shape.arg_slots + (instr.op == Op::kInvokestatic ? 0 : 1),
                         shape.returns_void ? 0 : 1};
    }
    default:
      return Error{ErrorCode::kInternal, "not a variable-stack opcode"};
  }
}

namespace {

// ComputeMaxStackDepth's walk. With `entry_code`, index instrs.size() is the
// body the code is placed in front of, which must be handed an empty stack.
Result<uint16_t> WalkMaxStackDepth(const std::vector<Instr>& instrs, const ConstantPool& pool,
                                   const std::vector<uint32_t>& handler_entries,
                                   const std::function<Error(size_t)>& underflow,
                                   bool entry_code) {
  constexpr int kMaxDepth = 0xFFFF;
  if (instrs.empty()) {
    return static_cast<uint16_t>(0);
  }
  std::vector<int> depth_at(instrs.size(), -1);
  StackEffects effects(pool);
  // A FIFO queue: entries before `head` are done. Visit order decides which
  // error a malformed body reports first, so it stays breadth-first. Each
  // instruction is queued at most once.
  std::vector<size_t> work;
  work.reserve(instrs.size());
  size_t head = 0;
  // Every path into an instruction must arrive at one depth (the JVM rule), so
  // each instruction is walked once: a merge at another depth fails at once
  // instead of rescheduling the instruction deeper, which a loop that grows
  // the stack would do on every trip.
  auto schedule = [&](size_t index, int depth) -> Status {
    if (index >= instrs.size()) {
      if (entry_code && (index > instrs.size() || depth != 0)) {
        return Error{ErrorCode::kInvalidArgument,
                     "entry code does not hand the body an empty stack"};
      }
      return Status::Ok();
    }
    if (depth_at[index] < 0) {
      depth_at[index] = depth;
      work.push_back(index);
    } else if (depth_at[index] != depth) {
      return Error{ErrorCode::kInvalidArgument,
                   "inconsistent stack depth at instruction " + std::to_string(index)};
    }
    return Status::Ok();
  };
  DVM_RETURN_IF_ERROR(schedule(0, 0));
  for (uint32_t entry : handler_entries) {
    DVM_RETURN_IF_ERROR(schedule(entry, 1));
  }

  int max_depth = 0;
  while (head < work.size()) {
    size_t index = work[head++];
    int depth = depth_at[index];
    for (;;) {
      DVM_ASSIGN_OR_RETURN(const StackEffect e, effects.Of(instrs[index]));
      if (depth < e.pops) {
        if (underflow) {
          return underflow(index);
        }
        return Error{ErrorCode::kInvalidArgument,
                     "rewritten code underflows stack at instruction " + std::to_string(index)};
      }
      const int next = depth + e.delta();
      if (next > kMaxDepth) {
        return Error{ErrorCode::kCapacity, "max stack exceeds 65535"};
      }
      max_depth = std::max(max_depth, std::max(depth, next));
      const Op op = instrs[index].op;
      if (IsBranch(op)) {
        DVM_RETURN_IF_ERROR(schedule(static_cast<size_t>(instrs[index].a), next));
      }
      if (IsTerminator(op)) {
        break;
      }
      // With nothing else queued, a fall-through entry would be the next one
      // popped: step to it directly, in the same order.
      if (head == work.size() && index + 1 < instrs.size() && depth_at[index + 1] < 0) {
        index++;
        depth_at[index] = next;
        depth = next;
        continue;
      }
      DVM_RETURN_IF_ERROR(schedule(index + 1, next));
      break;
    }
  }
  return static_cast<uint16_t>(max_depth);
}

}  // namespace

Result<uint16_t> ComputeMaxStackDepth(const std::vector<Instr>& instrs,
                                      const ConstantPool& pool,
                                      const std::vector<uint32_t>& handler_entries,
                                      const std::function<Error(size_t)>& underflow) {
  return WalkMaxStackDepth(instrs, pool, handler_entries, underflow, /*entry_code=*/false);
}

Result<uint16_t> ComputeEntryCodeDepth(const std::vector<Instr>& instrs,
                                       const ConstantPool& pool) {
  return WalkMaxStackDepth(instrs, pool, {}, nullptr, /*entry_code=*/true);
}

}  // namespace dvm
