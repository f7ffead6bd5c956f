#include "src/bytecode/stack_effect.h"

#include "src/bytecode/descriptor.h"

namespace dvm {
namespace {

// Pops/pushes for instructions with pool-dependent effects.
struct Effect {
  int pops;
  int pushes;
};

Result<Effect> VariableEffect(const Instr& instr, const ConstantPool& pool) {
  uint16_t index = static_cast<uint16_t>(instr.a);
  switch (instr.op) {
    case Op::kGetstatic:
      return Effect{0, 1};
    case Op::kPutstatic:
      return Effect{1, 0};
    case Op::kGetfield:
      return Effect{1, 1};
    case Op::kPutfield:
      return Effect{2, 0};
    case Op::kInvokestatic:
    case Op::kInvokevirtual:
    case Op::kInvokespecial: {
      DVM_ASSIGN_OR_RETURN(MemberRef ref, pool.MethodRefAt(index));
      DVM_ASSIGN_OR_RETURN(MethodSignature sig, ParseMethodDescriptor(ref.descriptor));
      int pops = sig.ArgSlots() + (instr.op == Op::kInvokestatic ? 0 : 1);
      int pushes = sig.ReturnsVoid() ? 0 : 1;
      return Effect{pops, pushes};
    }
    default:
      return Error{ErrorCode::kInternal, "not a variable-stack opcode"};
  }
}

// Fixed pop counts for instructions whose OpInfo carries only the net delta.
int FixedPops(Op op) {
  switch (op) {
    case Op::kIstore:
    case Op::kLstore:
    case Op::kAstore:
    case Op::kPop:
    case Op::kIneg:
    case Op::kLneg:
    case Op::kI2l:
    case Op::kL2i:
    case Op::kIreturn:
    case Op::kLreturn:
    case Op::kAreturn:
    case Op::kAthrow:
    case Op::kMonitorenter:
    case Op::kMonitorexit:
    case Op::kIfeq:
    case Op::kIfne:
    case Op::kIflt:
    case Op::kIfge:
    case Op::kIfgt:
    case Op::kIfle:
    case Op::kIfnull:
    case Op::kIfnonnull:
    case Op::kNewarray:
    case Op::kAnewarray:
    case Op::kArraylength:
    case Op::kCheckcast:
    case Op::kInstanceof:
    case Op::kDup:
      return 1;
    case Op::kIaload:
    case Op::kLaload:
    case Op::kAaload:
    case Op::kIadd:
    case Op::kLadd:
    case Op::kIsub:
    case Op::kLsub:
    case Op::kImul:
    case Op::kLmul:
    case Op::kIdiv:
    case Op::kLdiv:
    case Op::kIrem:
    case Op::kLrem:
    case Op::kIshl:
    case Op::kIshr:
    case Op::kIushr:
    case Op::kIand:
    case Op::kIor:
    case Op::kIxor:
    case Op::kLcmp:
    case Op::kSwap:
    case Op::kDupX1:
    case Op::kIfIcmpeq:
    case Op::kIfIcmpne:
    case Op::kIfIcmplt:
    case Op::kIfIcmpge:
    case Op::kIfIcmpgt:
    case Op::kIfIcmple:
    case Op::kIfAcmpeq:
    case Op::kIfAcmpne:
      return 2;
    case Op::kIastore:
    case Op::kLastore:
    case Op::kAastore:
      return 3;
    default:
      return 0;
  }
}

}  // namespace

Result<int> StackDelta(const Instr& instr, const ConstantPool& pool) {
  const OpInfo* info = GetOpInfo(instr.op);
  if (info == nullptr) {
    return Error{ErrorCode::kInternal, "unknown opcode in StackDelta"};
  }
  if (!info->variable_stack) {
    return info->stack_delta;
  }
  DVM_ASSIGN_OR_RETURN(Effect e, VariableEffect(instr, pool));
  return e.pushes - e.pops;
}

Result<int> StackPops(const Instr& instr, const ConstantPool& pool) {
  const OpInfo* info = GetOpInfo(instr.op);
  if (info == nullptr) {
    return Error{ErrorCode::kInternal, "unknown opcode in StackPops"};
  }
  if (info->variable_stack) {
    DVM_ASSIGN_OR_RETURN(Effect e, VariableEffect(instr, pool));
    return e.pops;
  }
  return FixedPops(instr.op);
}

}  // namespace dvm
