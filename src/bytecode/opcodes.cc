#include "src/bytecode/opcodes.h"

#include <array>

namespace dvm {
namespace {

struct Entry {
  Op op;
  OpInfo info;
};

// Stack deltas are in slots; longs take one slot in the DVM (see opcodes.h).
constexpr Entry kTable[] = {
    {Op::kNop, {"nop", OperandKind::kNone, 0, false}},
    {Op::kAconstNull, {"aconst_null", OperandKind::kNone, 1, false}},
    {Op::kIconst0, {"iconst_0", OperandKind::kNone, 1, false}},
    {Op::kIconst1, {"iconst_1", OperandKind::kNone, 1, false}},
    {Op::kBipush, {"bipush", OperandKind::kI8, 1, false}},
    {Op::kSipush, {"sipush", OperandKind::kI16, 1, false}},
    {Op::kLdc, {"ldc", OperandKind::kCpIndex, 1, false}},
    {Op::kIload, {"iload", OperandKind::kU8, 1, false}},
    {Op::kLload, {"lload", OperandKind::kU8, 1, false}},
    {Op::kAload, {"aload", OperandKind::kU8, 1, false}},
    {Op::kIstore, {"istore", OperandKind::kU8, -1, false}},
    {Op::kLstore, {"lstore", OperandKind::kU8, -1, false}},
    {Op::kAstore, {"astore", OperandKind::kU8, -1, false}},
    {Op::kIaload, {"iaload", OperandKind::kNone, -1, false}},
    {Op::kLaload, {"laload", OperandKind::kNone, -1, false}},
    {Op::kAaload, {"aaload", OperandKind::kNone, -1, false}},
    {Op::kIastore, {"iastore", OperandKind::kNone, -3, false}},
    {Op::kLastore, {"lastore", OperandKind::kNone, -3, false}},
    {Op::kAastore, {"aastore", OperandKind::kNone, -3, false}},
    {Op::kPop, {"pop", OperandKind::kNone, -1, false}},
    {Op::kDup, {"dup", OperandKind::kNone, 1, false}},
    {Op::kDupX1, {"dup_x1", OperandKind::kNone, 1, false}},
    {Op::kSwap, {"swap", OperandKind::kNone, 0, false}},
    {Op::kIadd, {"iadd", OperandKind::kNone, -1, false}},
    {Op::kLadd, {"ladd", OperandKind::kNone, -1, false}},
    {Op::kIsub, {"isub", OperandKind::kNone, -1, false}},
    {Op::kLsub, {"lsub", OperandKind::kNone, -1, false}},
    {Op::kImul, {"imul", OperandKind::kNone, -1, false}},
    {Op::kLmul, {"lmul", OperandKind::kNone, -1, false}},
    {Op::kIdiv, {"idiv", OperandKind::kNone, -1, false}},
    {Op::kLdiv, {"ldiv", OperandKind::kNone, -1, false}},
    {Op::kIrem, {"irem", OperandKind::kNone, -1, false}},
    {Op::kLrem, {"lrem", OperandKind::kNone, -1, false}},
    {Op::kIneg, {"ineg", OperandKind::kNone, 0, false}},
    {Op::kLneg, {"lneg", OperandKind::kNone, 0, false}},
    {Op::kIshl, {"ishl", OperandKind::kNone, -1, false}},
    {Op::kIshr, {"ishr", OperandKind::kNone, -1, false}},
    {Op::kIushr, {"iushr", OperandKind::kNone, -1, false}},
    {Op::kIand, {"iand", OperandKind::kNone, -1, false}},
    {Op::kIor, {"ior", OperandKind::kNone, -1, false}},
    {Op::kIxor, {"ixor", OperandKind::kNone, -1, false}},
    {Op::kIinc, {"iinc", OperandKind::kLocalIncr, 0, false}},
    {Op::kI2l, {"i2l", OperandKind::kNone, 0, false}},
    {Op::kL2i, {"l2i", OperandKind::kNone, 0, false}},
    {Op::kLcmp, {"lcmp", OperandKind::kNone, -1, false}},
    {Op::kIfeq, {"ifeq", OperandKind::kBranch16, -1, false}},
    {Op::kIfne, {"ifne", OperandKind::kBranch16, -1, false}},
    {Op::kIflt, {"iflt", OperandKind::kBranch16, -1, false}},
    {Op::kIfge, {"ifge", OperandKind::kBranch16, -1, false}},
    {Op::kIfgt, {"ifgt", OperandKind::kBranch16, -1, false}},
    {Op::kIfle, {"ifle", OperandKind::kBranch16, -1, false}},
    {Op::kIfIcmpeq, {"if_icmpeq", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmpne, {"if_icmpne", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmplt, {"if_icmplt", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmpge, {"if_icmpge", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmpgt, {"if_icmpgt", OperandKind::kBranch16, -2, false}},
    {Op::kIfIcmple, {"if_icmple", OperandKind::kBranch16, -2, false}},
    {Op::kIfAcmpeq, {"if_acmpeq", OperandKind::kBranch16, -2, false}},
    {Op::kIfAcmpne, {"if_acmpne", OperandKind::kBranch16, -2, false}},
    {Op::kGoto, {"goto", OperandKind::kBranch16, 0, false}},
    {Op::kIreturn, {"ireturn", OperandKind::kNone, -1, false}},
    {Op::kLreturn, {"lreturn", OperandKind::kNone, -1, false}},
    {Op::kAreturn, {"areturn", OperandKind::kNone, -1, false}},
    {Op::kReturn, {"return", OperandKind::kNone, 0, false}},
    {Op::kGetstatic, {"getstatic", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kPutstatic, {"putstatic", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kGetfield, {"getfield", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kPutfield, {"putfield", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokevirtual, {"invokevirtual", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokespecial, {"invokespecial", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokestatic, {"invokestatic", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kNew, {"new", OperandKind::kCpIndex, 1, false}},
    {Op::kNewarray, {"newarray", OperandKind::kArrayKind, 0, false}},
    {Op::kAnewarray, {"anewarray", OperandKind::kCpIndex, 0, false}},
    {Op::kArraylength, {"arraylength", OperandKind::kNone, 0, false}},
    {Op::kAthrow, {"athrow", OperandKind::kNone, -1, false}},
    {Op::kCheckcast, {"checkcast", OperandKind::kCpIndex, 0, false}},
    {Op::kInstanceof, {"instanceof", OperandKind::kCpIndex, 0, false}},
    {Op::kMonitorenter, {"monitorenter", OperandKind::kNone, -1, false}},
    {Op::kMonitorexit, {"monitorexit", OperandKind::kNone, -1, false}},
    {Op::kIfnull, {"ifnull", OperandKind::kBranch16, -1, false}},
    {Op::kIfnonnull, {"ifnonnull", OperandKind::kBranch16, -1, false}},
    // Quick forms mirror their base form's operand shape so decoded-stream
    // tooling (disassembly of prepared code) stays uniform. DecodeCode rejects
    // them before consulting this table, so they remain wire-invalid.
    {Op::kLdcQuick, {"ldc_quick", OperandKind::kCpIndex, 1, false}},
    {Op::kGetfieldQuick, {"getfield_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kPutfieldQuick, {"putfield_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kGetstaticQuick, {"getstatic_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kPutstaticQuick, {"putstatic_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokevirtualQuick,
     {"invokevirtual_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokespecialQuick,
     {"invokespecial_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kInvokestaticQuick,
     {"invokestatic_quick", OperandKind::kCpIndex, kVariableStack, true}},
    {Op::kNewQuick, {"new_quick", OperandKind::kCpIndex, 1, false}},
    {Op::kAnewarrayQuick, {"anewarray_quick", OperandKind::kCpIndex, 0, false}},
    {Op::kCheckcastQuick, {"checkcast_quick", OperandKind::kCpIndex, 0, false}},
    {Op::kInstanceofQuick, {"instanceof_quick", OperandKind::kCpIndex, 0, false}},
};

// kTable indexed by opcode byte; nullptr for the unassigned bytes.
constexpr std::array<const OpInfo*, 256> kByByte = [] {
  std::array<const OpInfo*, 256> t{};
  for (const auto& e : kTable) {
    t[static_cast<uint8_t>(e.op)] = &e.info;
  }
  return t;
}();

}  // namespace

const OpInfo* GetOpInfo(Op op) { return kByByte[static_cast<uint8_t>(op)]; }

int InstructionLength(Op op) {
  const OpInfo* info = GetOpInfo(op);
  if (info == nullptr) {
    return -1;
  }
  switch (info->operands) {
    case OperandKind::kNone:
      return 1;
    case OperandKind::kI8:
    case OperandKind::kU8:
    case OperandKind::kArrayKind:
      return 2;
    case OperandKind::kI16:
    case OperandKind::kCpIndex:
    case OperandKind::kBranch16:
    case OperandKind::kLocalIncr:
      return 3;
  }
  return -1;
}

bool IsBranch(Op op) {
  const OpInfo* info = GetOpInfo(op);
  return info != nullptr && info->operands == OperandKind::kBranch16;
}

bool IsConditionalBranch(Op op) { return IsBranch(op) && op != Op::kGoto; }

bool IsReturn(Op op) {
  return op == Op::kIreturn || op == Op::kLreturn || op == Op::kAreturn || op == Op::kReturn;
}

bool IsTerminator(Op op) { return IsReturn(op) || op == Op::kGoto || op == Op::kAthrow; }

bool IsInvoke(Op op) {
  return op == Op::kInvokevirtual || op == Op::kInvokespecial || op == Op::kInvokestatic;
}

bool IsFieldAccess(Op op) {
  return op == Op::kGetfield || op == Op::kPutfield || op == Op::kGetstatic ||
         op == Op::kPutstatic;
}

bool IsQuickOp(Op op) {
  uint8_t raw = static_cast<uint8_t>(op);
  return raw >= static_cast<uint8_t>(Op::kLdcQuick) &&
         raw <= static_cast<uint8_t>(Op::kInstanceofQuick);
}

}  // namespace dvm
