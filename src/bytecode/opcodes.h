// DVM instruction set. A stack-machine subset of the JVM instruction set, with
// numeric values mirroring the JVM where an equivalent opcode exists so the code
// is recognizable to anyone who has read the Java VM specification. Differences
// from the JVM (documented in DESIGN.md): longs occupy a single operand-stack
// slot and a single local slot; there are no floating point types (workloads use
// fixed-point arithmetic); switches compile to branch chains.
#ifndef SRC_BYTECODE_OPCODES_H_
#define SRC_BYTECODE_OPCODES_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace dvm {

enum class Op : uint8_t {
  kNop = 0x00,
  kAconstNull = 0x01,
  kIconst0 = 0x03,  // matches JVM iconst_0
  kIconst1 = 0x04,
  kBipush = 0x10,  // operand: i8 immediate
  kSipush = 0x11,  // operand: i16 immediate
  kLdc = 0x12,     // operand: u16 constant pool index (Integer, Long, or String)

  kIload = 0x15,  // operand: u8 local index
  kLload = 0x16,
  kAload = 0x19,
  kIstore = 0x36,
  kLstore = 0x37,
  kAstore = 0x3a,

  kIaload = 0x2e,
  kLaload = 0x2f,
  kAaload = 0x32,
  kIastore = 0x4f,
  kLastore = 0x50,
  kAastore = 0x53,

  kPop = 0x57,
  kDup = 0x59,
  kDupX1 = 0x5a,
  kSwap = 0x5f,

  kIadd = 0x60,
  kLadd = 0x61,
  kIsub = 0x64,
  kLsub = 0x65,
  kImul = 0x68,
  kLmul = 0x69,
  kIdiv = 0x6c,
  kLdiv = 0x6d,
  kIrem = 0x70,
  kLrem = 0x71,
  kIneg = 0x74,
  kLneg = 0x75,
  kIshl = 0x78,
  kIshr = 0x7a,
  kIushr = 0x7c,
  kIand = 0x7e,
  kIor = 0x80,
  kIxor = 0x82,
  kIinc = 0x84,  // operands: u8 local index, i8 increment

  kI2l = 0x85,
  kL2i = 0x88,
  kLcmp = 0x94,

  kIfeq = 0x99,  // all branches: i16 byte offset relative to instruction start
  kIfne = 0x9a,
  kIflt = 0x9b,
  kIfge = 0x9c,
  kIfgt = 0x9d,
  kIfle = 0x9e,
  kIfIcmpeq = 0x9f,
  kIfIcmpne = 0xa0,
  kIfIcmplt = 0xa1,
  kIfIcmpge = 0xa2,
  kIfIcmpgt = 0xa3,
  kIfIcmple = 0xa4,
  kIfAcmpeq = 0xa5,
  kIfAcmpne = 0xa6,
  kGoto = 0xa7,

  kIreturn = 0xac,
  kLreturn = 0xad,
  kAreturn = 0xb0,
  kReturn = 0xb1,

  kGetstatic = 0xb2,  // operand: u16 FieldRef index
  kPutstatic = 0xb3,
  kGetfield = 0xb4,
  kPutfield = 0xb5,
  kInvokevirtual = 0xb6,  // operand: u16 MethodRef index
  kInvokespecial = 0xb7,
  kInvokestatic = 0xb8,

  kNew = 0xbb,       // operand: u16 ClassRef index
  kNewarray = 0xbc,  // operand: u8 element kind (ArrayKind)
  kAnewarray = 0xbd, // operand: u16 ClassRef index (element class)
  kArraylength = 0xbe,
  kAthrow = 0xbf,
  kCheckcast = 0xc0,   // operand: u16 ClassRef index
  kInstanceof = 0xc1,  // operand: u16 ClassRef index
  kMonitorenter = 0xc2,
  kMonitorexit = 0xc3,
  kIfnull = 0xc6,
  kIfnonnull = 0xc7,

  // --- quick forms (runtime-internal) ------------------------------------------
  // Installed by the interpreter's lazy quickening pass into *decoded* method
  // bodies after the first execution resolves a site; the resolved payload
  // lives in the instruction's InlineCache slot (or, for field quicks, in the
  // rewritten slot operand). They are never valid on the wire: DecodeCode and
  // verification phase 2 reject class files that contain these byte values,
  // and EncodeCode refuses to emit them.
  kLdcQuick = 0xd3,             // a = cp index; value pre-materialized in IC
  kGetfieldQuick = 0xd4,        // a = resolved instance-field slot
  kPutfieldQuick = 0xd5,        // a = resolved instance-field slot
  kGetstaticQuick = 0xd6,       // owner+slot in IC (presence implies initialized)
  kPutstaticQuick = 0xd7,
  kInvokevirtualQuick = 0xd8,   // monomorphic {receiver_sym, owner, method} in IC
  kInvokespecialQuick = 0xd9,   // direct {owner, method} in IC
  kInvokestaticQuick = 0xda,    // direct {owner, method} in IC, owner initialized
  kNewQuick = 0xdb,             // resolved initialized RuntimeClass in IC
  kAnewarrayQuick = 0xdc,       // precomposed array descriptor in IC
  kCheckcastQuick = 0xdd,       // resolved target class name in IC
  kInstanceofQuick = 0xde,      // resolved target class name in IC
};

// Primitive element kinds for kNewarray.
enum class ArrayKind : uint8_t {
  kInt = 10,   // JVM T_INT
  kLong = 11,  // JVM T_LONG
};

// Shape of an instruction's operand bytes.
enum class OperandKind : uint8_t {
  kNone,       // no operands
  kI8,         // one signed byte immediate
  kI16,        // one signed 16-bit immediate
  kU8,         // one local-variable index
  kCpIndex,    // u16 constant pool index
  kBranch16,   // i16 relative branch offset
  kLocalIncr,  // u8 local index + i8 increment (iinc)
  kArrayKind,  // u8 ArrayKind
};

struct OpInfo {
  std::string_view name;
  OperandKind operands;
  // Net operand-stack effect where it is fixed; kVariableStack for invokes/field ops
  // whose effect depends on the referenced descriptor.
  int stack_delta;
  // Slots popped (before the pushes) where the effect is fixed; 0 otherwise.
  int pops;
  bool variable_stack;
};

constexpr int kVariableStack = 127;

// Metadata per opcode byte, nullptr for the unassigned bytes: the one dense
// table (opcodes.cc) that every lookup and predicate below reads. Decoding,
// encoding, verification and max-stack computation consult it several times
// per instruction, so the accessors are inline loads rather than calls.
extern const std::array<const OpInfo*, 256> kOpInfoByByte;

// Returns metadata for an opcode, or nullptr if the byte is not a valid opcode.
inline const OpInfo* GetOpInfo(Op op) { return kOpInfoByByte[static_cast<uint8_t>(op)]; }
inline const OpInfo* GetOpInfo(uint8_t raw) { return kOpInfoByByte[raw]; }

// Length in bytes of an encoded instruction with this operand shape.
constexpr int EncodedLength(OperandKind operands) {
  switch (operands) {
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

// Length in bytes of an encoded instruction (opcode + operands), -1 for an
// unassigned byte.
inline int InstructionLength(Op op) {
  const OpInfo* info = GetOpInfo(op);
  return info == nullptr ? -1 : EncodedLength(info->operands);
}

inline bool IsBranch(Op op) {
  const OpInfo* info = GetOpInfo(op);
  return info != nullptr && info->operands == OperandKind::kBranch16;
}

inline bool IsConditionalBranch(Op op) { return IsBranch(op) && op != Op::kGoto; }

inline bool IsReturn(Op op) {
  return op == Op::kIreturn || op == Op::kLreturn || op == Op::kAreturn || op == Op::kReturn;
}

// True when control cannot fall through to the next instruction.
inline bool IsTerminator(Op op) { return IsReturn(op) || op == Op::kGoto || op == Op::kAthrow; }

inline bool IsInvoke(Op op) {
  return op == Op::kInvokevirtual || op == Op::kInvokespecial || op == Op::kInvokestatic;
}

inline bool IsFieldAccess(Op op) {
  return op == Op::kGetfield || op == Op::kPutfield || op == Op::kGetstatic ||
         op == Op::kPutstatic;
}

// True for the runtime-internal quick forms (0xd3..0xde). Quick opcodes must
// never appear in on-the-wire class files.
inline bool IsQuickOp(Op op) {
  uint8_t raw = static_cast<uint8_t>(op);
  return raw >= static_cast<uint8_t>(Op::kLdcQuick) &&
         raw <= static_cast<uint8_t>(Op::kInstanceofQuick);
}
inline bool IsQuickOp(uint8_t raw) { return IsQuickOp(static_cast<Op>(raw)); }

}  // namespace dvm

#endif  // SRC_BYTECODE_OPCODES_H_
