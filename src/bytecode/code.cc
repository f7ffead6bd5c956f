#include "src/bytecode/code.h"

namespace dvm {

Result<std::vector<Instr>> DecodeCode(const Bytes& code) {
  std::vector<Instr> instrs;
  // Byte offset of each decoded instruction, for branch target mapping.
  std::vector<uint32_t> offsets;
  struct PendingBranch {
    size_t instr_index;
    uint32_t target_offset;
  };
  std::vector<PendingBranch> pending;

  size_t pos = 0;
  while (pos < code.size()) {
    uint32_t offset = static_cast<uint32_t>(pos);
    Op op = static_cast<Op>(code[pos]);
    if (IsQuickOp(op)) {
      // Quick forms are installed by the interpreter's quickening pass into
      // decoded code only; a class file carrying them on the wire is hostile
      // or corrupt (verification phase 2 relies on this rejection).
      return Error{ErrorCode::kVerifyError,
                   "quick opcode 0x" + std::to_string(code[pos]) + " at offset " +
                       std::to_string(pos) + " is runtime-internal"};
    }
    const OpInfo* info = GetOpInfo(op);
    if (info == nullptr) {
      return Error{ErrorCode::kVerifyError,
                   "unknown opcode 0x" + std::to_string(code[pos]) + " at offset " +
                       std::to_string(pos)};
    }
    int len = InstructionLength(op);
    if (pos + static_cast<size_t>(len) > code.size()) {
      return Error{ErrorCode::kVerifyError,
                   "truncated instruction at offset " + std::to_string(pos)};
    }
    Instr instr;
    instr.op = op;
    switch (info->operands) {
      case OperandKind::kNone:
        break;
      case OperandKind::kI8:
        instr.a = static_cast<int8_t>(code[pos + 1]);
        break;
      case OperandKind::kU8:
      case OperandKind::kArrayKind:
        instr.a = code[pos + 1];
        break;
      case OperandKind::kI16: {
        instr.a = static_cast<int16_t>((code[pos + 1] << 8) | code[pos + 2]);
        break;
      }
      case OperandKind::kCpIndex:
        instr.a = (code[pos + 1] << 8) | code[pos + 2];
        break;
      case OperandKind::kBranch16: {
        int16_t rel = static_cast<int16_t>((code[pos + 1] << 8) | code[pos + 2]);
        int64_t target = static_cast<int64_t>(offset) + rel;
        if (target < 0 || target >= static_cast<int64_t>(code.size())) {
          return Error{ErrorCode::kVerifyError,
                       "branch at offset " + std::to_string(pos) + " escapes method body"};
        }
        pending.push_back({instrs.size(), static_cast<uint32_t>(target)});
        break;
      }
      case OperandKind::kLocalIncr:
        instr.a = code[pos + 1];
        instr.b = static_cast<int8_t>(code[pos + 2]);
        break;
    }
    offsets.push_back(offset);
    instrs.push_back(instr);
    pos += static_cast<size_t>(len);
  }

  offsets.push_back(static_cast<uint32_t>(code.size()));
  const OffsetIndex offset_to_index(offsets);
  for (const auto& p : pending) {
    int32_t index = offset_to_index.At(p.target_offset);
    if (index == OffsetIndex::kNone) {
      return Error{ErrorCode::kVerifyError,
                   "branch targets mid-instruction offset " + std::to_string(p.target_offset)};
    }
    instrs[p.instr_index].a = index;
  }
  return instrs;
}

std::vector<uint32_t> CodeByteOffsets(const std::vector<Instr>& instrs) {
  std::vector<uint32_t> offsets;
  offsets.reserve(instrs.size() + 1);
  uint32_t pos = 0;
  for (const auto& instr : instrs) {
    offsets.push_back(pos);
    pos += static_cast<uint32_t>(InstructionLength(instr.op));
  }
  offsets.push_back(pos);
  return offsets;
}

OffsetIndex::OffsetIndex(const std::vector<uint32_t>& offsets)
    : ix_(offsets.empty() ? 0 : offsets.back() + 1, kNone) {
  for (size_t i = 0; i < offsets.size(); i++) {
    ix_[offsets[i]] = static_cast<int32_t>(i);
  }
}

Result<Bytes> EncodeCode(const std::vector<Instr>& instrs) {
  std::vector<uint32_t> offsets = CodeByteOffsets(instrs);
  Bytes out;
  out.reserve(offsets.back());
  for (size_t i = 0; i < instrs.size(); i++) {
    const Instr& instr = instrs[i];
    if (IsQuickOp(instr.op)) {
      return Error{ErrorCode::kInternal,
                   "refusing to encode runtime-internal quick opcode"};
    }
    const OpInfo* info = GetOpInfo(instr.op);
    if (info == nullptr) {
      return Error{ErrorCode::kInternal, "encoding unknown opcode"};
    }
    out.push_back(static_cast<uint8_t>(instr.op));
    switch (info->operands) {
      case OperandKind::kNone:
        break;
      case OperandKind::kI8:
        if (instr.a < -128 || instr.a > 127) {
          return Error{ErrorCode::kInvalidArgument, "i8 operand out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a));
        break;
      case OperandKind::kU8:
      case OperandKind::kArrayKind:
        if (instr.a < 0 || instr.a > 255) {
          return Error{ErrorCode::kInvalidArgument, "u8 operand out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a));
        break;
      case OperandKind::kI16:
        if (instr.a < -32768 || instr.a > 32767) {
          return Error{ErrorCode::kInvalidArgument, "i16 operand out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a >> 8));
        out.push_back(static_cast<uint8_t>(instr.a));
        break;
      case OperandKind::kCpIndex:
        if (instr.a < 0 || instr.a > 0xFFFF) {
          return Error{ErrorCode::kInvalidArgument, "cp index out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a >> 8));
        out.push_back(static_cast<uint8_t>(instr.a));
        break;
      case OperandKind::kBranch16: {
        if (instr.a < 0 || static_cast<size_t>(instr.a) >= instrs.size()) {
          return Error{ErrorCode::kInvalidArgument,
                       "branch target index out of range: " + std::to_string(instr.a)};
        }
        int64_t rel = static_cast<int64_t>(offsets[static_cast<size_t>(instr.a)]) -
                      static_cast<int64_t>(offsets[i]);
        if (rel < -32768 || rel > 32767) {
          return Error{ErrorCode::kCapacity, "branch displacement exceeds 16 bits"};
        }
        out.push_back(static_cast<uint8_t>(rel >> 8));
        out.push_back(static_cast<uint8_t>(rel));
        break;
      }
      case OperandKind::kLocalIncr:
        if (instr.a < 0 || instr.a > 255 || instr.b < -128 || instr.b > 127) {
          return Error{ErrorCode::kInvalidArgument, "iinc operands out of range"};
        }
        out.push_back(static_cast<uint8_t>(instr.a));
        out.push_back(static_cast<uint8_t>(instr.b));
        break;
    }
  }
  return out;
}

}  // namespace dvm
