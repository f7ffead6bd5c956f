#include "src/bytecode/code.h"

#include <algorithm>

namespace dvm {

Result<DecodedCode> DecodeCode(const Bytes& code, size_t length) {
  DecodedCode out;
  DVM_RETURN_IF_ERROR(DecodeCodeInto(code, &out, length));
  return out;
}

Status DecodeCodeInto(const Bytes& code, DecodedCode* decoded, size_t length) {
  const size_t end = std::min(code.size(), length);
  // Every instruction takes at least one byte, so one allocation per output
  // covers any body. (A second pass counting instructions first would cost as
  // much as decoding: each length depends on the previous one.)
  DecodedCode& out = *decoded;
  std::vector<Instr>& instrs = out.instrs;
  std::vector<uint32_t>& offsets = out.offsets;
  instrs.clear();
  offsets.clear();
  instrs.reserve(end);
  offsets.reserve(end + 1);
  // Branch operands hold the target *byte offset* until every instruction
  // start is known, then the target's index.
  bool has_branches = false;

  size_t pos = 0;
  while (pos < end) {
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
    int len = EncodedLength(info->operands);
    if (pos + static_cast<size_t>(len) > end) {
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
        instr.a = static_cast<int32_t>(target);
        has_branches = true;
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

  // Branch targets past the end of a prefix find no index below.
  offsets.push_back(static_cast<uint32_t>(end));
  out.off_to_ix.Assign(offsets);
  if (has_branches) {
    for (Instr& instr : instrs) {
      if (!IsBranch(instr.op)) {
        continue;
      }
      int32_t index = out.off_to_ix.At(static_cast<uint32_t>(instr.a));
      if (index == OffsetIndex::kNone) {
        return Error{ErrorCode::kVerifyError,
                     "branch targets mid-instruction offset " + std::to_string(instr.a)};
      }
      instr.a = index;
    }
  }
  return Status::Ok();
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

void OffsetIndex::Assign(const std::vector<uint32_t>& offsets) {
  ix_.assign(offsets.empty() ? 0 : offsets.back() + 1, kNone);
  for (size_t i = 0; i < offsets.size(); i++) {
    ix_[offsets[i]] = static_cast<int32_t>(i);
  }
}

Result<Bytes> EncodeCode(const std::vector<Instr>& instrs, std::vector<uint32_t>* offsets_out) {
  std::vector<uint32_t> own_offsets;
  std::vector<uint32_t>& offsets = offsets_out != nullptr ? *offsets_out : own_offsets;
  offsets = CodeByteOffsets(instrs);
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
