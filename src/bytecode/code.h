// Decoded instruction stream. The on-disk form is a byte stream with relative
// branch offsets; the decoded form is a vector of Instr whose branch operands are
// instruction *indices*, which is what the verifier's dataflow pass and the
// binary rewriter operate on. Encode/Decode round-trip exactly.
#ifndef SRC_BYTECODE_CODE_H_
#define SRC_BYTECODE_CODE_H_

#include <cstdint>
#include <vector>

#include "src/bytecode/opcodes.h"
#include "src/support/bytes.h"
#include "src/support/result.h"

namespace dvm {

struct Instr {
  Op op = Op::kNop;
  // Operand meaning by OperandKind:
  //   kI8/kI16:    a = immediate value
  //   kU8:         a = local variable index
  //   kCpIndex:    a = constant pool index
  //   kBranch16:   a = target instruction index (decoded) — see Decode/Encode
  //   kLocalIncr:  a = local index, b = signed increment
  //   kArrayKind:  a = ArrayKind value
  int32_t a = 0;
  int32_t b = 0;

  bool operator==(const Instr& other) const = default;
};

// Decodes an instruction stream. Checks that every opcode is known, that no
// instruction is truncated, and that every branch lands on an instruction
// boundary within the method (these are the instruction-integrity checks of
// verification phase 2; the decoder performs them because nothing downstream
// can operate on code that fails them).
Result<std::vector<Instr>> DecodeCode(const Bytes& code);

// Encodes a decoded stream back to bytes. Fails if a branch displacement does
// not fit in 16 bits (methods that large are rejected at build time).
Result<Bytes> EncodeCode(const std::vector<Instr>& instrs);

// Byte offset of each instruction in the encoding of `instrs`, plus one final
// entry holding the total encoded size. Used to remap exception tables and line
// metadata after rewriting.
std::vector<uint32_t> CodeByteOffsets(const std::vector<Instr>& instrs);

// Byte offset -> instruction index for one code body: a dense table with one
// entry per byte offset up to and including the code length. Built from
// CodeByteOffsets output; the end offset maps to the instruction count (the
// exclusive end of an exception range). Exception-table and branch pcs come
// off the wire, so At() is bounds-checked.
class OffsetIndex {
 public:
  static constexpr int32_t kNone = -1;

  OffsetIndex() = default;
  explicit OffsetIndex(const std::vector<uint32_t>& offsets);

  // Index of the instruction starting at `offset`, the instruction count for
  // the code length, and kNone for a mid-instruction or out-of-range offset.
  int32_t At(uint32_t offset) const {
    return offset < ix_.size() ? ix_[offset] : kNone;
  }

 private:
  std::vector<int32_t> ix_;
};

}  // namespace dvm

#endif  // SRC_BYTECODE_CODE_H_
