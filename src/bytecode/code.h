// Decoded instruction stream. The on-disk form is a byte stream with relative
// branch offsets; the decoded form is a vector of Instr whose branch operands are
// instruction *indices*, which is what the verifier's dataflow pass, the
// interpreter's preparation and the binary rewriter's mid-body edits operate
// on. Encode/Decode round-trip exactly. Because offsets are relative, code
// put in front of a body leaves its bytes valid: the rewriter encodes only
// such entry code and prepends it, without decoding the body
// (rewrite/method_editor.h).
#ifndef SRC_BYTECODE_CODE_H_
#define SRC_BYTECODE_CODE_H_

#include <cstddef>
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

// Byte offset -> instruction index for one code body: a dense table with one
// entry per byte offset up to and including the code length. Built from
// CodeByteOffsets output; the end offset maps to the instruction count (the
// exclusive end of an exception range). Exception-table and branch pcs come
// off the wire, so At() is bounds-checked.
class OffsetIndex {
 public:
  static constexpr int32_t kNone = -1;

  OffsetIndex() = default;
  explicit OffsetIndex(const std::vector<uint32_t>& offsets) { Assign(offsets); }

  // Rebuilds the table for `offsets` in the storage it already holds.
  void Assign(const std::vector<uint32_t>& offsets);
  size_t CapacityBytes() const { return ix_.capacity() * sizeof(int32_t); }

  // Index of the instruction starting at `offset`, the instruction count for
  // the code length, and kNone for a mid-instruction or out-of-range offset.
  int32_t At(uint32_t offset) const {
    return offset < ix_.size() ? ix_[offset] : kNone;
  }

 private:
  std::vector<int32_t> ix_;
};

// A decoded method body with the offset maps its consumers index by: the
// decoder computes both to resolve branches, so verification phase 2, the
// method editor and the interpreter's preparation take them from here instead
// of rebuilding them.
struct DecodedCode {
  // Reserved for the longest possible body (one instruction per byte):
  // shrink it before keeping it.
  std::vector<Instr> instrs;
  std::vector<uint32_t> offsets;  // CodeByteOffsets(instrs): per instruction + total
  OffsetIndex off_to_ix;          // byte offset -> instruction index
};

// Decodes an instruction stream. Checks that every opcode is known, that no
// instruction is truncated, and that every branch lands on an instruction
// boundary within the method (these are the instruction-integrity checks of
// verification phase 2; the decoder performs them because nothing downstream
// can operate on code that fails them).
//
// With `length` below the body's size, decodes only its first `length`
// bytes, which must end on an instruction boundary: the result describes
// that prefix, whose end offset maps to its instruction count, and a branch
// may target any instruction start in the prefix or the prefix's end (where
// the rest of the body begins), nothing further.
Result<DecodedCode> DecodeCode(const Bytes& code, size_t length = SIZE_MAX);

// The same, into `out`, reusing the storage it holds: a caller decoding many
// bodies (the verifier's per-thread workspace) allocates only for the
// largest. `out` is unspecified after an error.
Status DecodeCodeInto(const Bytes& code, DecodedCode* out, size_t length = SIZE_MAX);

// Encodes a decoded stream back to bytes. Fails if a branch displacement does
// not fit in 16 bits (methods that large are rejected at build time). When
// `offsets` is given it receives CodeByteOffsets(instrs), which the encoder
// computes anyway.
Result<Bytes> EncodeCode(const std::vector<Instr>& instrs,
                         std::vector<uint32_t>* offsets = nullptr);

// Byte offset of each instruction in the encoding of `instrs`, plus one final
// entry holding the total encoded size. Used to remap exception tables and line
// metadata after rewriting.
std::vector<uint32_t> CodeByteOffsets(const std::vector<Instr>& instrs);

}  // namespace dvm

#endif  // SRC_BYTECODE_CODE_H_
