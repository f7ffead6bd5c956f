// Operand-stack effect of a decoded instruction. For field accesses and
// invokes the effect depends on the referenced descriptor, so the constant pool
// is required. ComputeMaxStackDepth below is MethodBuilder's and
// MethodEditor's max_stack computation; ComputeEntryCodeDepth is the one for
// code MethodEditor splices in front of a proved body.
#ifndef SRC_BYTECODE_STACK_EFFECT_H_
#define SRC_BYTECODE_STACK_EFFECT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/bytecode/code.h"
#include "src/bytecode/constant_pool.h"
#include "src/bytecode/descriptor.h"
#include "src/support/result.h"

namespace dvm {

// Slots an instruction pops, then slots it pushes.
struct StackEffect {
  int pops = 0;
  int pushes = 0;

  int delta() const { return pushes - pops; }
};

// Stack effects of the instructions of one class. An invoke's effect comes
// from its MethodRef's descriptor, read in place in the pool (no strings
// copied, nothing allocated) after the tag checks ConstantPool::MethodRefAt
// makes, and memoized per pool index for the life of the object. A reference
// that fails a check reports exactly MethodRefAt's or ParseMethodDescriptor's
// error.
class StackEffects {
 public:
  explicit StackEffects(const ConstantPool& pool) : pool_(pool) {}

  Result<StackEffect> Of(const Instr& instr) {
    const OpInfo* info = GetOpInfo(instr.op);
    if (info != nullptr && !info->variable_stack) {
      return StackEffect{info->pops, info->pops + info->stack_delta};
    }
    return VariableOf(instr);
  }

 private:
  // Field accesses, invokes, and the unassigned bytes.
  Result<StackEffect> VariableOf(const Instr& instr);
  Result<MethodShape> InvokeShape(uint16_t index);

  const ConstantPool& pool_;
  // Direct-mapped by pool index; index 0 (never a MethodRef) marks a free slot.
  struct Memo {
    uint16_t index = 0;
    MethodShape shape;
  };
  std::array<Memo, 32> memo_{};
};

// Max operand-stack depth of a decoded body, by a breadth-first walk that
// visits each instruction once. `handler_entries` are instruction indices that
// start with one reference on the stack (exception handler entry points).
// Fails with kCapacity at the first depth past 65535; with kInvalidArgument
// "inconsistent stack depth at instruction <index>" when a path reaches an
// instruction at another depth than the first one did; and at an instruction
// that pops more than the stack holds with `underflow(index)`, or without one
// with kInvalidArgument "rewritten code underflows stack at instruction
// <index>".
Result<uint16_t> ComputeMaxStackDepth(const std::vector<Instr>& instrs,
                                      const ConstantPool& pool,
                                      const std::vector<uint32_t>& handler_entries,
                                      const std::function<Error(size_t)>& underflow = nullptr);

// The same walk over `instrs` as code placed in front of a method body,
// which continues at index instrs.size(): every path that reaches that index,
// by falling through or by a branch, must hand it an empty stack. Fails with
// kInvalidArgument when one does not or a branch goes past it; otherwise as
// ComputeMaxStackDepth with no handlers.
Result<uint16_t> ComputeEntryCodeDepth(const std::vector<Instr>& instrs,
                                       const ConstantPool& pool);

}  // namespace dvm

#endif  // SRC_BYTECODE_STACK_EFFECT_H_
