// Net operand-stack effect of a decoded instruction. For field accesses and
// invokes the effect depends on the referenced descriptor, so the constant pool
// is required. Shared by MethodBuilder's and MethodEditor's max_stack
// computation.
#ifndef SRC_BYTECODE_STACK_EFFECT_H_
#define SRC_BYTECODE_STACK_EFFECT_H_

#include "src/bytecode/code.h"
#include "src/bytecode/constant_pool.h"
#include "src/support/result.h"

namespace dvm {

Result<int> StackDelta(const Instr& instr, const ConstantPool& pool);

// Slots popped by the instruction (before its pushes).
Result<int> StackPops(const Instr& instr, const ConstantPool& pool);

}  // namespace dvm

#endif  // SRC_BYTECODE_STACK_EFFECT_H_
