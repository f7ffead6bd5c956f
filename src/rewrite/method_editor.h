// In-place method body editing with branch and exception-table fixup — the
// mechanical core of every binary-rewriting service. Open() decodes a method,
// callers insert instructions at arbitrary positions, Commit() re-encodes,
// remaps handler ranges and recomputes max_stack/max_locals.
//
// Insertion semantics: inserting at index i places code *before* the
// instruction currently at i; branches that target i keep targeting the
// original instruction (they do NOT re-execute the inserted code). This is
// what a method-entry guard wants: a back-edge to the old first instruction
// skips the guard after the first execution.
#ifndef SRC_REWRITE_METHOD_EDITOR_H_
#define SRC_REWRITE_METHOD_EDITOR_H_

#include <string>
#include <vector>

#include "src/bytecode/classfile.h"
#include "src/bytecode/code.h"
#include "src/bytecode/stack_effect.h"  // ComputeMaxStackDepth
#include "src/support/result.h"

namespace dvm {

class MethodEditor {
 public:
  // `cls` and `method` must outlive the editor; `method` must have code.
  static Result<MethodEditor> Open(ClassFile* cls, MethodInfo* method);

  const std::vector<Instr>& code() const { return code_; }
  ConstantPool& pool();

  // Inserts before the instruction at `index` (index == code().size() appends
  // at the end). Branch operands inside `instrs` are relative to the final
  // layout: use absolute target indices assuming the insertion has happened.
  Status InsertBefore(size_t index, const std::vector<Instr>& instrs);

  // Replaces the instruction at `index` with `instrs` (at least one).
  Status Replace(size_t index, const std::vector<Instr>& instrs);

  // Re-encodes into the method. No-op when nothing changed.
  Status Commit();

  bool modified() const { return modified_; }

 private:
  struct HandlerIx {
    uint32_t start_ix, end_ix, handler_ix;
    uint16_t catch_type;
  };

  MethodEditor(ClassFile* cls, MethodInfo* method) : cls_(cls), method_(method) {}

  void ShiftTargets(size_t at, size_t count);

  ClassFile* cls_;
  MethodInfo* method_;
  std::vector<Instr> code_;
  std::vector<HandlerIx> handlers_;
  int max_extra_local_ = -1;
  bool modified_ = false;
};

}  // namespace dvm

#endif  // SRC_REWRITE_METHOD_EDITOR_H_
