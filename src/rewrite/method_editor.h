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
//
// Each insertion is recorded as a CodeEdit, which the filter reports in its
// FilterOutcome so that the proxy can derive the artifact's certificate from
// the verification filter's proof (verifier/certificate.h).
#ifndef SRC_REWRITE_METHOD_EDITOR_H_
#define SRC_REWRITE_METHOD_EDITOR_H_

#include <string>
#include <vector>

#include "src/bytecode/classfile.h"
#include "src/bytecode/code.h"
#include "src/bytecode/descriptor.h"
#include "src/bytecode/stack_effect.h"  // ComputeMaxStackDepth
#include "src/support/result.h"
#include "src/verifier/certificate.h"  // CodeEdit

namespace dvm {

class MethodEditor {
 public:
  // `cls` and `method` must outlive the editor; `method` must be one of
  // cls->methods and have code.
  static Result<MethodEditor> Open(ClassFile* cls, MethodInfo* method);

  const std::vector<Instr>& code() const { return code_; }
  ConstantPool& pool();

  // Inserts before the instruction at `index` (index == code().size() appends
  // at the end). Branch operands inside `instrs` are relative to the final
  // layout: use absolute target indices assuming the insertion has happened.
  Status InsertBefore(size_t index, const std::vector<Instr>& instrs);

  // Replaces the instruction at `index` with `instrs` (at least one). Records
  // no edit: a replaced instruction is not an insertion, so no certificate
  // can be derived for the method.
  Status Replace(size_t index, const std::vector<Instr>& instrs);

  // Re-encodes into the method (a no-op when nothing changed), then appends
  // every InsertBefore, in order and in the coordinates of its call, to
  // `edits` when given.
  Status Commit(std::vector<CodeEdit>* edits = nullptr);

  bool modified() const { return modified_; }

 private:
  struct HandlerIx {
    uint32_t start_ix, end_ix, handler_ix;
    uint16_t catch_type;
  };

  MethodEditor(ClassFile* cls, MethodInfo* method, uint32_t position)
      : cls_(cls), method_(method), position_(position) {}

  void ShiftTargets(size_t at, size_t count);
  Status Insert(size_t index, const std::vector<Instr>& instrs);

  ClassFile* cls_;
  MethodInfo* method_;
  uint32_t position_;  // of method_ in cls_->methods
  std::vector<CodeEdit> edits_;
  std::vector<Instr> code_;
  std::vector<HandlerIx> handlers_;
  int max_extra_local_ = -1;
  bool modified_ = false;
};

// Method synthesis, for services that add a method rather than edit one (the
// security service's native wrappers, the repartitioner's forwarding stubs,
// the verifier's injected <clinit>).

// Appends a forwarding call to `body`: loads the receiver (unless
// `is_static`) and each parameter of `sig` by its type, calls `target` (a
// method-ref index) with `invoke`, and returns the result by its type.
// Returns the number of local slots the loads read.
uint16_t AppendForwardingCall(const MethodSignature& sig, bool is_static, Op invoke,
                              uint16_t target, std::vector<Instr>* body);

// A method whose code is the straight-line `body` (no exception handlers):
// encoded, with max_stack computed against `pool`. A filter that adds it to a
// class reports it as CodeEdit{position, 0, body.size()}.
Result<MethodInfo> AssembleMethod(uint16_t access_flags, const std::string& name,
                                  const std::string& descriptor,
                                  const std::vector<Instr>& body, uint16_t max_locals,
                                  const ConstantPool& pool);

}  // namespace dvm

#endif  // SRC_REWRITE_METHOD_EDITOR_H_
