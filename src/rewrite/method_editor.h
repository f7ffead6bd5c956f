// In-place method body editing with branch and exception-table fixup — the
// mechanical core of every binary-rewriting service. Callers insert
// instructions at arbitrary positions; Commit() writes the body back, with
// handler ranges remapped and max_stack/max_locals raised to cover the
// inserted code.
//
// Insertion semantics: inserting at index i places code *before* the
// instruction currently at i; branches that target i keep targeting the
// original instruction (they do NOT re-execute the inserted code). This is
// what a method-entry guard wants: a back-edge to the old first instruction
// skips the guard after the first execution.
//
// Decoding is lazy. Every Fig. 6 service (verification guards, <clinit>
// checks, security hooks, audit) only inserts at index 0, and branch offsets
// are relative, so the body's bytes stay valid behind such code: Commit
// encodes just the inserted code, prepends it to the unchanged bytes and moves
// every handler pc by its length. The body is decoded only when a caller needs
// the decoded form: code(), Replace(), or an insertion anywhere but index 0.
//
// max_stack on the splice path needs no walk over the body when the editor
// was opened with the verification filter's proof and the method still ends
// in its proved body (ProvedBodyOffset). The verifier bounds every frame of
// that body by its declared max_stack, every earlier entry insertion raised
// max_stack to its own depth, and the new code must hand the old entry an
// empty stack (ComputeEntryCodeDepth); so max(declared, depth of the new
// code) is what a walk over the whole body would give. Without a proof, or
// when the new code leaves a value on the stack, branches into the body, or
// the body has changed since it was proved, Commit decodes and walks the whole
// body as before: an unverified body may declare too small a max_stack, and
// the walk is what fails closed on it (a stack-growing loop, say).
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
  // cls->methods and have code. `proof`, when given, is the verification
  // filter's proof of `cls` (FilterContext::proof) and must outlive the
  // editor; it lets Commit splice entry code without walking the body.
  static Result<MethodEditor> Open(ClassFile* cls, MethodInfo* method,
                                   const ClassProof* proof = nullptr);

  // The body with every insertion so far, decoded on first use. A body that
  // does not decode reads as empty, and its error is what Commit and every
  // later edit return.
  const std::vector<Instr>& code();
  ConstantPool& pool();

  // Inserts before the instruction at `index` (index == code().size() appends
  // at the end). Branch operands inside `instrs` are relative to the final
  // layout: use absolute target indices assuming the insertion has happened.
  Status InsertBefore(size_t index, const std::vector<Instr>& instrs);

  // Replaces the instruction at `index` with `instrs` (at least one). Records
  // no edit: a replaced instruction is not an insertion, so no certificate
  // can be derived for the method.
  Status Replace(size_t index, const std::vector<Instr>& instrs);

  // Writes the edits into the method (a no-op when nothing changed), then
  // appends every InsertBefore, in order and in the coordinates of its call,
  // to `edits` when given. Called once, after the last edit.
  Status Commit(std::vector<CodeEdit>* edits = nullptr);

  // Whether the body was decoded: by code(), Replace(), an insertion past
  // index 0, or a Commit that could not splice. Only a decoded body is
  // walked for max_stack.
  bool decoded() const { return decoded_; }

 private:
  struct HandlerIx {
    uint32_t start_ix, end_ix, handler_ix;
    uint16_t catch_type;
  };

  MethodEditor(ClassFile* cls, MethodInfo* method, uint32_t position)
      : cls_(cls), method_(method), position_(position) {}

  Status Decode();
  void ShiftTargets(size_t at, size_t count);
  Status Insert(size_t index, const std::vector<Instr>& instrs);
  // Commit's splice path; false (with the method untouched) when the
  // inserted code or the body needs the decoding path.
  Result<bool> Splice();

  ClassFile* cls_;
  MethodInfo* method_;
  uint32_t position_;  // of method_ in cls_->methods
  const ClassProof::Body* proved_ = nullptr;  // method_'s body in the proof
  std::vector<CodeEdit> edits_;
  // Until the body is decoded, code_ holds only the code inserted at its
  // entry, in the coordinates of the final layout (index code_.size() is the
  // body's first instruction). After, it holds the whole body.
  std::vector<Instr> code_;
  std::vector<HandlerIx> handlers_;
  Status decode_status_;
  int max_extra_local_ = -1;
  bool decoded_ = false;
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
