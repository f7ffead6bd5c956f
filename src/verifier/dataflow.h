// Shared phase-2/phase-3 machinery for the two consumers of the typestate
// lattice: the full fixpoint verifier (verifier.cc) and the one-pass
// certificate validator (certificate.cc). Both drive the SAME abstract
// transfer function over the SAME decoded code, which is what makes their
// accept/reject verdicts — and the link-time assumptions they derive —
// byte-identical by construction rather than by parallel maintenance.
#ifndef SRC_VERIFIER_DATAFLOW_H_
#define SRC_VERIFIER_DATAFLOW_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bytecode/classfile.h"
#include "src/bytecode/code.h"
#include "src/bytecode/descriptor.h"
#include "src/support/result.h"
#include "src/verifier/assumptions.h"
#include "src/verifier/class_env.h"
#include "src/verifier/typestate.h"
#include "src/verifier/verifier.h"

namespace dvm {

// Decoded method body with the offset maps the dataflow passes index by.
struct MethodCode {
  std::vector<Instr> instrs;
  std::vector<uint32_t> offsets;                     // per-instruction byte offsets + total
  std::unordered_map<uint32_t, uint32_t> off_to_ix;  // byte offset -> instruction index
};

// Phase 1: class file internal consistency (constant pool, descriptor syntax,
// method/field shape rules). Shared verbatim by VerifyClass and the
// certificate validator; bumps stats->phase1_checks.
Status Phase1(const ClassFile& cls, VerifyStats* stats);

// Phase 2: instruction integrity (decode, operand validity, handler ranges,
// fall-off-the-end). Bumps stats->phase2_checks / instructions_verified.
Result<MethodCode> Phase2(const ClassFile& cls, const MethodInfo& method, VerifyStats* stats);

// Per instruction index: is it a branch target or handler entry? Certificates
// assert frames at the reachable ones and nowhere else (one proof per class).
std::vector<bool> MergePoints(const MethodInfo& method, const MethodCode& mc);

// Class-level inheritance check shared by VerifyClass and the certificate
// validator: extending a known-final class is rejected; an unknown superclass
// becomes a class-scoped existence assumption.
Status CheckSuperclass(const ClassFile& cls, const ClassEnv& env, uint64_t* checks,
                       std::vector<Assumption>* assumptions);

// Abstract execution of one method's instructions over typestate frames. The
// interpreter is stateless between calls apart from its check counter and
// assumption sink — the fixpoint loop and the single validation pass both sit
// on top of it.
class AbstractInterpreter {
 public:
  // Outcome of stepping one instruction: the outgoing frame plus the edges it
  // feeds (an explicit branch target and/or fall-through to index+1).
  struct StepResult {
    Frame frame;
    std::optional<size_t> branch_target;
    bool fallthrough = false;
  };

  // One exception edge: the handler's entry frame (covered instruction's
  // locals, stack exactly [thrown reference]) and its target index.
  struct HandlerEdge {
    size_t target = 0;
    Frame frame;
  };

  // `checks` counts discrete phase-3 checks (the verifier points it at
  // phase3_checks, the validator at its own counter); `assumptions` receives
  // link-time assumptions stamped with this method's id. Both must outlive
  // the interpreter; the sink can be swapped per visit.
  AbstractInterpreter(const ClassFile& cls, const MethodInfo& method, const MethodCode& mc,
                      const ClassEnv& env, uint64_t* checks,
                      std::vector<Assumption>* assumptions);

  // Frame on entry to instruction 0: receiver + parameters in locals.
  Frame EntryFrame() const;

  // Abstractly executes instruction `index` from `frame`. A returned error is
  // a verification failure.
  Result<StepResult> Step(size_t index, Frame frame);

  // Exception edges out of instruction `index` given its entry frame: one per
  // handler covering the pc. Rejects a handler whose thrown reference cannot
  // fit on the operand stack (max_stack == 0) or whose catch type is provably
  // not a Throwable; an unknown catch type becomes an assignability
  // assumption.
  Result<std::vector<HandlerEdge>> HandlerEdges(size_t index, const Frame& frame);

  void set_assumption_sink(std::vector<Assumption>* sink) { assumptions_ = sink; }

 private:
  void Check() { (*checks_)++; }
  void Assume(Assumption a);
  void AssumeClass(const std::string& class_name);
  Error Fail(size_t index, const std::string& message) const;

  Result<VType> Pop(Frame& frame, size_t index);
  Status PopKind(Frame& frame, size_t index, VType::Kind kind, const char* what);
  Status PopRefLike(Frame& frame, size_t index, VType* out);
  Status PopAssignable(Frame& frame, size_t index, const std::string& desc);
  Status Push(Frame& frame, size_t index, VType t);
  Result<VType> GetLocal(const Frame& frame, size_t index, int slot, VType::Kind want,
                         const char* what);
  Status ResolveField(size_t index, const MemberRef& ref, bool want_static);
  Status ResolveMethod(size_t index, const MemberRef& ref, Op op);

  const ClassFile& cls_;
  const MethodInfo& method_;
  const MethodCode& mc_;
  const ClassEnv& env_;
  uint64_t* checks_;
  std::vector<Assumption>* assumptions_;
  MethodSignature sig_;
};

}  // namespace dvm

#endif  // SRC_VERIFIER_DATAFLOW_H_
