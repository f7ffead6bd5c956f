// Shared phase-2/phase-3 machinery for the two consumers of the typestate
// lattice: the full fixpoint verifier (verifier.cc) and the one-pass
// certificate validator (certificate.cc). Both drive the SAME abstract
// transfer function over the SAME decoded code, which is what makes their
// accept/reject verdicts — and the link-time assumptions they derive —
// byte-identical by construction rather than by parallel maintenance.
#ifndef SRC_VERIFIER_DATAFLOW_H_
#define SRC_VERIFIER_DATAFLOW_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
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
  std::vector<uint32_t> offsets;  // per-instruction byte offsets + total
  OffsetIndex off_to_ix;          // byte offset -> instruction index
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

// What one VerifyClass / ValidateCertificate call resolves once per class and
// shares across its methods' interpreters: the call's TypeEnv, and each
// constant-pool reference the transfer function consults, decoded (and
// resolved against the environment) on first use instead of on every step.
class ClassScope {
 public:
  // The outcome of resolving a field or method reference against the
  // environment, replayed on every step that uses it: the phase-3 checks it
  // costs, the link-time assumption it records, or why it fails.
  struct Resolution {
    uint32_t checks = 0;
    std::optional<Assumption> assumption;  // method_id left for the stepping method
    std::optional<std::string> failure;
  };
  struct FieldSite {
    MemberRef ref;
    VType type;
    std::optional<Resolution> resolved[2];  // indexed by want_static
  };
  struct InvokeSite {
    MemberRef ref;
    uint32_t class_id = 0;
    std::optional<Error> bad_descriptor;
    std::vector<std::string> params;
    std::vector<VType> param_types;
    VType return_type;
    bool returns_void = false;
    std::optional<Resolution> resolved[2];  // indexed by op == invokestatic
  };
  struct ClassSite {
    std::string name;
    VType type;      // Ref(name)
    VType array_of;  // Ref("[" + descriptor of name), the anewarray result
    bool known = false;
  };

  ClassScope(const ClassFile& cls, TypeEnv& types);

  const ClassFile& cls() const { return cls_; }
  TypeEnv& types() const { return types_; }

  // The reference at a pool index whose tag phase 2 has checked.
  FieldSite& Field(uint16_t index);
  InvokeSite& Invoke(uint16_t index);
  const ClassSite& Class(uint16_t index);

  const Resolution& ResolveField(FieldSite& site, bool want_static);
  const Resolution& ResolveMethod(InvokeSite& site, bool want_static);

  // Ids the transfer function compares against.
  const uint32_t object_id;
  const uint32_t throwable_id;
  const uint32_t string_id;
  const uint32_t int_array_id;
  const uint32_t long_array_id;

 private:
  const ClassFile& cls_;
  TypeEnv& types_;
  // Per pool index: position in the deque of its tag's sites, -1 until used.
  std::vector<int32_t> slot_;
  std::deque<FieldSite> fields_;
  std::deque<InvokeSite> invokes_;
  std::deque<ClassSite> classes_;
};

// Abstract execution of one method's instructions over typestate frames. The
// interpreter is stateless between calls apart from its check counter and
// assumption sink — the fixpoint loop and the single validation pass both sit
// on top of it.
class AbstractInterpreter {
 public:
  // The edges stepping an instruction feeds: an explicit branch target
  // and/or fall-through to index+1.
  struct StepResult {
    std::optional<size_t> branch_target;
    bool fallthrough = false;
  };

  // One exception edge: the handler's entry frame is the covered
  // instruction's locals with the stack exactly [thrown].
  struct HandlerEdge {
    size_t target = 0;
    VType thrown;
  };

  // `checks` counts discrete phase-3 checks (the verifier points it at
  // phase3_checks, the validator at its own counter); `assumptions` receives
  // link-time assumptions stamped with this method's id. Both must outlive
  // the interpreter; the sink can be swapped per visit.
  AbstractInterpreter(ClassScope& scope, const MethodInfo& method, const MethodCode& mc,
                      uint64_t* checks, std::vector<Assumption>* assumptions);

  // Frame on entry to instruction 0: receiver + parameters in locals.
  Frame EntryFrame() const;

  // Abstractly executes instruction `index`, turning `frame` from its entry
  // frame into its outgoing frame in place. A returned error is a
  // verification failure, and leaves `frame` unspecified.
  Result<StepResult> Step(size_t index, Frame& frame);

  // Exception edges out of instruction `index`, one per handler covering the
  // pc, into `edges` (cleared first). Rejects a handler whose thrown
  // reference cannot fit on the operand stack (max_stack == 0) or whose catch
  // type is provably not a Throwable; an unknown catch type becomes an
  // assignability assumption.
  Status HandlerEdges(size_t index, std::vector<HandlerEdge>* edges);

  void set_assumption_sink(std::vector<Assumption>* sink) { assumptions_ = sink; }

 private:
  // One exception-table entry, resolved once per method.
  struct Handler {
    uint32_t start_pc = 0;
    uint32_t end_pc = 0;
    size_t target = 0;
    VType catch_type;
  };

  void Check() { (*checks_)++; }
  void Assume(Assumption a);
  void AssumeClass(const std::string& class_name);
  void AssumeAssignable(const VType& src, uint32_t dst);
  Status Replay(size_t index, const ClassScope::Resolution& resolution);
  Error Fail(size_t index, const std::string& message) const;
  std::string Str(const VType& t) const { return types_.ToString(t); }

  Result<VType> Pop(Frame& frame, size_t index);
  Status PopKind(Frame& frame, size_t index, VType::Kind kind, const char* what);
  Status PopRefLike(Frame& frame, size_t index, VType* out);
  Status PopAssignable(Frame& frame, size_t index, const VType& want, const std::string& desc);
  Status Push(Frame& frame, size_t index, VType t);
  Result<VType> GetLocal(const Frame& frame, size_t index, int slot, VType::Kind want,
                         const char* what);

  ClassScope& scope_;
  TypeEnv& types_;
  const MethodInfo& method_;
  const MethodCode& mc_;
  uint64_t* checks_;
  std::vector<Assumption>* assumptions_;
  const std::string method_id_;
  MethodSignature sig_;
  VType return_type_;
  std::vector<Handler> handlers_;
};

}  // namespace dvm

#endif  // SRC_VERIFIER_DATAFLOW_H_
