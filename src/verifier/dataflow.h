// Shared phase-2/phase-3 machinery for the two consumers of the typestate
// lattice: the full fixpoint verifier (verifier.cc) and the one-pass
// certificate validator (certificate.cc). Both drive the SAME abstract
// transfer function over the SAME decoded code, which is what makes their
// accept/reject verdicts — and the link-time assumptions they derive —
// byte-identical by construction rather than by parallel maintenance.
#ifndef SRC_VERIFIER_DATAFLOW_H_
#define SRC_VERIFIER_DATAFLOW_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
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

// Phase 1: class file internal consistency (constant pool, descriptor syntax,
// method/field shape rules). Shared verbatim by VerifyClass and the
// certificate validator; bumps stats->phase1_checks.
Status Phase1(const ClassFile& cls, VerifyStats* stats);

// Phase 2: instruction integrity (decode, operand validity, handler ranges,
// fall-off-the-end) into `mc`, whose storage is reused. Bumps
// stats->phase2_checks / instructions_verified.
Status Phase2(const ClassFile& cls, const MethodInfo& method, VerifyStats* stats,
              DecodedCode* mc);

// Phase 2's operand checks on one instruction of `method` (local indices
// within max_locals, array kinds, constant-pool tags). Phase2 runs them on
// every instruction; certificate derivation on the instructions a rewrite
// inserted.
Status CheckOperands(const ConstantPool& pool, const MethodInfo& method, const Instr& instr,
                     VerifyStats* stats);

// Per instruction index, into `merge`: is it a branch target or handler
// entry? Certificates assert frames at the reachable ones and nowhere else
// (one proof per class).
void MergePoints(const MethodInfo& method, const DecodedCode& mc, std::vector<bool>* merge);

// The control-flow edges out of an instruction, which its opcode alone
// decides: a branch to the instruction index in its operand, and/or
// fall-through to the next index. Step does not report them; each of its
// drivers reads them here, one table load per instruction.
struct OpEdges {
  bool branch = false;
  bool fallthrough = false;
};
extern const std::array<OpEdges, 256> kOpEdges;  // by opcode byte; none for unassigned bytes
inline OpEdges EdgesOf(Op op) { return kOpEdges[static_cast<uint8_t>(op)]; }

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
  // One exception edge: the handler's entry frame is the covered
  // instruction's locals with the stack exactly [thrown].
  struct HandlerEdge {
    size_t target = 0;
    VType thrown;
  };

  // `checks` counts discrete phase-3 checks (the verifier points it at
  // phase3_checks, the validator at its own counter); `assumptions` receives
  // link-time assumptions stamped with this method's id. Both must outlive
  // the interpreter.
  AbstractInterpreter(ClassScope& scope, const MethodInfo& method, const DecodedCode& mc,
                      uint64_t* checks, std::vector<Assumption>* assumptions);

  // Sets `frame` to the frame on entry to instruction 0: receiver +
  // parameters in locals, an empty stack.
  void EntryFrame(Frame& frame) const;

  // Abstractly executes instruction `index`, turning `frame` from its entry
  // frame into its outgoing frame in place; EdgesOf(its opcode) names the
  // edges that frame flows along. A returned error is a verification
  // failure, and leaves `frame` unspecified.
  Status Step(size_t index, Frame& frame);

  // Exception edges out of instruction `index`, one per handler covering the
  // pc, into `edges` (cleared first). Rejects a handler whose thrown
  // reference cannot fit on the operand stack (max_stack == 0) or whose catch
  // type is provably not a Throwable; an unknown catch type becomes an
  // assignability assumption.
  Status HandlerEdges(size_t index, std::vector<HandlerEdge>* edges) {
    edges->clear();
    return handlers_.empty() ? Status::Ok() : CoveringHandlers(index, edges);
  }

 private:
  // One exception-table entry, resolved once per method.
  struct Handler {
    uint32_t start_pc = 0;
    uint32_t end_pc = 0;
    size_t target = 0;
    VType catch_type;
  };

  Status CoveringHandlers(size_t index, std::vector<HandlerEdge>* edges);
  void Check() { (*checks_)++; }
  void Assume(Assumption a);
  void AssumeClass(const std::string& class_name);
  void AssumeAssignable(const VType& src, uint32_t dst);
  Status Replay(size_t index, const ClassScope::Resolution& resolution);
  std::string Str(const VType& t) const { return types_.ToString(t); }

  // Failures are the cold path: their messages are built out of line, so
  // the inlined stack and local helpers below carry none of that code.
  [[gnu::cold, gnu::noinline]] Error Fail(size_t index, const std::string& message) const;
  [[gnu::cold, gnu::noinline]] Error UnderflowError(size_t index) const;
  [[gnu::cold, gnu::noinline]] Error OverflowError(size_t index) const;
  [[gnu::cold, gnu::noinline]] Error KindError(size_t index, const char* what,
                                               const VType& found) const;
  [[gnu::cold, gnu::noinline]] Error LocalError(size_t index, int slot, const char* what,
                                                const VType& found) const;

  // Step's operand-stack and local-slot accesses, each with its checks.
  // Defined in dataflow.cc, the one file that calls them.
  [[gnu::always_inline]] inline Status Pop(Frame& frame, size_t index, VType* out);
  [[gnu::always_inline]] inline Status PopKind(Frame& frame, size_t index, VType::Kind kind,
                                               const char* what);
  [[gnu::always_inline]] inline Status PopRefLike(Frame& frame, size_t index, VType* out);
  [[gnu::always_inline]] inline Status Push(Frame& frame, size_t index, VType t);
  [[gnu::always_inline]] inline Status GetLocal(const Frame& frame, size_t index, int slot,
                                                VType::Kind want, const char* what);
  Status PopAssignable(Frame& frame, size_t index, const VType& want, const std::string& desc);

  ClassScope& scope_;
  TypeEnv& types_;
  const MethodInfo& method_;
  const DecodedCode& mc_;
  uint64_t* checks_;
  std::vector<Assumption>* assumptions_;
  const size_t max_stack_;
  std::string method_id_;  // method_.Id(), built for the first assumption
  MethodSignature sig_;
  VType return_type_;
  std::vector<Handler> handlers_;
};

// Append-only frame-slot storage that never initializes a slot: each one is
// copied in before it is read, so the value-initialization a growing
// std::vector would do is wasted work.
class SlotArena {
 public:
  SlotArena() = default;
  SlotArena(SlotArena&& other) noexcept { Swap(other); }
  SlotArena& operator=(SlotArena&& other) noexcept {
    SlotArena(std::move(other)).Swap(*this);
    return *this;
  }
  ~SlotArena() {
    if (data_ != nullptr) {
      std::allocator<VType>().deallocate(data_, capacity_);
    }
  }

  VType* data() { return data_; }
  const VType* data() const { return data_; }
  size_t capacity() const { return capacity_; }

  // Drops every slot, keeping the storage.
  void Clear() { used_ = 0; }
  void Reserve(size_t slots) {
    if (slots > capacity_) {
      Grow(slots);
    }
  }
  // Room for `slots` more slots; returns the offset of the first.
  size_t Append(size_t slots) {
    if (used_ + slots > capacity_) {
      Grow(std::max(used_ + slots, 2 * capacity_));
    }
    size_t at = used_;
    used_ += slots;
    return at;
  }

 private:
  void Swap(SlotArena& other) {
    std::swap(data_, other.data_);
    std::swap(capacity_, other.capacity_);
    std::swap(used_, other.used_);
  }
  void Grow(size_t capacity);

  VType* data_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;
};

// The buffers a verification call decodes and steps its methods in: Phase
// 2's decoded code, the fixpoint's frames, worklist and assumption log
// (verifier.cc), and the certificate validator's frames (certificate.cc).
// Every method clears what it uses and keeps the storage, so a thread that
// verifies one class after another allocates only for the largest method it
// has seen. Trim, run as each lease ends, bounds what stays behind.
struct VerifierWorkspace {
  // What one fixpoint keeps per instruction: where its in-frame lives
  // (kNoFrame before the first visit), that frame's stack depth, and the
  // range of the assumption log its most recent visit recorded.
  struct InFrame {
    static constexpr size_t kNoFrame = SIZE_MAX;
    size_t slab = kNoFrame;
    uint32_t depth = 0;
    uint32_t log_begin = 0;
    uint32_t log_end = 0;
  };

  // Capacity kept after a verification call. Larger methods still verify;
  // their storage is freed when the call is done, so a hostile method cannot
  // pin memory on a worker thread.
  static constexpr size_t kMaxKeptBytes = size_t{256} << 10;

  // Bytes of storage held.
  size_t CapacityBytes() const;
  // When CapacityBytes() exceeds kMaxKeptBytes, frees each buffer holding
  // more than an eighth of it, then everything if that is not enough.
  void Trim();

  // Phase 2.
  DecodedCode code;
  std::vector<bool> merge;  // MergePoints
  std::vector<AbstractInterpreter::HandlerEdge> handler_edges;
  // The fixpoint.
  SlotArena arena;
  std::vector<InFrame> in;
  std::vector<uint32_t> worklist;
  std::vector<Assumption> log;
  Frame scratch;
  // The validator: per assertion, its frame and the join of the edges into
  // it (shadow_set says whether any edge has arrived); per instruction, the
  // assertion there or -1.
  std::vector<Frame> asserted;
  std::vector<Frame> shadow;
  std::vector<bool> shadow_set;
  std::vector<int32_t> assertion_at;
  Frame current;
  Frame handler_entry;
};

// Borrows the calling thread's workspace for as long as it lives, and trims
// it on return. A lease taken while the thread's workspace is already lent (a
// verification nested in another) gets a fresh one of its own instead, so
// both run the same code.
class WorkspaceLease {
 public:
  WorkspaceLease();
  ~WorkspaceLease();
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  VerifierWorkspace& operator*() const { return *ws_; }
  VerifierWorkspace* operator->() const { return ws_; }

 private:
  std::unique_ptr<VerifierWorkspace> own_;  // set for a nested lease
  VerifierWorkspace* ws_;
};

}  // namespace dvm

#endif  // SRC_VERIFIER_DATAFLOW_H_
