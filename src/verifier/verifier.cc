#include "src/verifier/verifier.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>

#include "src/bytecode/code.h"
#include "src/bytecode/descriptor.h"
#include "src/verifier/certificate.h"
#include "src/verifier/dataflow.h"
#include "src/verifier/typestate.h"

namespace dvm {
namespace {

constexpr const char* kObject = "java/lang/Object";

Error Verr(const std::string& message) { return Error{ErrorCode::kVerifyError, message}; }

// Frames hold a handful of slots: a memcpy beats a vector range-insert or
// assign call per copy.
void CopySlots(VType* to, std::span<const VType> from) {
  if (!from.empty()) {
    std::memcpy(to, from.data(), from.size() * sizeof(VType));
  }
}

// Slots reserved for a method's frames before its fixpoint starts: an
// estimate of max_locals + 2 per instruction, capped so that a hostile
// max_locals costs nothing up front.
constexpr size_t kMaxInitialArenaSlots = size_t{1} << 15;

}  // namespace

// ---------------------------------------------------------------------------
// Phase 1: class file internal consistency.
// ---------------------------------------------------------------------------

Status Phase1(const ClassFile& cls, VerifyStats* stats) {
  auto check = [&stats] { stats->phase1_checks++; };

  check();
  DVM_RETURN_IF_ERROR(cls.pool().Validate());

  check();
  if (!cls.pool().HasTag(cls.this_class, CpTag::kClass)) {
    return Verr("this_class is not a ClassRef");
  }
  check();
  if (cls.super_class != 0 && !cls.pool().HasTag(cls.super_class, CpTag::kClass)) {
    return Verr("super_class is not a ClassRef");
  }
  check();
  if (cls.super_class == 0 && cls.name() != kObject) {
    return Verr("only java/lang/Object may omit a superclass");
  }
  for (uint16_t iface : cls.interfaces) {
    check();
    if (!cls.pool().HasTag(iface, CpTag::kClass)) {
      return Verr("interface entry is not a ClassRef");
    }
  }
  check();
  if (cls.IsInterface() && (cls.access_flags & AccessFlags::kFinal) != 0) {
    return Verr("interface cannot be final");
  }

  std::set<std::string> field_names;
  for (const auto& f : cls.fields) {
    check();
    if (!IsValidTypeDescriptor(f.descriptor)) {
      return Verr("field " + f.name + " has malformed descriptor " + f.descriptor);
    }
    check();
    if (f.name.empty() || !field_names.insert(f.name).second) {
      return Verr("duplicate or empty field name " + f.name);
    }
  }

  std::set<std::string> method_ids;
  for (const auto& m : cls.methods) {
    check();
    if (!ScanMethodDescriptor(m.descriptor).has_value()) {
      return Verr("method " + m.name + " has malformed descriptor " + m.descriptor);
    }
    check();
    if (m.name.empty() || !method_ids.insert(m.Id()).second) {
      return Verr("duplicate or empty method " + m.Id());
    }
    check();
    bool needs_code = !m.IsNative() && !m.IsAbstract();
    if (needs_code != m.code.has_value()) {
      return Verr("method " + m.Id() + (needs_code ? " missing code" : " must not have code"));
    }
    check();
    if (m.IsAbstract() && (m.access_flags & (AccessFlags::kFinal | AccessFlags::kStatic)) != 0) {
      return Verr("abstract method " + m.Id() + " cannot be final or static");
    }
    check();
    if (m.IsConstructor() && m.IsStatic()) {
      return Verr("<init> cannot be static");
    }
    check();
    if (m.IsClassInitializer() && !m.IsStatic()) {
      return Verr("<clinit> must be static");
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 3: fixpoint dataflow over the shared abstract interpreter.
// ---------------------------------------------------------------------------

namespace {

// The phase-3 fixpoint over one method, in the buffers of a VerifierWorkspace.
// In-frames live in one flat arena: an instruction's frame is a slab of
// max_locals locals followed by its operand stack, appended on the
// instruction's first visit. A later edge with a different stack depth is a
// verification failure, so a slab never changes width and the arena holds
// one slot per frame slot of a reached instruction, however large a hostile
// max_stack is. Each visit steps one reused scratch frame, so the fixpoint
// allocates nothing per instruction; frames move in and out of the arena by
// memcpy.
class MethodVerifier {
 public:
  using InFrame = VerifierWorkspace::InFrame;

  MethodVerifier(ClassScope& scope, const MethodInfo& method, const DecodedCode& mc,
                 VerifyStats* stats, VerifierWorkspace& ws)
      : method_(method), mc_(mc), types_(scope.types()), stats_(stats), ws_(ws),
        interp_(scope, method, mc, &stats->phase3_checks, &ws.log),
        max_locals_(method.code->max_locals) {}

  // Runs the fixpoint, appending the method's assumptions to `assumptions`.
  Status Run(std::vector<Assumption>* assumptions);

  // Fills `out` with the fixpoint frame at every reachable merge point, in
  // strictly increasing index order as the canonical certificate encoding
  // requires.
  void EmitAssertions(MethodCertificate* out) const;

 private:
  void Check() { stats_->phase3_checks++; }

  [[gnu::cold, gnu::noinline]] Error DepthError(size_t index, size_t depth) const {
    return Verr("merge @" + std::to_string(index) +
                ": inconsistent stack depth at merge point (" +
                std::to_string(ws_.in[index].depth) + " vs " + std::to_string(depth) + ")");
  }

  std::span<const VType> Locals(size_t index) const {
    return {ws_.arena.data() + ws_.in[index].slab, max_locals_};
  }
  std::span<const VType> Stack(size_t index) const {
    const InFrame& in = ws_.in[index];
    return {ws_.arena.data() + in.slab + max_locals_, in.depth};
  }

  Status Transfer(size_t index);
  Status MergeInto(size_t target, std::span<const VType> locals, std::span<const VType> stack);

  const MethodInfo& method_;
  const DecodedCode& mc_;
  TypeEnv& types_;
  VerifyStats* stats_;
  VerifierWorkspace& ws_;
  // Records into ws_.log. The final visit of an instruction always runs at
  // the fixpoint in-frame (any later change would re-enqueue it), so the log
  // ranges of each instruction's last visit, in instruction order, hold
  // exactly the assumptions a single pass over the fixpoint derives — the
  // certificate validator recomputes and compares them.
  AbstractInterpreter interp_;
  const size_t max_locals_;
};

Status MethodVerifier::MergeInto(size_t target, std::span<const VType> locals,
                                 std::span<const VType> stack) {
  InFrame& in = ws_.in[target];
  if (in.slab == InFrame::kNoFrame) {
    const size_t at = ws_.arena.Append(locals.size() + stack.size());
    in.slab = at;
    in.depth = static_cast<uint32_t>(stack.size());
    CopySlots(ws_.arena.data() + at, locals);
    CopySlots(ws_.arena.data() + at + locals.size(), stack);
    ws_.worklist.push_back(static_cast<uint32_t>(target));
    return Status::Ok();
  }
  Check();
  if (in.depth != stack.size()) [[unlikely]] {
    return DepthError(target, stack.size());
  }
  VType* slab = ws_.arena.data() + in.slab;
  bool changed = MergeSlots({slab, max_locals_}, locals, types_);
  changed |= MergeSlots({slab + max_locals_, in.depth}, stack, types_);
  if (changed) {
    ws_.worklist.push_back(static_cast<uint32_t>(target));
  }
  return Status::Ok();
}

Status MethodVerifier::Transfer(size_t index) {
  Frame& scratch = ws_.scratch;
  // Step never resizes the locals, which Run() sized once. The stack is a
  // few slots: pushing them into the capacity earlier visits left behind
  // beats a resize call.
  CopySlots(scratch.locals.data(), Locals(index));
  scratch.stack.clear();
  for (const VType& slot : Stack(index)) {
    scratch.stack.push_back(slot);
  }
  const size_t log_begin = ws_.log.size();

  // Any instruction inside a protected range contributes its locals to the
  // handler entry state (the stack is replaced by the thrown reference). A
  // failed handler merge is a verification failure — the old code swallowed
  // it, accepting methods whose handler entry state was inconsistent with
  // normal control flow into the same pc.
  DVM_RETURN_IF_ERROR(interp_.HandlerEdges(index, &ws_.handler_edges));
  for (const auto& edge : ws_.handler_edges) {
    DVM_RETURN_IF_ERROR(MergeInto(edge.target, scratch.locals, {&edge.thrown, 1}));
  }

  DVM_RETURN_IF_ERROR(interp_.Step(index, scratch));
  // Last-visit semantics: this visit's assumptions replace the previous
  // visit's for this instruction.
  InFrame& in = ws_.in[index];
  in.log_begin = static_cast<uint32_t>(log_begin);
  in.log_end = static_cast<uint32_t>(ws_.log.size());

  const Instr& instr = mc_.instrs[index];
  const OpEdges edges = EdgesOf(instr.op);
  if (edges.branch) {
    DVM_RETURN_IF_ERROR(MergeInto(static_cast<size_t>(instr.a), scratch.locals, scratch.stack));
  }
  if (edges.fallthrough) {
    DVM_RETURN_IF_ERROR(MergeInto(index + 1, scratch.locals, scratch.stack));
  }
  return Status::Ok();
}

Status MethodVerifier::Run(std::vector<Assumption>* assumptions) {
  const size_t count = mc_.instrs.size();
  ws_.in.assign(count, InFrame{});
  ws_.worklist.clear();
  ws_.log.clear();
  ws_.arena.Clear();
  ws_.arena.Reserve(std::min(count * (max_locals_ + 2), kMaxInitialArenaSlots));
  interp_.EntryFrame(ws_.scratch);
  DVM_RETURN_IF_ERROR(MergeInto(0, ws_.scratch.locals, ws_.scratch.stack));

  // FIFO: visits pop from `head`; the queue restarts from the front of its
  // storage whenever it drains.
  std::vector<uint32_t>& worklist = ws_.worklist;
  for (size_t head = 0; head < worklist.size();) {
    const size_t index = worklist[head++];
    if (head == worklist.size()) {
      worklist.clear();
      head = 0;
    }
    DVM_RETURN_IF_ERROR(Transfer(index));
  }

  for (const InFrame& in : ws_.in) {
    for (uint32_t i = in.log_begin; i < in.log_end; i++) {
      assumptions->push_back(std::move(ws_.log[i]));
    }
  }
  return Status::Ok();
}

void MethodVerifier::EmitAssertions(MethodCertificate* out) const {
  MergePoints(method_, mc_, &ws_.merge);
  for (size_t target = 0; target < ws_.merge.size(); target++) {
    if (!ws_.merge[target] || ws_.in[target].slab == InFrame::kNoFrame) {
      continue;  // not a merge point, or one the fixpoint never reached
    }
    FrameAssertion assertion;
    assertion.index = static_cast<uint32_t>(target);
    assertion.frame = SpellFrame(Locals(target), Stack(target), types_);
    out->assertions.push_back(std::move(assertion));
  }
}

}  // namespace

Result<VerifiedClass> VerifyClass(const ClassFile& cls, const ClassEnv& env,
                                  ClassCertificate* cert_out) {
  TypeEnv types(env);
  return VerifyClass(cls, types, cert_out);
}

Result<VerifiedClass> VerifyClass(const ClassFile& cls, TypeEnv& types,
                                  ClassCertificate* cert_out) {
  VerifiedClass out;
  DVM_RETURN_IF_ERROR(Phase1(cls, &out.stats));

  // Inheritance is a class-scoped assumption when the superclass is outside the
  // environment (paper: "fundamental assumptions, such as inheritance
  // relationships, affect the validity of the entire class").
  DVM_RETURN_IF_ERROR(
      CheckSuperclass(cls, types.classes(), &out.stats.phase1_checks, &out.assumptions));

  if (cert_out != nullptr) {
    *cert_out = ClassCertificate{};
    cert_out->class_name = cls.name();
  }

  ClassScope scope(cls, types);
  WorkspaceLease ws;
  for (const auto& method : cls.methods) {
    if (!method.code.has_value()) {
      continue;
    }
    DVM_RETURN_IF_ERROR(Phase2(cls, method, &out.stats, &ws->code));
    MethodVerifier verifier(scope, method, ws->code, &out.stats, *ws);
    DVM_RETURN_IF_ERROR(verifier.Run(&out.assumptions));
    if (cert_out != nullptr) {
      MethodCertificate mcert;
      mcert.method_id = method.Id();
      verifier.EmitAssertions(&mcert);
      cert_out->methods.push_back(std::move(mcert));
    }
  }

  out.assumptions = DedupAssumptions(std::move(out.assumptions));
  if (cert_out != nullptr) {
    cert_out->assumptions = out.assumptions;
  }
  return out;
}

}  // namespace dvm
