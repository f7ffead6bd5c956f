#include "src/verifier/verifier.h"

#include <cstdint>
#include <deque>
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
    if (!ParseMethodDescriptor(m.descriptor).ok()) {
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

// The phase-3 fixpoint over one method. In-frames live in one flat arena:
// an instruction's frame is a slab of max_locals locals followed by its
// operand stack, appended on the instruction's first visit. A later edge with
// a different stack depth is a verification failure, so a slab never
// changes width and the arena holds one slot per frame slot of a reached
// instruction, however large a hostile max_stack is. Each visit steps one
// reused scratch frame, so the fixpoint allocates nothing per instruction.
class MethodVerifier {
 public:
  MethodVerifier(ClassScope& scope, const MethodInfo& method, const MethodCode& mc,
                 VerifyStats* stats, std::vector<Assumption>* assumptions)
      : method_(method), mc_(mc), types_(scope.types()), stats_(stats),
        assumptions_(assumptions),
        interp_(scope, method, mc, &stats->phase3_checks, assumptions),
        max_locals_(method.code->max_locals) {}

  Status Run();

  // Fills `out` with the fixpoint frame at every reachable merge point, in
  // strictly increasing index order as the canonical certificate encoding
  // requires.
  void EmitAssertions(MethodCertificate* out) const;

 private:
  static constexpr size_t kNoFrame = SIZE_MAX;

  void Check() { stats_->phase3_checks++; }

  Error Fail(size_t index, const std::string& message) const {
    return Verr("merge @" + std::to_string(index) + ": " + message);
  }

  std::span<const VType> Locals(size_t index) const {
    return {arena_.data() + slab_[index], max_locals_};
  }
  std::span<const VType> Stack(size_t index) const {
    return {arena_.data() + slab_[index] + max_locals_, depth_[index]};
  }

  Status Transfer(size_t index);
  Status MergeInto(size_t target, std::span<const VType> locals, std::span<const VType> stack);

  const MethodInfo& method_;
  const MethodCode& mc_;
  TypeEnv& types_;
  VerifyStats* stats_;
  std::vector<Assumption>* assumptions_;
  AbstractInterpreter interp_;

  const size_t max_locals_;
  std::vector<VType> arena_;
  std::vector<size_t> slab_;    // arena offset of each in-frame, kNoFrame before the first visit
  std::vector<size_t> depth_;   // operand-stack depth of each in-frame
  Frame scratch_;               // the visited instruction's frame, stepped in place
  std::vector<AbstractInterpreter::HandlerEdge> handler_edges_;
  // Assumptions recorded by the most recent visit of each instruction. The
  // final visit always runs at the fixpoint in-frame (any later change would
  // re-enqueue it), so flattening the buckets in instruction order yields
  // exactly the assumptions a single pass over the fixpoint derives — the
  // certificate validator recomputes and compares them.
  std::vector<std::vector<Assumption>> buckets_;
  std::deque<size_t> worklist_;
};

Status MethodVerifier::MergeInto(size_t target, std::span<const VType> locals,
                                 std::span<const VType> stack) {
  if (slab_[target] == kNoFrame) {
    slab_[target] = arena_.size();
    depth_[target] = stack.size();
    arena_.insert(arena_.end(), locals.begin(), locals.end());
    arena_.insert(arena_.end(), stack.begin(), stack.end());
    worklist_.push_back(target);
    return Status::Ok();
  }
  Check();
  if (depth_[target] != stack.size()) {
    return Fail(target, "inconsistent stack depth at merge point (" +
                            std::to_string(depth_[target]) + " vs " +
                            std::to_string(stack.size()) + ")");
  }
  VType* slab = arena_.data() + slab_[target];
  bool changed = MergeSlots({slab, max_locals_}, locals, types_);
  changed |= MergeSlots({slab + max_locals_, depth_[target]}, stack, types_);
  if (changed) {
    worklist_.push_back(target);
  }
  return Status::Ok();
}

Status MethodVerifier::Transfer(size_t index) {
  // Last-visit semantics: this visit's assumptions replace the previous
  // visit's for this instruction.
  buckets_[index].clear();
  interp_.set_assumption_sink(&buckets_[index]);
  scratch_.locals.assign(Locals(index).begin(), Locals(index).end());
  scratch_.stack.assign(Stack(index).begin(), Stack(index).end());

  // Any instruction inside a protected range contributes its locals to the
  // handler entry state (the stack is replaced by the thrown reference). A
  // failed handler merge is a verification failure — the old code swallowed
  // it, accepting methods whose handler entry state was inconsistent with
  // normal control flow into the same pc.
  DVM_RETURN_IF_ERROR(interp_.HandlerEdges(index, &handler_edges_));
  for (const auto& edge : handler_edges_) {
    DVM_RETURN_IF_ERROR(MergeInto(edge.target, scratch_.locals, {&edge.thrown, 1}));
  }

  DVM_ASSIGN_OR_RETURN(AbstractInterpreter::StepResult out, interp_.Step(index, scratch_));
  if (out.branch_target.has_value()) {
    DVM_RETURN_IF_ERROR(MergeInto(*out.branch_target, scratch_.locals, scratch_.stack));
  }
  if (out.fallthrough) {
    DVM_RETURN_IF_ERROR(MergeInto(index + 1, scratch_.locals, scratch_.stack));
  }
  return Status::Ok();
}

Status MethodVerifier::Run() {
  slab_.assign(mc_.instrs.size(), kNoFrame);
  depth_.assign(mc_.instrs.size(), 0);
  buckets_.assign(mc_.instrs.size(), {});
  const Frame entry = interp_.EntryFrame();
  DVM_RETURN_IF_ERROR(MergeInto(0, entry.locals, entry.stack));

  while (!worklist_.empty()) {
    size_t index = worklist_.front();
    worklist_.pop_front();
    DVM_RETURN_IF_ERROR(Transfer(index));
  }

  for (auto& bucket : buckets_) {
    for (auto& a : bucket) {
      assumptions_->push_back(std::move(a));
    }
  }
  return Status::Ok();
}

void MethodVerifier::EmitAssertions(MethodCertificate* out) const {
  const std::vector<bool> merge = MergePoints(method_, mc_);
  for (size_t target = 0; target < merge.size(); target++) {
    if (!merge[target] || slab_[target] == kNoFrame) {
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
  for (const auto& method : cls.methods) {
    if (!method.code.has_value()) {
      continue;
    }
    DVM_ASSIGN_OR_RETURN(MethodCode mc, Phase2(cls, method, &out.stats));
    MethodVerifier verifier(scope, method, mc, &out.stats, &out.assumptions);
    DVM_RETURN_IF_ERROR(verifier.Run());
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
